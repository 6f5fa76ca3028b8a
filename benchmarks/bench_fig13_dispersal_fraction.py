"""Fig. 13 — fraction of traffic spent on block dispersal, vs scale and block size.

Paper shape to reproduce: the dispersal fraction falls as the cluster grows
(each node only stores a 1/(N-2f) slice of every block) and falls as blocks
get bigger (the fixed VID/BA cost is amortised).  The lower this fraction,
the easier it is for a slow node to keep participating in dispersal — the
design goal of DispersedLedger.
"""

from conftest import bench_duration, report, sweep_entry

from repro.experiments.figures import model_sweep


def test_fig13_dispersal_traffic_fraction(benchmark):
    duration = bench_duration()

    def run():
        # The entry's base point (N=16, 500 KB blocks) alone, no grid.
        simulated = sweep_entry("fig12-scalability", grid={}, duration=duration)
        points = model_sweep(simulated.base)  # the paper's N = 16..128 x 500 KB / 1 MB
        return points, simulated.summaries()[0]["dispersal_fraction"]

    points, simulated_fraction = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["", "=== Fig. 13: dispersal traffic fraction (cost model; N=16 simulated) ==="]
    lines.append(f"{'N':>5} {'block':>10} {'dispersal fraction':>20}")
    for point in points:
        lines.append(f"{point['n']:>5} {point['block_size']:>10} {point['dispersal_fraction']:>19.1%}")
    lines.append(
        f"simulated at N=16, 500 KB: {simulated_fraction:.1%} "
        "(message-level run, includes retrieval cancellation effects)"
    )
    report(*lines)

    fraction = {(p["n"], p["block_size"]): p["dispersal_fraction"] for p in points}
    for block in (500_000, 1_000_000):
        assert fraction[(64, block)] < fraction[(16, block)]
        assert fraction[(128, block)] < 0.66 * fraction[(16, block)]
    for n in (16, 32, 64, 128):
        assert fraction[(n, 1_000_000)] < fraction[(n, 500_000)]
    assert 0.0 < simulated_fraction < 0.5
