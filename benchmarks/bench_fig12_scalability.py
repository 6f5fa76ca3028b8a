"""Fig. 12 — throughput at different cluster sizes and block sizes.

Paper shape to reproduce: growing the cluster from 16 to 128 nodes costs
only a modest amount of throughput (the O(N^2) agreement overhead eats into
a constant-sized block), and larger blocks amortise the fixed cost better.

The 16..128 sweep uses the byte-accurate cost model; the N = 16 point is
also measured with the message-level simulator to validate the model (the
pure-Python event loop cannot run N = 128 in reasonable time — see
docs/architecture.md, Substitutions).
"""

from conftest import bench_duration, fmt_mbps, report, sweep_entry

from repro.experiments.figures import model_sweep, validate_cost_model


def test_fig12_throughput_vs_cluster_size(benchmark):
    # The floor bites only when REPRO_BENCH_DURATION is below 12.5 s.  It
    # keeps enough whole epochs delivered for the throughput ratio to settle:
    # at the N=16 base point a 5 s run delivers 2 epochs and reads 0.30,
    # 10 s reads 0.39 and 25 s 0.37.  It is not a ramp-up allowance; the
    # gap to the model is the upload term noted at the assertion.
    duration = max(25.0, bench_duration(2.0))

    def run():
        # The entry's base point (N=16, 500 KB blocks) alone, no grid.
        simulated = sweep_entry("fig12-scalability", grid={}, duration=duration)
        points = model_sweep(simulated.base)  # the paper's N = 16..128 x 500 KB / 1 MB
        return points, validate_cost_model(simulated.points[0])

    points, validation = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["", "=== Fig. 12: throughput vs cluster size (cost model; N=16 validated by simulation) ==="]
    lines.append(f"{'N':>5} {'block':>10} {'throughput':>14}")
    for point in points:
        lines.append(f"{point['n']:>5} {point['block_size']:>10} {fmt_mbps(point['throughput']):>14}")
    lines.append(
        f"model validation at N=16, 500 KB: simulated {fmt_mbps(validation['simulated_throughput'])}"
        f" vs modelled {fmt_mbps(validation['modelled_throughput'])}"
        f" (ratio {validation['throughput_ratio']:.2f})"
    )
    report(*lines)

    throughput = {(p["n"], p["block_size"]): p["throughput"] for p in points}
    # Throughput at N=128 is within a modest factor of N=16 (only a slight drop).
    for block in (500_000, 1_000_000):
        assert throughput[(128, block)] > 0.5 * throughput[(16, block)]
        assert throughput[(128, block)] <= 1.05 * throughput[(16, block)]
    # Bigger blocks never hurt.
    assert throughput[(128, 1_000_000)] >= throughput[(128, 500_000)]
    # The simulation lands below the model by about (N-2f)/N: every server
    # answers every chunk request, and the model does not charge that upload
    # (ROADMAP.md measurement 4, open item 2), so it is not a ramp-up effect.
    assert 0.25 < validation["throughput_ratio"] <= 1.2
