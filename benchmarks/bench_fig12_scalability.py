"""Fig. 12 — throughput at different cluster sizes and block sizes.

Paper shape to reproduce: growing the cluster from 16 to 128 nodes costs
only a modest amount of throughput (the O(N^2) agreement overhead eats into
a constant-sized block), and larger blocks amortise the fixed cost better.

The 16..128 sweep uses the byte-accurate cost model; the N = 16 points of
the ``fig12-scalability`` entry (500 KB and 1 MB blocks) are also measured
with the message-level simulator to validate the model (the
pure-Python event loop cannot run N = 128 in reasonable time — see
docs/architecture.md, Substitutions).
"""

from conftest import entry_sweep, fmt_mbps, report

from repro.experiments.figures import model_sweep, validate_cost_model


def test_fig12_throughput_vs_cluster_size():
    # The entry simulates N=16 at both block sizes.  At the 500 KB point the
    # ratio to the model settles once a few whole epochs are delivered: 5 s
    # read 0.30, 10 s 0.39, and the entry's 20 s reads 0.37 (25 s: 0.36).
    # The gap to the model is not ramp-up but the upload term noted at the
    # assertion.
    simulated = entry_sweep("fig12-scalability")
    points = model_sweep(simulated.base)  # the paper's N = 16..128 x 500 KB / 1 MB
    validations = [validate_cost_model(point) for point in simulated.points]

    lines = ["", "=== Fig. 12: throughput vs cluster size (cost model; N=16 validated by simulation) ==="]
    lines.append(f"{'N':>5} {'block':>10} {'throughput':>14}")
    for point in points:
        lines.append(f"{point['n']:>5} {point['block_size']:>10} {fmt_mbps(point['throughput']):>14}")
    for validation in validations:
        lines.append(
            f"model validation at N={validation['n']}, {validation['block_size'] // 1000} KB, "
            f"{simulated.base.duration:.0f}s: simulated {fmt_mbps(validation['simulated_throughput'])}"
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
    assert 0.25 < validations[0]["throughput_ratio"] <= 1.2
