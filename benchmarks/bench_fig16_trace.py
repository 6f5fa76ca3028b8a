"""Fig. 16 (Appendix A.3) — an example temporal-variation bandwidth trace.

Regenerates the kind of Gauss-Markov sample path (b = 10 MB/s, sigma = 5
MB/s, alpha = 0.98, 1 s steps) used by the temporal-variation experiment,
lifts it into the measured-trace model (:mod:`repro.trace`) and checks the
subsystem's time-weighted statistics match the declared process parameters
— the same pipeline a real recorded trace goes through before replay.
"""

from conftest import report

from repro.trace.model import MeasuredTrace
from repro.workload.traces import MB, GaussMarkovProcess


def test_fig16_example_bandwidth_trace():
    process = GaussMarkovProcess(mean=10 * MB, sigma=5 * MB, alpha=0.98, seed=16)
    path = process.sample_path(duration=300.0, step=1.0)
    trace = MeasuredTrace.from_node_rates(
        "fig16-gauss-markov", {0: [(t, rate, rate) for t, rate in path]}
    )

    stats = trace.stats()[0]
    resampled = trace.resampled(1.0).nodes[0].points
    rates = [down for _, _, down in resampled]
    jumps = [abs(b - a) for a, b in zip(rates, rates[1:])]

    lines = ["", "=== Fig. 16: example Gauss-Markov bandwidth trace (300 s) ==="]
    lines.append(
        f"mean {stats['down_mean']/1e6:.1f} MB/s, std {stats['down_std']/1e6:.1f} MB/s, "
        f"min {stats['down_min']/1e6:.1f}, max {stats['down_max']/1e6:.1f}, "
        f"mean 1s step {sum(jumps)/len(jumps)/1e6:.2f} MB/s"
    )
    sparkline = "".join(
        " .:-=+*#%@"[min(9, int(rate / (2.5 * MB)))] for rate in rates[:120]
    )
    lines.append(f"first 120 s: [{sparkline}]")
    report(*lines)

    assert trace.num_nodes == 1
    assert len(trace.nodes[0].points) == 300
    assert 5 * MB < stats["down_mean"] < 15 * MB
    # Strong temporal correlation: consecutive samples move far less than sigma.
    assert sum(jumps) / len(jumps) < 2.5 * MB
