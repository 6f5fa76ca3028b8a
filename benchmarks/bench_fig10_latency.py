"""Fig. 10 — median/tail confirmation latency vs offered load (DL vs HB).

Paper shape to reproduce: at low load both protocols confirm in well under a
second; as the load grows HoneyBadger's median latency climbs steeply
(proposing and confirming are lockstep, so blocks — and epochs — keep
growing), while DispersedLedger's stays nearly flat, at both a
well-connected server (Ohio) and a poorly-connected one (Mumbai).
"""

from conftest import bench_duration, fmt_ms, report, sweep_entry

from repro.experiments.figures import latency_series
from repro.workload.cities import AWS_CITIES


def test_fig10_latency_vs_load(benchmark):
    duration = max(20.0, bench_duration(1.5))
    # Per-node offered load: the low point is comfortably inside every
    # protocol's capacity; the high point is near DispersedLedger's capacity
    # and beyond HoneyBadger's (which is where the paper's curves diverge).
    loads = (300_000.0, 1_000_000.0)

    def run():
        return sweep_entry(
            "fig10-latency",
            grid={"protocol": ("dl", "hb"), "workload.rate_bytes_per_second": loads},
            duration=duration,
        )

    sweep = benchmark.pedantic(run, rounds=1, iterations=1)

    # The paper's well-connected and poorly-connected example servers.
    cities = [city.name for city in AWS_CITIES]
    fast, slow = cities.index("Ohio"), cities.index("Mumbai")
    fast_p50 = latency_series(sweep, fast)
    columns = (
        fast_p50,
        latency_series(sweep, fast, "p95"),
        latency_series(sweep, slow),
        latency_series(sweep, slow, "p95"),
    )
    lines = ["", f"=== Fig. 10: latency vs per-node offered load ({duration:.0f}s virtual) ==="]
    lines.append(f"{'protocol':>9} {'load':>12} {'Ohio p50':>10} {'Ohio p95':>10} {'Mumbai p50':>11} {'Mumbai p95':>11}")
    for protocol in fast_p50:
        for (load, f50), (_, f95), (_, s50), (_, s95) in zip(*(c[protocol] for c in columns)):
            lines.append(
                f"{protocol:>9} {load/1e6:>10.1f}MB"
                f" {fmt_ms(f50):>10} {fmt_ms(f95):>10} {fmt_ms(s50):>11} {fmt_ms(s95):>11}"
            )
    report(*lines)

    dl_medians = [median for _, median in fast_p50["dl"]]
    hb_medians = [median for _, median in fast_p50["hb"]]
    dl_growth = (dl_medians[-1] or 0) / max(dl_medians[0] or 1e-9, 1e-9)
    hb_growth = (hb_medians[-1] or 0) / max(hb_medians[0] or 1e-9, 1e-9)
    # HoneyBadger's latency grows with load at least as fast as DL's, and DL
    # stays cheaper than HB at the highest load.
    assert (dl_medians[-1] or 0) <= (hb_medians[-1] or float("inf"))
    assert dl_growth <= hb_growth * 1.25
    benchmark.extra_info["dl_median_growth"] = dl_growth
    benchmark.extra_info["hb_median_growth"] = hb_growth
