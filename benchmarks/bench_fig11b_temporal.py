"""Fig. 11b — throughput under temporal bandwidth variation.

16 nodes whose bandwidth follows independent Gauss-Markov processes
(b = 10 MB/s, sigma = 5 MB/s, alpha = 0.98) vs a fixed 10 MB/s control run.
Paper shape to reproduce: DispersedLedger's throughput is essentially
unchanged by the fluctuation, while HoneyBadger (with or without linking)
loses roughly 20-25%.
"""

from conftest import bench_duration, fmt_mbps, report, sweep_entry

from repro.experiments.figures import temporal_drop_table


def test_fig11b_temporal_variation(benchmark):
    duration = bench_duration()

    result = benchmark.pedantic(
        lambda: sweep_entry("fig11b-temporal", duration=duration), rounds=1, iterations=1
    )
    rows = temporal_drop_table(result)

    lines = ["", f"=== Fig. 11b: temporal bandwidth variation ({duration:.0f}s virtual) ==="]
    lines.append(f"{'protocol':>9} {'fixed':>12} {'varying':>12} {'drop':>8}")
    for row in rows:
        lines.append(
            f"{row['protocol']:>9} {fmt_mbps(row['fixed']):>12} {fmt_mbps(row['varying']):>12} "
            f"{100 * row['relative_drop']:>7.1f}%"
        )
    lines.append("(paper: DL ~0% drop, HB ~20%, HB-Link ~25%)")
    report(*lines)

    drops = {row["protocol"]: row["relative_drop"] for row in rows}
    dl_drop, hb_drop = drops["dl"], drops["hb"]
    # Temporal variation hurts HoneyBadger more than DispersedLedger (the
    # tolerance absorbs run-to-run noise of the short benchmark runs).
    assert dl_drop < hb_drop + 0.08
    assert dl_drop < 0.30
    benchmark.extra_info["dl_drop"] = dl_drop
    benchmark.extra_info["hb_drop"] = hb_drop
