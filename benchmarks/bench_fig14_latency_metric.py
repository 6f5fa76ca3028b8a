"""Fig. 14 (Appendix A.1) — all-transaction vs local-transaction latency.

Paper shape to reproduce: for DispersedLedger the two metrics agree (so
counting only local transactions does not flatter it); for HoneyBadger the
all-transaction tail latency at well-provisioned servers is *worse* than
the local-only metric, because stale transactions proposed by overloaded
servers drag it up — which is why the paper reports local-only latency.
"""

from conftest import entry_sweep, fmt_ms, report

from repro.experiments.figures import latency_metric_table


def test_fig14_latency_metric_comparison():
    # The highest load of the Fig. 10 sweep, where HB's servers fall behind.
    sweep = entry_sweep("fig10-latency")
    load = max(sweep.grid["workload.rate_bytes_per_second"])
    tables = {
        point.spec.protocol: latency_metric_table(point)
        for point in sweep.points
        if point.spec.workload.rate_bytes_per_second == load
    }

    lines = ["", f"=== Fig. 14: latency metric comparison at {load/1e6:.0f} MB/s per node ==="]
    for protocol, rows in tables.items():
        local = [row["local_p50"] for row in rows if row["local_p50"] is not None]
        all_tx = [row["all_p50"] for row in rows if row["all_p50"] is not None]
        local_p95 = [row["local_p95"] for row in rows if row["local_p95"] is not None]
        all_p95 = [row["all_p95"] for row in rows if row["all_p95"] is not None]
        lines.append(
            f"{protocol:>4}: median latency local {fmt_ms(sum(local)/len(local))} vs all "
            f"{fmt_ms(sum(all_tx)/len(all_tx))}; p95 local {fmt_ms(max(local_p95))} vs all "
            f"{fmt_ms(max(all_p95))}"
        )
    lines.append("(paper: identical for DL; worse all-tx tails for HB's fast servers)")
    report(*lines)

    dl_rows = tables["dl"]
    dl_local = [r["local_p50"] for r in dl_rows if r["local_p50"] is not None]
    dl_all = [r["all_p50"] for r in dl_rows if r["all_p50"] is not None]
    # For DL the two metrics are close (choosing local-only is not flattering).
    assert abs(sum(dl_all) / len(dl_all) - sum(dl_local) / len(dl_local)) < 0.75 * (
        sum(dl_local) / len(dl_local)
    )
