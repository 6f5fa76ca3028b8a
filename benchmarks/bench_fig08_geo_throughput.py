"""Fig. 8 — per-server throughput on the geo-distributed (AWS-like) testbed.

Paper shape to reproduce: DL > DL-Coupled > HB-Link > HB in mean throughput;
DispersedLedger's per-server throughput varies with each city's own
capacity, while HoneyBadger's servers are pinned to a common (straggler-
gated) rate.
"""

from conftest import bench_duration, fmt_mbps, report, sweep_entry

from repro.experiments.figures import by_protocol, improvement, throughput_table


def test_fig08_geo_throughput(benchmark):
    duration = bench_duration()

    geo = benchmark.pedantic(
        lambda: sweep_entry("fig08-geo", duration=duration), rounds=1, iterations=1
    )
    results = by_protocol(geo)

    lines = ["", f"=== Fig. 8: geo-distributed throughput ({duration:.0f}s virtual) ==="]
    header = f"{'city':<14}" + "".join(f"{p:>14}" for p in results)
    lines.append(header)
    for row in throughput_table(geo):
        lines.append(
            f"{row['city']:<14}"
            + "".join(f"{fmt_mbps(row[p]):>14}" for p in results)
        )
    means = {p: result.mean_throughput for p, result in results.items()}
    lines.append(f"{'MEAN':<14}" + "".join(f"{fmt_mbps(means[p]):>14}" for p in results))
    lines.append(
        "improvements: DL/HB %+.0f%% (paper +105%%), HB-Link/HB %+.0f%% (paper +45%%), "
        "DL/HB-Link %+.0f%% (paper +41%%)"
        % (
            100 * improvement(geo, "dl", "hb"),
            100 * improvement(geo, "hb-link", "hb"),
            100 * improvement(geo, "dl", "hb-link"),
        )
    )
    report(*lines)

    assert means["dl"] > means["hb"]
    assert means["hb-link"] >= 0.95 * means["hb"]
    # DL decouples: per-node spread well above HB's (which moves in lockstep).
    dl = results["dl"]
    hb = results["hb"]
    assert (dl.max_throughput - dl.min_throughput) > (hb.max_throughput - hb.min_throughput)
    benchmark.extra_info["mean_throughput"] = means
