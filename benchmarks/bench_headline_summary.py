"""Headline numbers (S1 / S6.2): the paper-vs-reproduction summary table.

Paper claims on the geo-distributed testbed: DispersedLedger achieves ~2x
(+105%) the throughput of HoneyBadger and ~74% lower latency; inter-node
linking alone is worth ~+45% over HoneyBadger; DL-Coupled costs ~12% of
DL's throughput.
"""

from dataclasses import asdict

from conftest import bench_duration, report, sweep_entry

from repro.experiments.figures import headline_numbers


def test_headline_summary(benchmark):
    geo_duration = bench_duration()
    latency_duration = max(20.0, bench_duration(1.25))

    def run():
        geo = sweep_entry("fig08-geo", duration=geo_duration)
        latency = sweep_entry(
            "fig10-latency",
            grid={
                "protocol": ("dl", "hb"),
                "workload.rate_bytes_per_second": (1_000_000.0, 4_000_000.0),
            },
            duration=latency_duration,
        )
        return headline_numbers(geo, latency)

    headline = benchmark.pedantic(run, rounds=1, iterations=1)

    def pct(value):
        return "n/a" if value is None else f"{100 * value:+.0f}%"

    lines = [
        "",
        "=== Headline summary: paper vs this reproduction ===",
        f"{'metric':<38} {'paper':>10} {'measured':>10}",
        f"{'DL throughput vs HB':<38} {'+105%':>10} {pct(headline.dl_over_hb):>10}",
        f"{'HB-Link throughput vs HB':<38} {'+45%':>10} {pct(headline.linking_over_hb):>10}",
        f"{'DL throughput vs HB-Link':<38} {'+41%':>10} {pct(headline.dl_over_hb_link):>10}",
        f"{'DL-Coupled penalty vs DL':<38} {'-12%':>10} {pct(-headline.coupled_penalty if headline.coupled_penalty is not None else None):>10}",
        f"{'DL latency reduction vs HB':<38} {'-74%':>10} {pct(-headline.latency_reduction if headline.latency_reduction is not None else None):>10}",
        "(see ROADMAP.md open item 1 for the gaps to the paper; the untested hypothesis is that",
        " the emulated WAN drops far fewer HoneyBadger blocks than the real internet)",
    ]
    report(*lines)

    assert headline.dl_over_hb > 0.10
    assert headline.dl_over_hb_link >= 0.0
    if headline.latency_reduction is not None:
        assert headline.latency_reduction > -0.25
    benchmark.extra_info["headline"] = {
        key: value for key, value in asdict(headline).items() if value is not None
    }
