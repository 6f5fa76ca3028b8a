"""Headline numbers (S1 / S6.2): the paper-vs-reproduction summary table.

Paper claims on the geo-distributed testbed: DispersedLedger achieves ~2x
(+105%) the throughput of HoneyBadger and ~74% lower latency; inter-node
linking alone is worth ~+45% over HoneyBadger; DL-Coupled costs ~12% of
DL's throughput.
"""

from conftest import entry_sweep, report

from repro.experiments.figures import headline_numbers


def test_headline_summary():
    geo = entry_sweep("fig08-geo")
    latency = entry_sweep("fig10-latency")
    headline = headline_numbers(geo, latency)
    load = max(latency.grid["workload.rate_bytes_per_second"])

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
        f"(throughput over {geo.base.duration:.0f}s, a window that has not converged: ROADMAP.md item 1;",
        f" latency over {latency.base.duration:.0f}s at {load / 1e6:g} MB/s per node, above both"
        " protocols' capacity, so its medians grow with the window;",
        " whether the emulated WAN drops fewer HoneyBadger blocks than the internet: item 3)",
    ]
    report(*lines)

    assert headline.dl_over_hb > 0.10
    assert headline.dl_over_hb_link >= 0.0
    if headline.latency_reduction is not None:
        assert headline.latency_reduction > -0.25
