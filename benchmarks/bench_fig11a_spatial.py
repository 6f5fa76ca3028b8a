"""Fig. 11a — throughput under spatial bandwidth variation.

16 nodes, node i capped at 10 + 0.5i MB/s, 100 ms links.  Paper shape to
reproduce: HoneyBadger (with or without linking) is capped near the
bandwidth of the (f+1)-th slowest server for every node, while
DispersedLedger's per-node throughput is roughly proportional to that
node's own capacity.
"""

from conftest import entry_sweep, fmt_mbps, report

from repro.experiments.figures import by_protocol, throughput_spread, throughput_table


def test_fig11a_spatial_variation():
    result = entry_sweep("fig11a-spatial")
    results = by_protocol(result)
    spread = {protocol: throughput_spread(r) for protocol, r in results.items()}

    lines = ["", f"=== Fig. 11a: spatial bandwidth variation ({result.base.duration:.0f}s virtual) ==="]
    lines.append(f"{'node':>4} {'capacity':>12} {'dl':>12} {'hb-link':>12} {'hb':>12}")
    for row in throughput_table(result):
        lines.append(
            f"{row['node']:>4} {fmt_mbps(row['capacity']):>12} {fmt_mbps(row['dl']):>12} "
            f"{fmt_mbps(row['hb-link']):>12} {fmt_mbps(row['hb']):>12}"
        )
    lines.append(
        "per-node max/min spread: dl %.2fx, hb-link %.2fx, hb %.2fx "
        "(paper: DL proportional to capacity, HB flat)"
        % (spread["dl"], spread["hb-link"], spread["hb"])
    )
    report(*lines)

    # DL spreads with capacity; HB stays (nearly) flat across nodes.
    assert spread["dl"] > 1.25
    assert spread["hb"] < 1.35
    # DL's fastest nodes exceed what HoneyBadger allows anyone.
    assert results["dl"].max_throughput > results["hb"].max_throughput
