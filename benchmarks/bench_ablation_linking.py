"""Ablation — what inter-node linking and retrieval decoupling each contribute.

The paper credits DispersedLedger's gains to two design choices: (i)
decoupling block retrieval from agreement and (ii) the inter-node linking
rule that commits every correctly dispersed block.  The ``ablation-linking``
entry runs the four combinations on one mid-sized controlled network:

* ``hb``        — neither (lockstep, no linking)
* ``hb-link``   — linking only
* ``dl-nolink`` — decoupling only (DispersedLedger with linking disabled)
* ``dl``        — both (the full protocol)
"""

from conftest import entry_sweep, fmt_mbps, report

from repro.experiments.figures import linking_ablation


def test_ablation_linking_and_decoupling():
    sweep = entry_sweep("ablation-linking")
    results = linking_ablation(sweep)

    lines = [
        "",
        f"=== Ablation: linking x decoupling ({sweep.base.num_nodes} nodes, "
        f"{sweep.base.duration:.0f}s virtual) ===",
    ]
    lines.append(f"{'variant':>10} {'mean tput':>12} {'min tput':>12} {'max tput':>12}")
    for label, result in results.items():
        lines.append(
            f"{label:>10} {fmt_mbps(result.mean_throughput):>12} "
            f"{fmt_mbps(result.min_throughput):>12} {fmt_mbps(result.max_throughput):>12}"
        )
    report(*lines)

    # The full protocol is at least as good as either single ingredient, and
    # strictly better than plain HoneyBadger.
    assert results["dl"].mean_throughput > results["hb"].mean_throughput
    assert results["dl"].mean_throughput >= 0.95 * results["dl-nolink"].mean_throughput
    assert results["dl"].mean_throughput >= 0.95 * results["hb-link"].mean_throughput
