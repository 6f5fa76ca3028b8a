"""Ablation — what inter-node linking and retrieval decoupling each contribute.

The paper credits DispersedLedger's gains to two design choices: (i)
decoupling block retrieval from agreement and (ii) the inter-node linking
rule that commits every correctly dispersed block.  This ablation runs the
four combinations on one mid-sized controlled network:

* ``hb``        — neither (lockstep, no linking)
* ``hb-link``   — linking only
* ``dl-nolink`` — decoupling only (DispersedLedger with linking disabled)
* ``dl``        — both (the full protocol)
"""

from conftest import bench_duration, fmt_mbps, report

from repro.core.config import NodeConfig
from repro.experiments.engine import run_scenario
from repro.experiments.runner import WorkloadSpec
from repro.experiments.scenario import (
    BandwidthSpec,
    ScenarioSpec,
    TopologySpec,
    apply_overrides,
)
from repro.workload.traces import MB


def test_ablation_linking_and_decoupling(benchmark):
    duration = bench_duration()
    num_nodes = 10
    base = ScenarioSpec(
        name="ablation-linking",
        topology=TopologySpec(kind="uniform", num_nodes=num_nodes, delay=0.1),
        bandwidth=BandwidthSpec(kind="spatial", rate=8 * MB, step=1.0 * MB),
        workload=WorkloadSpec(kind="saturating"),
        node=NodeConfig(max_block_size=1_000_000),
        duration=duration,
        warmup_fraction=0.0,
    )
    variants = {
        "hb": {"protocol": "hb"},
        "hb-link": {"protocol": "hb-link"},
        "dl-nolink": {"protocol": "dl", "node.linking": False},
        "dl": {"protocol": "dl", "node.linking": True},
    }

    def run():
        return {
            label: run_scenario(apply_overrides(base, overrides)).result
            for label, overrides in variants.items()
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["", f"=== Ablation: linking x decoupling ({num_nodes} nodes, {duration:.0f}s virtual) ==="]
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
