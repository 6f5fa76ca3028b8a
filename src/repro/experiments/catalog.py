"""The catalog of named scenarios.

Every entry pairs a base :class:`~repro.experiments.scenario.ScenarioSpec`
with an optional parameter grid, under a stable name that the CLI
(``python -m repro.experiments run <name>``), the docs
(``docs/scenarios.md``), the goldens, the figure benchmarks and the
performance ledger all share.  Catalog defaults are sized for interactive
runs (tens of virtual seconds); pass ``--duration`` / ``--seed`` on the CLI
or :func:`dataclasses.replace` the base spec for longer, smoother
measurements.

The paper-figure entries (``fig02-vid-cost``, ``fig08-geo``, …) are the only
definition of the paper's experiments; :mod:`repro.experiments.figures`
reduces their sweeps to figure tables.  The remaining entries grow scenario
coverage beyond the paper: the linking x decoupling ablation
(``ablation-linking``), bandwidth churn, heavy-tailed stragglers,
crash-fault mixes, mid-run
churn, non-stationary workloads, Byzantine node-class adversaries on the
timed simulator (``censor-victim``, ``equivocate-split``,
``latency-fault-matrix``), and measured-bandwidth replay through the trace
subsystem (``trace-replay-wan``, ``trace-scale-sweep``; bundled traces
under ``traces/``).  Register new entries with :func:`register_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.adversary.registry import AdversarySpec
from repro.core.config import NodeConfig
from repro.experiments.runner import WorkloadSpec
from repro.experiments.scenario import BandwidthSpec, ScenarioSpec, TopologySpec
from repro.workload.traces import MB


@dataclass(frozen=True)
class NamedScenario:
    """A catalog entry: a base spec, an optional grid, and its paper context.

    Attributes:
        name: the CLI/registry name.
        description: one line shown by ``python -m repro.experiments list``.
        base: the spec every grid point starts from.
        grid: sweep axes (see :data:`repro.experiments.scenario.Grid`).
        figure: the paper figure this reproduces, if any.
        columns: preferred summary columns for the CLI table (``None`` =
            every summary key).
    """

    name: str
    description: str
    base: ScenarioSpec
    grid: dict[str, tuple] | None = None
    figure: str | None = None
    columns: tuple[str, ...] | None = None

    def num_points(self) -> int:
        points = 1
        for values in (self.grid or {}).values():
            points *= len(tuple(values))
        return points


SCENARIOS: dict[str, NamedScenario] = {}


def register_scenario(entry: NamedScenario) -> NamedScenario:
    """Add a scenario to the catalog (overwriting a same-named entry is an error)."""
    if entry.name in SCENARIOS:
        raise ValueError(f"scenario {entry.name!r} is already registered")
    SCENARIOS[entry.name] = entry
    return entry


def get_scenario(name: str) -> NamedScenario:
    """Look up a catalog entry by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; run `python -m repro.experiments list` "
            f"(registered: {sorted(SCENARIOS)})"
        ) from None


def list_scenarios() -> list[NamedScenario]:
    """All catalog entries, sorted by name."""
    return [SCENARIOS[name] for name in sorted(SCENARIOS)]


_SIM_COLUMNS = (
    "label",
    "protocol",
    "num_nodes",
    "mean_throughput",
    "min_throughput",
    "max_throughput",
    "mean_p50_latency",
    "dispersal_fraction",
    "delivered_epochs",
)

# -- paper figures ---------------------------------------------------------

register_scenario(
    NamedScenario(
        name="fig02-vid-cost",
        description="AVID-M vs AVID-FP per-node dispersal cost, modelled + measured",
        figure="Fig. 2",
        base=ScenarioSpec(
            name="fig02-vid-cost",
            kind="vid-cost",
            topology=TopologySpec(kind="uniform", num_nodes=16),
            block_size=100_000,
        ),
        grid={
            "topology.num_nodes": (8, 16, 32),
            "block_size": (100_000, 1_000_000),
        },
        columns=("label", "n", "block_size", "avid_m", "avid_fp", "lower_bound", "measured_avid_m"),
    )
)

register_scenario(
    NamedScenario(
        name="fig08-geo",
        description="Geo-distributed (AWS-like 16 cities) saturating throughput, 4 protocols",
        figure="Fig. 8 / Fig. 9",
        base=ScenarioSpec(
            name="fig08-geo",
            topology=TopologySpec(kind="cities", testbed="aws"),
            workload=WorkloadSpec(kind="saturating"),
            node=NodeConfig(max_block_size=2_000_000),
            duration=20.0,
        ),
        grid={"protocol": ("dl", "dl-coupled", "hb-link", "hb")},
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="fig10-latency",
        description="Confirmation latency vs offered load on the AWS-like testbed",
        figure="Fig. 10",
        base=ScenarioSpec(
            name="fig10-latency",
            topology=TopologySpec(kind="cities", testbed="aws"),
            workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=1_000_000.0),
            node=NodeConfig(max_block_size=4_000_000),
            duration=20.0,
        ),
        # Per-node offered load: 300 kB/s is inside every protocol's
        # capacity; 1 MB/s (16 MB/s offered) is beyond it, where HoneyBadger's
        # latency climbs and the paper's curves diverge.
        grid={
            "protocol": ("dl", "hb"),
            "workload.rate_bytes_per_second": (300_000.0, 1_000_000.0),
        },
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="fig11a-spatial",
        description="Spatial bandwidth variation: node i capped at 10 + 0.5i MB/s",
        figure="Fig. 11a",
        base=ScenarioSpec(
            name="fig11a-spatial",
            topology=TopologySpec(kind="uniform", num_nodes=16, delay=0.1),
            bandwidth=BandwidthSpec(
                kind="spatial", rate=10 * MB, step=0.5 * MB, egress_headroom=2.0
            ),
            workload=WorkloadSpec(kind="saturating"),
            node=NodeConfig(max_block_size=1_000_000),
            duration=20.0,
        ),
        grid={"protocol": ("dl", "hb-link", "hb")},
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="fig11b-temporal",
        description="Temporal variation: fixed vs Gauss-Markov bandwidth, same mean",
        figure="Fig. 11b",
        base=ScenarioSpec(
            name="fig11b-temporal",
            topology=TopologySpec(kind="uniform", num_nodes=16, delay=0.1),
            bandwidth=BandwidthSpec(
                kind="gauss-markov",
                rate=10 * MB,
                sigma=5 * MB,
                alpha=0.98,
                egress_headroom=2.0,
            ),
            workload=WorkloadSpec(kind="saturating"),
            node=NodeConfig(max_block_size=1_000_000),
            duration=20.0,
        ),
        grid={
            "protocol": ("dl", "hb-link", "hb"),
            "trace": ({"bandwidth.kind": "constant"}, {"bandwidth.kind": "gauss-markov"}),
        },
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="fig12-scalability",
        description="Throughput and dispersal fraction at N = 16 by block size (model to N = 128)",
        figure="Fig. 12 / Fig. 13",
        base=ScenarioSpec(
            name="fig12-scalability",
            topology=TopologySpec(kind="uniform", num_nodes=16, delay=0.1),
            bandwidth=BandwidthSpec(kind="constant", rate=10 * MB, egress_headroom=1.0),
            workload=WorkloadSpec(kind="saturating"),
            node=NodeConfig(max_block_size=500_000, nagle_size=500_000),
            duration=20.0,
        ),
        # N = 16 only: the N axis of Figs. 12/13 is the cost model's
        # (figures.model_sweep), which these points validate.
        grid={
            "block": (
                {"node.max_block_size": 500_000, "node.nagle_size": 500_000},
                {"node.max_block_size": 1_000_000, "node.nagle_size": 1_000_000},
            ),
        },
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="fig15-vultr",
        description="Geo throughput on the cheaper, noisier Vultr-like 15-city testbed",
        figure="Fig. 15",
        base=ScenarioSpec(
            name="fig15-vultr",
            topology=TopologySpec(kind="cities", testbed="vultr"),
            workload=WorkloadSpec(kind="saturating"),
            node=NodeConfig(max_block_size=1_000_000),
            duration=20.0,
        ),
        grid={"protocol": ("dl", "hb-link", "hb")},
        columns=_SIM_COLUMNS,
    )
)

# -- beyond the paper ------------------------------------------------------

register_scenario(
    NamedScenario(
        name="ablation-linking",
        description="Ablation: hb, hb-link, dl without linking and dl on one spatial-variation cluster",
        base=ScenarioSpec(
            name="ablation-linking",
            topology=TopologySpec(kind="uniform", num_nodes=10, delay=0.1),
            bandwidth=BandwidthSpec(kind="spatial", rate=8 * MB, step=1.0 * MB),
            workload=WorkloadSpec(kind="saturating"),
            node=NodeConfig(max_block_size=1_000_000),
            duration=20.0,
        ),
        # Neither ingredient, linking only, decoupling only, both.
        grid={
            "variant": (
                {"protocol": "hb"},
                {"protocol": "hb-link"},
                {"protocol": "dl", "node.linking": False},
                {"protocol": "dl"},
            ),
        },
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="bandwidth-flapping",
        description="Bandwidth churn: 3 of 8 links take turns collapsing 13x (Fig. 1 regime)",
        base=ScenarioSpec(
            name="bandwidth-flapping",
            topology=TopologySpec(kind="uniform", num_nodes=8, delay=0.08),
            bandwidth=BandwidthSpec(
                kind="flapping",
                rate=4 * MB,
                degraded_rate=0.3 * MB,
                count=3,
                period=12.0,
                degraded_for=4.0,
            ),
            workload=WorkloadSpec(kind="saturating", target_pending_bytes=3_000_000),
            node=NodeConfig(max_block_size=400_000),
            duration=30.0,
        ),
        grid={"protocol": ("dl", "hb")},
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="straggler-hetero",
        description="Heterogeneous cluster: 3 of 10 nodes an order of magnitude slower",
        base=ScenarioSpec(
            name="straggler-hetero",
            topology=TopologySpec(kind="uniform", num_nodes=10, delay=0.1),
            bandwidth=BandwidthSpec(
                kind="straggler", rate=10 * MB, degraded_rate=1 * MB, count=3
            ),
            workload=WorkloadSpec(kind="saturating"),
            node=NodeConfig(max_block_size=1_000_000),
            duration=20.0,
        ),
        grid={"protocol": ("dl", "hb-link", "hb")},
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="adversary-crash-mix",
        description="Crash-fault sweep: 0..f silent nodes out of n=8 (f=2)",
        base=ScenarioSpec(
            name="adversary-crash-mix",
            topology=TopologySpec(kind="uniform", num_nodes=8, delay=0.05),
            bandwidth=BandwidthSpec(kind="constant", rate=5 * MB),
            workload=WorkloadSpec(kind="saturating", target_pending_bytes=2_000_000),
            node=NodeConfig(max_block_size=500_000),
            duration=20.0,
        ),
        grid={
            "protocol": ("dl", "hb"),
            "faults": (
                {"adversary.kind": "none", "adversary.count": 0},
                {"adversary.kind": "crash", "adversary.count": 1},
                {"adversary.kind": "crash", "adversary.count": 2},
            ),
        },
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="mid-run-crash",
        description="Churn: 2 of 7 nodes fall silent halfway through the run",
        base=ScenarioSpec(
            name="mid-run-crash",
            topology=TopologySpec(kind="uniform", num_nodes=7, delay=0.05),
            bandwidth=BandwidthSpec(kind="constant", rate=5 * MB),
            adversary=AdversarySpec(kind="crash-after", count=2, crash_time=15.0),
            workload=WorkloadSpec(kind="saturating", target_pending_bytes=2_000_000),
            node=NodeConfig(max_block_size=500_000),
            duration=30.0,
        ),
        grid={"protocol": ("dl", "hb")},
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="censor-victim",
        description="Censorship: up to f of 7 nodes vote 0 on node 0's slot; linking delivers it anyway",
        base=ScenarioSpec(
            name="censor-victim",
            topology=TopologySpec(kind="uniform", num_nodes=7, delay=0.05),
            bandwidth=BandwidthSpec(kind="constant", rate=5 * MB),
            adversary=AdversarySpec(kind="censor", count=2, victim=0),
            workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=1_000_000.0),
            node=NodeConfig(max_block_size=500_000),
            duration=20.0,
        ),
        grid={
            "censors": (
                {"adversary.kind": "none", "adversary.count": 0},
                {"adversary.kind": "censor", "adversary.count": 1},
                {"adversary.kind": "censor", "adversary.count": 2},
            ),
        },
        columns=(
            "label",
            "protocol",
            "mean_throughput",
            "mean_p50_latency",
            "victim_commit_p50",
            "victim_inclusion_delay",
            "victim_linked_fraction",
            "delivered_epochs",
        ),
    )
)

register_scenario(
    NamedScenario(
        name="equivocate-split",
        description="Equivocating disperser on the real data plane, split point swept across chunks",
        base=ScenarioSpec(
            name="equivocate-split",
            topology=TopologySpec(kind="uniform", num_nodes=4, delay=0.05),
            bandwidth=BandwidthSpec(kind="constant", rate=3 * MB),
            adversary=AdversarySpec(kind="equivocate", count=1),
            workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=300_000.0),
            node=NodeConfig(data_plane="real", max_block_size=100_000),
            duration=20.0,
        ),
        grid={"adversary.split": (1, 2, 3)},
        columns=(
            "label",
            "protocol",
            "mean_throughput",
            "mean_p50_latency",
            "equivocation_detected_epoch",
            "bad_uploader_deliveries",
            "delivered_epochs",
        ),
    )
)

register_scenario(
    NamedScenario(
        name="latency-fault-matrix",
        description="Tail latency under faults: poisson load x fault kind x fault count (n=7)",
        base=ScenarioSpec(
            name="latency-fault-matrix",
            topology=TopologySpec(kind="uniform", num_nodes=7, delay=0.05),
            bandwidth=BandwidthSpec(kind="constant", rate=5 * MB),
            workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=500_000.0),
            node=NodeConfig(max_block_size=500_000),
            duration=20.0,
        ),
        grid={
            "workload.rate_bytes_per_second": (500_000.0, 1_500_000.0),
            "faults": (
                {"adversary.kind": "none", "adversary.count": 0},
                {"adversary.kind": "crash", "adversary.count": 1},
                {"adversary.kind": "crash", "adversary.count": 2},
                {"adversary.kind": "crash-after", "adversary.count": 2,
                 "adversary.crash_time": 10.0},
                {"adversary.kind": "censor", "adversary.count": 2},
                {"adversary.kind": "equivocate", "adversary.count": 1},
            ),
        },
        columns=(
            "label",
            "mean_throughput",
            "mean_p50_latency",
            "adversary_kind",
            "delivered_epochs",
        ),
    )
)

register_scenario(
    NamedScenario(
        name="trace-replay-wan",
        description="Measured-bandwidth replay: 8 shaped-broadband links from traces/wan-measured.csv",
        base=ScenarioSpec(
            name="trace-replay-wan",
            topology=TopologySpec(kind="uniform", num_nodes=8, delay=0.06),
            bandwidth=BandwidthSpec(
                kind="trace-replay", trace_path="traces/wan-measured.csv"
            ),
            workload=WorkloadSpec(kind="saturating", target_pending_bytes=3_000_000),
            node=NodeConfig(max_block_size=500_000),
            duration=30.0,
        ),
        grid={"protocol": ("dl", "hb")},
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="trace-scale-sweep",
        description="Trace scaling: replay the WAN trace at 0.5x / 1x / 2x the measured rates",
        base=ScenarioSpec(
            name="trace-scale-sweep",
            topology=TopologySpec(kind="uniform", num_nodes=8, delay=0.06),
            bandwidth=BandwidthSpec(
                kind="trace-replay", trace_path="traces/wan-measured.csv"
            ),
            workload=WorkloadSpec(kind="saturating", target_pending_bytes=3_000_000),
            node=NodeConfig(max_block_size=500_000),
            duration=30.0,
        ),
        grid={"bandwidth.trace_scale": (0.5, 1.0, 2.0)},
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="bursty-load",
        description="Non-stationary clients: constant vs bursty vs diurnal Poisson load",
        base=ScenarioSpec(
            name="bursty-load",
            topology=TopologySpec(kind="uniform", num_nodes=8, delay=0.05),
            bandwidth=BandwidthSpec(kind="constant", rate=5 * MB),
            workload=WorkloadSpec(
                kind="poisson", rate_bytes_per_second=1_500_000.0, period=20.0
            ),
            node=NodeConfig(max_block_size=1_000_000),
            duration=40.0,
            warmup=5.0,
        ),
        grid={"workload.kind": ("poisson", "bursty", "diurnal")},
        columns=_SIM_COLUMNS,
    )
)

register_scenario(
    NamedScenario(
        name="columnar-scale",
        description="Batch clients at scale: N=64 express cluster committing ~100k tx in one epoch",
        base=ScenarioSpec(
            name="columnar-scale",
            topology=TopologySpec(kind="uniform", num_nodes=64, delay=0.05),
            bandwidth=BandwidthSpec(kind="unlimited"),
            workload=WorkloadSpec(
                kind="saturating-columnar", target_pending_bytes=800_000, tx_size=250
            ),
            # 1600 transactions per block x 64 proposers x 1 epoch = 102,400
            # committed transactions, submitted as one batch per proposer.
            node=NodeConfig(max_block_size=400_000, nagle_size=400_000),
            duration=2.0,
            warmup=0.0,
            max_epochs=1,
        ),
        columns=_SIM_COLUMNS,
    )
)
