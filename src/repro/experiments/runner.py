"""The common experiment driver: build, execute, summarise.

:func:`build_experiment` constructs a simulated network, attaches N nodes of
the protocol under test (optionally replacing some with adversaries) and a
workload generator per node; :func:`execute` advances that state through a
plan of :class:`Stop` s — it is the one place that calls ``sim.run`` — and
:func:`summarise_experiment` reads what the metrics collector saw.

A run is a :class:`~repro.experiments.scenario.ScenarioSpec` executed by
:func:`~repro.experiments.engine.run_scenario` or
:func:`~repro.experiments.engine.sweep`, which plan their stops themselves.
These three functions are the seam underneath, for driving a hand-built
state::

    state = build_experiment("dl", network_config, duration=10.0)
    result = execute(state, [Stop(state.duration)])

A checkpoint such a run writes carries no spec; continue it with
``execute(restore_experiment(path), [Stop(state.duration)])``.

Protocols and workloads are looked up in registries
(:func:`register_protocol`, :func:`register_workload`), so new automata and
load shapes plug into every experiment — and into the declarative scenario
engine built on top (:mod:`repro.experiments.scenario`) — without touching
this driver.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.adversary.registry import AdversarySpec, get_adversary
from repro.ba.coin import CommonCoin
from repro.common.errors import ConfigurationError, SnapshotError
from repro.common.params import ProtocolParams
from repro.core.config import NodeConfig
from repro.core.node import DLCoupledNode, DispersedLedgerNode
from repro.core.node_base import BFTNodeBase
from repro.honeybadger.node import HoneyBadgerLinkNode, HoneyBadgerNode
from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import Summary
from repro.sim.context import NodeContext
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.sim.snapshot import SimulationState, load_checkpoint, save_checkpoint
from repro.trace.recorder import write_jsonl
from repro.workload.txgen import (
    DEFAULT_TX_SIZE,
    ColumnarPoissonTransactionGenerator,
    ModulatedPoissonTransactionGenerator,
    PoissonTransactionGenerator,
    SaturatingTransactionGenerator,
    bursty_rate_profile,
    diurnal_rate_profile,
)

#: The protocols the paper's evaluation compares (S6), keyed by the labels
#: used throughout the experiments and benchmark output.  Extend with
#: :func:`register_protocol`.
PROTOCOLS: dict[str, type[BFTNodeBase]] = {
    "dl": DispersedLedgerNode,
    "dl-coupled": DLCoupledNode,
    "hb": HoneyBadgerNode,
    "hb-link": HoneyBadgerLinkNode,
}


def register_protocol(name: str, node_class: type[BFTNodeBase]) -> None:
    """Register a protocol automaton so experiments and scenarios can run it.

    The class must accept the :class:`BFTNodeBase` constructor signature
    (``node_id, params, ctx, config=, coin=, max_epochs=, on_deliver=,
    on_propose=``).
    """
    existing = PROTOCOLS.get(name)
    if existing is not None and existing is not node_class:
        raise ValueError(f"protocol {name!r} is already registered as {existing.__name__}")
    PROTOCOLS[name] = node_class


@dataclass(frozen=True)
class WorkloadSpec:
    """What load the clients offer to each node.

    ``kind`` names an entry of the workload registry.  Built in:

    * ``"saturating"`` — infinitely-backlogged throughput runs (S6.2): one
      :class:`~repro.core.txbatch.TxBatch` per refill, never a record per
      transaction.  ``"saturating-columnar"`` is a second spelling of the
      same factory;
    * ``"poisson"`` — constant-rate Poisson arrivals (latency-vs-load, S6.2),
      one record and one simulator event per arrival;
    * ``"bursty"`` — on/off Poisson bursts: load ``rate / duty`` for
      ``duty * period`` seconds of every ``period``, zero otherwise;
    * ``"diurnal"`` — sinusoidal day/night Poisson modulation with relative
      swing ``amplitude`` over each ``period``;
    * ``"poisson-columnar"`` — statistically the same process as
      ``"poisson"`` from a different RNG, emitting one batch per ``window``
      instead of one event per transaction, for million-transaction runs.

    For all Poisson-family workloads ``rate_bytes_per_second`` is the mean
    *per-node* offered load.  ``period``, ``duty`` and ``amplitude`` only
    apply to the modulated kinds; ``window`` only to the columnar Poisson
    kind.  ``stop_after`` cuts the client load at that virtual time
    (``None`` = offered for the whole run), which lets drain-phase scenarios
    measure how long in-flight transactions take to clear.
    """

    kind: str = "saturating"
    rate_bytes_per_second: float = 1_000_000.0
    tx_size: int = DEFAULT_TX_SIZE
    target_pending_bytes: int = 8_000_000
    period: float = 20.0
    duty: float = 0.25
    amplitude: float = 0.8
    stop_after: float | None = None
    window: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in WORKLOADS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; registered: {sorted(WORKLOADS)}"
            )
        if self.stop_after is not None and self.stop_after <= 0:
            raise ValueError("stop_after must be positive (or None)")
        if self.window <= 0:
            raise ValueError("window must be positive")


#: ``factory(sim, node, spec, seed) -> generator`` — builds the per-node load
#: generator; the generator only needs a ``start()`` method.
WorkloadFactory = Callable[[Simulator, BFTNodeBase, WorkloadSpec, int], object]

WORKLOADS: dict[str, WorkloadFactory] = {}


def register_workload(kind: str, factory: WorkloadFactory) -> None:
    """Register a workload generator under ``kind``."""
    WORKLOADS[kind] = factory


def _per_node_seed(seed: int, node: BFTNodeBase) -> int:
    return seed * 1_000 + node.node_id


def _saturating(sim: Simulator, node: BFTNodeBase, spec: WorkloadSpec, seed: int):
    return SaturatingTransactionGenerator(
        sim,
        node,
        target_pending_bytes=spec.target_pending_bytes,
        tx_size=spec.tx_size,
        stop_at=spec.stop_after,
    )


def _poisson(sim: Simulator, node: BFTNodeBase, spec: WorkloadSpec, seed: int):
    return PoissonTransactionGenerator(
        sim,
        node,
        rate_bytes_per_second=spec.rate_bytes_per_second,
        tx_size=spec.tx_size,
        seed=_per_node_seed(seed, node),
        stop_at=spec.stop_after,
    )


def _bursty(sim: Simulator, node: BFTNodeBase, spec: WorkloadSpec, seed: int):
    profile = bursty_rate_profile(
        spec.rate_bytes_per_second, period=spec.period, duty=spec.duty
    )
    return ModulatedPoissonTransactionGenerator(
        sim,
        node,
        profile,
        tx_size=spec.tx_size,
        seed=_per_node_seed(seed, node),
        stop_at=spec.stop_after,
    )


def _diurnal(sim: Simulator, node: BFTNodeBase, spec: WorkloadSpec, seed: int):
    profile = diurnal_rate_profile(
        spec.rate_bytes_per_second, period=spec.period, amplitude=spec.amplitude
    )
    return ModulatedPoissonTransactionGenerator(
        sim,
        node,
        profile,
        tx_size=spec.tx_size,
        seed=_per_node_seed(seed, node),
        stop_at=spec.stop_after,
    )


def _poisson_columnar(sim: Simulator, node: BFTNodeBase, spec: WorkloadSpec, seed: int):
    return ColumnarPoissonTransactionGenerator(
        sim,
        node,
        rate_bytes_per_second=spec.rate_bytes_per_second,
        tx_size=spec.tx_size,
        seed=_per_node_seed(seed, node),
        stop_at=spec.stop_after,
        window=spec.window,
    )


register_workload("saturating", _saturating)
register_workload("poisson", _poisson)
register_workload("bursty", _bursty)
register_workload("diurnal", _diurnal)
register_workload("poisson-columnar", _poisson_columnar)
# A second spelling of ``"saturating"``, kept because the pinned ledger
# workloads and the ``columnar-scale`` entry name it (cf. ``ColumnarMempool``).
register_workload("saturating-columnar", _saturating)


@dataclass
class ExperimentResult:
    """Everything an experiment run produces."""

    protocol: str
    num_nodes: int
    duration: float
    #: Per-node confirmed payload bytes per second.
    throughputs: list[float]
    #: Per-node latency summaries over local transactions (None if no sample).
    latency_local: list[Summary | None]
    #: Per-node latency summaries over all transactions (None if no sample).
    latency_all: list[Summary | None]
    #: Per-node fraction of received bytes that is dispersal-phase traffic.
    dispersal_fractions: list[float]
    #: Per-node cumulative confirmed-bytes timelines (Fig. 9).
    timelines: list[list[tuple[float, int]]]
    #: Per-node delivered epoch frontiers at the end of the run.
    delivered_epochs: list[int]
    #: Per-node dispersal (proposal) epoch frontiers at the end of the run.
    current_epochs: list[int]
    #: Mean proposed block size in bytes across all nodes (batch size, S6.2).
    mean_block_size: float
    #: Number of simulator events processed (performance accounting).
    events_processed: int = 0
    #: Total transactions injected by the workload generators.
    tx_generated: int = 0
    #: Per-node counts of transactions confirmed (delivered in a block).
    tx_confirmed_per_node: list[int] = field(default_factory=list)
    #: Adversary-facing measurements (empty when no adversary was placed):
    #: ``adversary_kind`` / ``adversary_nodes`` always, plus per-kind keys —
    #: censor: ``victim``, ``victim_commit_p50`` (median confirmation latency
    #: of the victim's own transactions), ``victim_inclusion_delay`` (mean
    #: epochs between a victim block's epoch and the epoch whose retrieval
    #: phase delivered it) and ``victim_linked_fraction`` (share of the
    #: victim's blocks that needed inter-node linking); equivocate:
    #: ``equivocation_detected_epoch`` (first epoch an honest node delivered
    #: the ``BAD_UPLOADER`` placeholder) and ``bad_uploader_deliveries``.
    adversary_metrics: dict = field(default_factory=dict)

    @property
    def tx_committed(self) -> int:
        """Transactions committed cluster-wide.

        The most-advanced node's confirmed count — every node eventually
        delivers the same blocks, so this is the number of distinct
        transactions known committed at the end of the run.
        """
        return max(self.tx_confirmed_per_node, default=0)

    @property
    def mean_throughput(self) -> float:
        return sum(self.throughputs) / len(self.throughputs)

    @property
    def min_throughput(self) -> float:
        return min(self.throughputs)

    @property
    def max_throughput(self) -> float:
        return max(self.throughputs)


def _experiment_fingerprint(
    protocol: str,
    network_config: NetworkConfig,
    duration: float,
    workload: WorkloadSpec,
    node_config: NodeConfig,
    params: ProtocolParams,
    seed: int,
    warmup: float,
    adversary: AdversarySpec | None,
    max_epochs: int | None,
) -> str:
    """A short deterministic digest of *what* is being simulated.

    Stored in every ``repro-ckpt-v1`` header and recomputed on resume, so a
    checkpoint taken by one scenario cannot silently continue another.  Trace
    objects are summarised by class name (their content is not JSON-stable);
    everything else is the exact argument value.
    """

    def trace_kinds(traces) -> list[str] | None:
        if traces is None:
            return None
        return [type(t).__name__ if t is not None else "None" for t in traces]

    material = {
        "protocol": protocol,
        "n": params.n,
        "f": params.f,
        "duration": duration,
        "warmup": warmup,
        "seed": seed,
        "max_epochs": max_epochs,
        "workload": asdict(workload),
        "node_config": asdict(node_config),
        "adversary": None if adversary is None else asdict(adversary),
        "network": {
            "num_nodes": network_config.num_nodes,
            "propagation_delay": network_config.propagation_delay,
            "express": network_config.express,
            "egress": trace_kinds(network_config.egress_traces),
            "ingress": trace_kinds(network_config.ingress_traces),
        },
    }
    blob = json.dumps(material, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def build_experiment(
    protocol: str,
    network_config: NetworkConfig,
    duration: float,
    workload: WorkloadSpec | None = None,
    node_config: NodeConfig | None = None,
    params: ProtocolParams | None = None,
    seed: int = 0,
    warmup: float = 0.0,
    adversary: AdversarySpec | None = None,
    observers: Mapping[str, Any] | None = None,
    max_epochs: int | None = None,
    meta: dict | None = None,
) -> SimulationState:
    """Build phase: construct the full simulation graph, ready to run.

    ``protocol`` names a :data:`PROTOCOLS` entry; ``workload`` defaults to a
    saturating one, ``node_config`` to :class:`NodeConfig`'s defaults and
    ``params`` to the maximum-``f`` setting for the network's node count.
    ``seed`` seeds the workload generators; ``warmup`` virtual seconds are
    left out of the throughput denominator.  A placed ``adversary`` replaces
    its nodes on the wire; a full-node replacement (``censor``,
    ``equivocate``) also takes the honest node's place in the cluster.
    ``max_epochs`` stops proposing after that many epochs so the run drains.

    The result is a :class:`~repro.sim.snapshot.SimulationState` — what a
    checkpoint restores — so a fresh build and a restored run go through the
    same :func:`execute` and :func:`summarise_experiment`.
    ``observers`` (name -> object with ``attach(state)`` / ``finish()`` /
    ``rows``; see :mod:`repro.trace.observers`) are attached to the finished
    state in mapping order.  Construction order (one :class:`CommonCoin`,
    nodes in id order, adversary replacements, generators,
    ``network.start()``, observer attach) is part of the determinism
    contract: it fixes the initial sequence numbers.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {sorted(PROTOCOLS)}")
    workload = workload or WorkloadSpec()
    node_config = node_config or NodeConfig()
    params = params or ProtocolParams.for_n(network_config.num_nodes)
    if params.n != network_config.num_nodes:
        raise ValueError(
            f"params.n={params.n} does not match network nodes={network_config.num_nodes}"
        )
    if duration <= warmup:
        raise ValueError("duration must exceed warmup")

    sim = Simulator()
    network = Network(sim, network_config)
    collector = MetricsCollector(params.n)
    coin = CommonCoin(seed=b"dispersedledger-coin")
    nodes: list[BFTNodeBase] = []
    for node_id in range(params.n):
        node = PROTOCOLS[protocol](
            node_id,
            params,
            NodeContext(node_id, network, sim),
            config=node_config,
            coin=coin,
            max_epochs=max_epochs,
            on_deliver=collector.record_delivery,
            on_propose=collector.record_proposal,
        )
        network.attach(node_id, node)
        nodes.append(node)

    silent: frozenset[int] = frozenset()
    placement: tuple[int, ...] = ()
    if adversary is not None and adversary.kind != "none":
        factory = get_adversary(adversary.kind)
        placement = adversary.placement(params.n)
        for node_id in placement:
            replacement = factory(nodes[node_id], sim, adversary)
            network.attach(node_id, replacement)
            if isinstance(replacement, BFTNodeBase):
                nodes[node_id] = replacement
        if adversary.silent_from_start:
            silent = frozenset(placement)

    generators = []
    for node in nodes:
        if node.node_id in silent:
            continue  # no client feeds a node that is dead from the start
        generator = WORKLOADS[workload.kind](sim, node, workload, seed)
        generators.append(generator)
        sim.schedule(0.0, generator.start)

    network.start()
    state = SimulationState(
        fingerprint=_experiment_fingerprint(
            protocol,
            network_config,
            duration,
            workload,
            node_config,
            params,
            seed,
            warmup,
            adversary,
            max_epochs,
        ),
        protocol=protocol,
        duration=duration,
        warmup=warmup,
        seed=seed,
        sim=sim,
        network=network,
        collector=collector,
        nodes=nodes,
        generators=generators,
        adversary=adversary,
        placement=placement,
        observers=dict(observers or {}),
        meta=dict(meta or {}),
    )
    for observer in state.observers.values():
        observer.attach(state)
    return state


@dataclass(frozen=True)
class Stop:
    """A virtual time at which the engine touches a running simulation.

    :func:`execute` runs the simulation to ``time``, then writes and clears
    the rows of the observers ``flush`` names (``state.observers`` key ->
    JSONL path), then saves a checkpoint to ``checkpoint``.  A window
    boundary, a hand-off, a periodic checkpoint and the horizon are the same
    thing with different fields set.
    """

    time: float
    flush: Mapping[str, str | Path] = field(default_factory=dict)
    checkpoint: str | Path | None = None


def periodic_stops(
    state: SimulationState, every: float, path: str | Path
) -> list[Stop]:
    """Checkpoint stops at every multiple of ``every`` still ahead of ``state``.

    Only multiples strictly between ``state.sim.now`` and the horizon: a
    restored state resumes its cadence at the next multiple, and a multiple
    that lands on the horizon is left out — the run is finished there and
    its observers flushed, so the file would hold a spent simulation.
    """
    if every <= 0:
        raise ConfigurationError(f"checkpoint_every must be positive, got {every}")
    stops = []
    step = math.floor(state.sim.now / every)
    while step * every < state.duration:
        if step * every > state.sim.now:
            stops.append(Stop(step * every, checkpoint=path))
        step += 1
    return stops


def restore_experiment(
    source: SimulationState | str | Path, expect_fingerprint: str | None = None
) -> SimulationState:
    """A checkpointed state, checked against the scenario it is to continue.

    ``source`` is a ``repro-ckpt-v1`` file (the header's fingerprint is
    compared before any pickle byte is read) or an already-loaded state.
    """
    if not isinstance(source, SimulationState):
        return load_checkpoint(source, expect_fingerprint=expect_fingerprint)
    if expect_fingerprint is not None and source.fingerprint != expect_fingerprint:
        raise SnapshotError(
            f"checkpoint fingerprint {source.fingerprint!r} does not match "
            f"this scenario ({expect_fingerprint!r}); refusing a "
            "foreign-scenario restore"
        )
    return source


def execute(
    state: SimulationState, stops: Iterable[Stop], profiler: Any = None
) -> "ExperimentResult | None":
    """Advance ``state`` through ``stops`` in order; the one caller of ``sim.run``.

    ``profiler`` (a :class:`~repro.sim.profiler.SimProfiler`) is installed
    on the simulator first.  At each stop: run to it, finish the observers
    if it is the horizon (post-run telemetry rows, aborted spans dropped),
    flush, checkpoint — in that order, so a flushed segment holds the
    finished rows and a checkpoint holds exactly what has not been flushed.
    Returns the summary once the horizon is reached and ``None`` for a plan
    that ends earlier (its last stop saved the hand-off).
    """
    if profiler is not None:
        state.sim.profiler = profiler
    result = None
    for stop in stops:
        state.sim.run(until=stop.time)
        at_horizon = stop.time >= state.duration
        if at_horizon:
            for observer in state.observers.values():
                observer.finish()
        for name, path in stop.flush.items():
            observer = state.observers.get(name)
            if observer is None:
                raise SnapshotError(
                    f"cannot write {path}: this simulation was built without "
                    f"a {name!r} observer"
                )
            write_jsonl(path, observer.rows)
            # The next stop must record only its own rows; on a hand-off the
            # cleared list rides forward inside the checkpoint.
            observer.rows.clear()
        if stop.checkpoint is not None:
            save_checkpoint(stop.checkpoint, state)
        if at_horizon:
            result = summarise_experiment(state)
    return result


def summarise_experiment(state: SimulationState) -> ExperimentResult:
    """Summarise phase: a pure function of the post-run simulation state."""
    collector = state.collector
    nodes = state.nodes
    block_sizes = [
        size for metrics in collector.per_node for size in metrics.proposed_block_sizes
    ]
    mean_block_size = sum(block_sizes) / len(block_sizes) if block_sizes else 0.0
    adversary_metrics: dict = {}
    if state.adversary is not None and state.adversary.kind != "none":
        adversary_metrics = _adversary_metrics(
            state.adversary, state.placement, nodes, collector
        )
    return ExperimentResult(
        protocol=state.protocol,
        num_nodes=len(nodes),
        duration=state.duration,
        throughputs=collector.throughputs(state.duration, warmup=state.warmup),
        latency_local=collector.latency_summaries(local_only=True),
        latency_all=collector.latency_summaries(local_only=False),
        dispersal_fractions=[stats.dispersal_fraction for stats in state.network.stats],
        timelines=collector.timelines(),
        delivered_epochs=[node.delivered_epoch for node in nodes],
        current_epochs=[node.current_epoch for node in nodes],
        mean_block_size=mean_block_size,
        events_processed=state.sim.processed_events,
        tx_generated=sum(generator.generated for generator in state.generators),
        tx_confirmed_per_node=[
            metrics.confirmed_transactions for metrics in collector.per_node
        ],
        adversary_metrics=adversary_metrics,
    )


def _adversary_metrics(
    adversary: AdversarySpec,
    placement: tuple[int, ...],
    nodes: Sequence[BFTNodeBase],
    collector: MetricsCollector,
) -> dict:
    """Summarise how the cluster fared *against* the placed adversary.

    Everything here derives from virtual time and honest-node ledgers, so
    the values are deterministic and safe for the golden-summary snapshots.
    """
    adversarial = set(placement)
    honest = [node for node in nodes if node.node_id not in adversarial]
    metrics: dict = {
        "adversary_kind": adversary.kind,
        "adversary_nodes": list(placement),
    }
    if adversary.kind == "censor":
        victim = adversary.victim
        latency = collector.per_node[victim].latency_summary(local_only=True)
        delays: list[int] = []
        linked = 0
        for node in honest:
            for entry in node.ledger.entries:
                if entry.proposer != victim:
                    continue
                delays.append(entry.delivered_in_epoch - entry.epoch)
                if entry.via_linking:
                    linked += 1
        metrics.update(
            {
                "victim": victim,
                "victim_commit_p50": None if latency is None else latency.p50,
                "victim_inclusion_delay": (
                    sum(delays) / len(delays) if delays else None
                ),
                "victim_linked_fraction": linked / len(delays) if delays else None,
            }
        )
    if adversary.kind == "equivocate":
        bad_epochs = [
            entry.epoch
            for node in honest
            for entry in node.ledger.entries
            if entry.proposer in adversarial and entry.block.label == "BAD_UPLOADER"
        ]
        metrics.update(
            {
                "equivocation_detected_epoch": min(bad_epochs, default=None),
                "bad_uploader_deliveries": len(bad_epochs),
            }
        )
    return metrics
