"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a complete, serialisable description of one
simulated run: protocol, cluster size, topology, per-node bandwidth model,
adversary placement, workload and duration.  Specs round-trip through plain
dicts (and therefore JSON), so scenarios can live in files, be diffed, and
be expanded into parameter grids by :func:`expand_grid` for the sweep engine
(:mod:`repro.experiments.engine`).

Every axis resolves through a registry — protocols
(:data:`repro.experiments.runner.PROTOCOLS`), workloads
(:data:`repro.experiments.runner.WORKLOADS`), adversaries
(:data:`repro.adversary.registry.ADVERSARIES`), bandwidth models
(:data:`BANDWIDTH_MODELS`) and city testbeds
(:data:`repro.workload.cities.TESTBEDS`) — so new automata, load shapes and
network conditions plug in without touching the engine.

The single place a simulated WAN is constructed from a spec is
:func:`build_network_config`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Iterable, Mapping

from repro.adversary.registry import AdversarySpec
from repro.common.errors import ConfigurationError
from repro.common.params import ProtocolParams
from repro.core.config import NodeConfig
from repro.experiments.runner import PROTOCOLS, WorkloadSpec
from repro.sim.bandwidth import BandwidthTrace, ConstantBandwidth
from repro.sim.network import NetworkConfig
from repro.trace.observers import OBSERVERS, SpanSpec, enabled_observers
from repro.trace.recorder import TelemetrySpec
from repro.workload.traces import (
    MB,
    flapping_traces,
    gauss_markov_traces,
    spatial_variation_rates,
    straggler_rates,
)

#: How much larger a city's upload capacity is than its (binding) download
#: capacity.  The paper's geo nodes sit on fat datacenter uplinks and are
#: constrained by what each site can *pull* across the internet, so the
#: profile's ``mean_bandwidth`` models the download side and the serving side
#: gets proportional headroom (see docs/architecture.md, Substitutions).
DEFAULT_EGRESS_HEADROOM = 2.0


@dataclass(frozen=True)
class TopologySpec:
    """Cluster size and link delays.

    Attributes:
        kind: ``"uniform"`` (``num_nodes`` nodes, one common one-way delay,
            bandwidth from the spec's :class:`BandwidthSpec`) or ``"cities"``
            (a registered city testbed supplying node count, pairwise delays
            *and* per-node Gauss-Markov bandwidth).
        num_nodes: cluster size (uniform topologies; city topologies take it
            from the testbed).
        delay: one-way propagation delay in seconds (uniform topologies).
        testbed: registered testbed name (``"aws"``, ``"vultr"``, or anything
            added via :func:`repro.workload.cities.register_testbed`).
        fluctuate: sample Gauss-Markov fluctuation around each city's mean
            (city topologies).
        egress_headroom: upload-capacity multiple of the (binding) download
            capacity for city topologies (:data:`DEFAULT_EGRESS_HEADROOM`).

    A uniform topology with ``"unlimited"`` bandwidth builds an express
    network (:class:`~repro.sim.network.Network`): one fan-out event per
    broadcast, for protocol-logic scalability runs at large N.
    """

    kind: str = "uniform"
    num_nodes: int = 4
    delay: float = 0.1
    testbed: str = "aws"
    fluctuate: bool = True
    egress_headroom: float = DEFAULT_EGRESS_HEADROOM

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "cities"):
            raise ConfigurationError(f"unknown topology kind {self.kind!r}")
        if self.kind == "uniform" and self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be positive")
        if self.delay < 0:
            raise ConfigurationError("delay must be non-negative")

    def resolved_num_nodes(self) -> int:
        if self.kind == "cities":
            from repro.workload.cities import resolve_testbed

            return len(resolve_testbed(self.testbed))
        return self.num_nodes


@dataclass(frozen=True)
class BandwidthSpec:
    """Per-node bandwidth model for uniform topologies.

    ``kind`` names an entry of :data:`BANDWIDTH_MODELS`:

    * ``"unlimited"`` — no bandwidth limits (protocol-logic scalability
      runs; the network is then express);
    * ``"constant"`` — every node capped at ``rate``;
    * ``"spatial"`` — node ``i`` capped at ``rate + step * i`` (Fig. 11a);
    * ``"gauss-markov"`` — independent Gauss-Markov fluctuation with mean
      ``rate``, deviation ``sigma`` and correlation ``alpha`` (Fig. 11b);
    * ``"flapping"`` — the last ``count`` nodes cycle between ``rate`` and
      ``degraded_rate`` (``degraded_for`` out of every ``period`` seconds,
      staggered), the bandwidth-churn regime of Fig. 1;
    * ``"straggler"`` — the last ``count`` nodes permanently capped at
      ``degraded_rate``, a heavy-tailed heterogeneous cluster;
    * ``"trace-replay"`` — every node replays a **measured** trace file
      (``trace_path``, CSV or JSON breakpoints of per-node up/down rates —
      see :mod:`repro.trace`), with every rate multiplied by
      ``trace_scale``.  Simulated node ``i`` replays trace node
      ``i % trace_nodes``, so any cluster size can replay any recording.

    ``egress_headroom`` scales the upload side relative to the download caps
    (1.0 = symmetric links, as in the scalability experiments; the
    controlled Fig. 11 experiments use 2.0, see docs/architecture.md,
    Substitutions).  For trace
    replay the measured up rates already encode the asymmetry, so the
    headroom usually stays 1.0.
    """

    kind: str = "constant"
    rate: float = 10 * MB
    step: float = 0.5 * MB
    sigma: float = 5 * MB
    alpha: float = 0.98
    degraded_rate: float = 1 * MB
    period: float = 12.0
    degraded_for: float = 4.0
    count: int = 0
    egress_headroom: float = 1.0
    trace_path: str | None = None
    trace_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in BANDWIDTH_MODELS:
            raise ConfigurationError(
                f"unknown bandwidth kind {self.kind!r}; registered: {sorted(BANDWIDTH_MODELS)}"
            )
        if self.egress_headroom <= 0:
            raise ConfigurationError("egress_headroom must be positive")
        if self.count < 0:
            raise ConfigurationError("count must be non-negative")
        if self.trace_scale <= 0:
            raise ConfigurationError("trace_scale must be positive")
        if self.kind == "trace-replay" and not self.trace_path:
            raise ConfigurationError("trace-replay bandwidth needs a trace_path")


#: ``builder(spec, num_nodes, duration, seed) -> (ingress, egress)`` — the
#: per-node download and upload traces for a uniform topology.
TraceLists = tuple[list[BandwidthTrace | None], list[BandwidthTrace | None]]
BandwidthModel = Callable[[BandwidthSpec, int, float, int], TraceLists]

BANDWIDTH_MODELS: dict[str, BandwidthModel] = {}


def register_bandwidth_model(kind: str, builder: BandwidthModel) -> None:
    """Register a bandwidth model under ``kind`` for use in specs."""
    BANDWIDTH_MODELS[kind] = builder


def _bw_unlimited(spec: BandwidthSpec, n: int, duration: float, seed: int) -> TraceLists:
    return [None] * n, [None] * n


def _bw_constant(spec: BandwidthSpec, n: int, duration: float, seed: int) -> TraceLists:
    ingress = [ConstantBandwidth(spec.rate) for _ in range(n)]
    egress = [ConstantBandwidth(spec.rate * spec.egress_headroom) for _ in range(n)]
    return ingress, egress


def _bw_spatial(spec: BandwidthSpec, n: int, duration: float, seed: int) -> TraceLists:
    rates = spatial_variation_rates(n, base=spec.rate, step=spec.step)
    ingress = [ConstantBandwidth(rate) for rate in rates]
    egress = [ConstantBandwidth(rate * spec.egress_headroom) for rate in rates]
    return ingress, egress


def _bw_gauss_markov(spec: BandwidthSpec, n: int, duration: float, seed: int) -> TraceLists:
    # Seed split matches the pre-engine controlled.py: egress uses ``seed``,
    # ingress ``seed + 1``, so refactored figure runs reproduce bit-for-bit.
    egress = list(
        gauss_markov_traces(
            n,
            duration,
            mean=spec.rate * spec.egress_headroom,
            sigma=spec.sigma * spec.egress_headroom,
            alpha=spec.alpha,
            seed=seed,
        )
    )
    ingress = list(
        gauss_markov_traces(
            n, duration, mean=spec.rate, sigma=spec.sigma, alpha=spec.alpha, seed=seed + 1
        )
    )
    return ingress, egress


def _bw_flapping(spec: BandwidthSpec, n: int, duration: float, seed: int) -> TraceLists:
    def build() -> list[BandwidthTrace]:
        return list(
            flapping_traces(
                n,
                spec.count,
                duration,
                healthy=spec.rate,
                degraded=spec.degraded_rate,
                period=spec.period,
                degraded_for=spec.degraded_for,
            )
        )

    ingress = build()
    if spec.egress_headroom == 1.0:
        return ingress, build()
    egress: list[BandwidthTrace | None] = [
        ConstantBandwidth(spec.rate * spec.egress_headroom)
        for _ in range(n - spec.count)
    ] + list(
        flapping_traces(
            spec.count,
            spec.count,
            duration,
            healthy=spec.rate * spec.egress_headroom,
            degraded=spec.degraded_rate * spec.egress_headroom,
            period=spec.period,
            degraded_for=spec.degraded_for,
        )
    )
    return ingress, egress


def _bw_straggler(spec: BandwidthSpec, n: int, duration: float, seed: int) -> TraceLists:
    rates = straggler_rates(n, spec.count, fast=spec.rate, slow=spec.degraded_rate)
    ingress = [ConstantBandwidth(rate) for rate in rates]
    egress = [ConstantBandwidth(rate * spec.egress_headroom) for rate in rates]
    return ingress, egress


def _bw_trace_replay(spec: BandwidthSpec, n: int, duration: float, seed: int) -> TraceLists:
    from repro.trace.io import load_trace_cached

    # The file is loaded through an LRU cache, so a sweep over seeds or
    # trace_scale parses and validates it exactly once per process.
    trace = load_trace_cached(spec.trace_path)
    ingress, egress = trace.bandwidth_traces(
        n, scale=spec.trace_scale, egress_headroom=spec.egress_headroom
    )
    return list(ingress), list(egress)


register_bandwidth_model("unlimited", _bw_unlimited)
register_bandwidth_model("constant", _bw_constant)
register_bandwidth_model("spatial", _bw_spatial)
register_bandwidth_model("gauss-markov", _bw_gauss_markov)
register_bandwidth_model("flapping", _bw_flapping)
register_bandwidth_model("straggler", _bw_straggler)
register_bandwidth_model("trace-replay", _bw_trace_replay)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, declarative description of one simulated run.

    Attributes:
        name: label carried into results and reports.
        kind: ``"sim"`` (a timed protocol run) or ``"vid-cost"`` (the Fig. 2
            dispersal-cost measurement, which runs on the instant router and
            produces cost rows instead of throughput).
        protocol: registered protocol name (``sim`` kind).
        topology: cluster shape and delays.
        bandwidth: per-node bandwidth model (uniform topologies only; city
            topologies carry their own bandwidth profiles).
        adversary: Byzantine placement (default: none).
        workload: offered client load.
        node: per-node behaviour knobs (block-size caps, Nagle parameters,
            data plane), embedded verbatim as a :class:`NodeConfig`.
        telemetry: opt-in per-run time-series recording
            (:class:`~repro.trace.recorder.TelemetrySpec`); summaries are
            bit-identical whether it is on or off.
        spans: opt-in causal span recording
            (:class:`~repro.trace.observers.SpanSpec`); summaries are
            bit-identical whether it is on or off.
        duration: virtual seconds to simulate.
        warmup: virtual seconds excluded from throughput denominators;
            ``None`` means a quarter of ``duration``.
        seed: master seed; workload generators and bandwidth fluctuation
            derive their per-node seeds from it, so a spec is a complete
            recipe for a deterministic run.
        f: Byzantine-tolerance parameter override (``None`` = maximum
            ``f = (n - 1) // 3``).
        block_size: dispersed block size (``vid-cost`` kind only).
        checkpoint_every: opt-in periodic checkpointing interval in virtual
            seconds (``sim`` kind only); summaries are bit-identical whether
            it is on or off.
    """

    name: str = "custom"
    kind: str = "sim"
    protocol: str = "dl"
    topology: TopologySpec = field(default_factory=TopologySpec)
    bandwidth: BandwidthSpec = field(default_factory=BandwidthSpec)
    adversary: AdversarySpec = field(default_factory=AdversarySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    node: NodeConfig = field(default_factory=NodeConfig)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    spans: SpanSpec = field(default_factory=SpanSpec)
    duration: float = 30.0
    warmup: float | None = None
    seed: int = 0
    f: int | None = None
    #: Stop proposing new blocks after this many epochs (``None`` = propose
    #: for the whole run).  Bounded-work scenarios (the million-transaction
    #: columnar benchmarks) pin the committed transaction count with this.
    max_epochs: int | None = None
    block_size: int = 500_000
    #: Write a ``repro-ckpt-v1`` checkpoint every this many virtual seconds
    #: (``None`` = no periodic checkpointing).  Summaries are bit-identical
    #: whether it is on or off.
    checkpoint_every: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("sim", "vid-cost"):
            raise ConfigurationError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "sim" and self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; registered: {sorted(PROTOCOLS)}"
            )
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.warmup is not None and not 0 <= self.warmup < self.duration:
            raise ConfigurationError("warmup must be in [0, duration)")
        if self.block_size <= 0:
            raise ConfigurationError("block_size must be positive")
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ConfigurationError("max_epochs must be None or >= 1")
        for row in enabled_observers(self):
            if self.kind != "sim":
                # Analytic kinds never build a simulator, so there is nothing
                # to observe; fail at spec construction rather than silently
                # recording nothing.
                raise ConfigurationError(
                    f"{row.name} recording requires a sim scenario, not kind {self.kind!r}"
                )
        if self.checkpoint_every is not None:
            if self.kind != "sim":
                # Analytic kinds never build a simulator, so there is no
                # event-loop state to snapshot.
                raise ConfigurationError(
                    f"checkpointing requires a sim scenario, not kind {self.kind!r}"
                )
            if self.checkpoint_every <= 0:
                raise ConfigurationError("checkpoint_every must be None or positive")

    @property
    def num_nodes(self) -> int:
        return self.topology.resolved_num_nodes()

    def params(self) -> ProtocolParams:
        n = self.num_nodes
        if self.f is None:
            return ProtocolParams.for_n(n)
        return ProtocolParams(n=n, f=self.f)

    def effective_warmup(self) -> float:
        if self.warmup is not None:
            return self.warmup
        return self.duration * 0.25

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain-dict form that :meth:`from_dict` restores exactly."""
        return asdict(self)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from a (possibly partial) plain dict.

        Missing keys take their defaults; unknown keys raise ``TypeError`` so
        typos in scenario files fail loudly.
        """
        payload = dict(data)
        nested: dict[str, Any] = {}
        for key, spec_cls in (
            ("topology", TopologySpec),
            ("bandwidth", BandwidthSpec),
            ("adversary", AdversarySpec),
            ("workload", WorkloadSpec),
            ("node", NodeConfig),
            *((row.name, row.spec_class) for row in OBSERVERS),
        ):
            value = payload.pop(key, None)
            if value is None:
                continue
            if isinstance(value, spec_cls):
                nested[key] = value
            else:
                value = dict(value)
                if key == "adversary" and value.get("nodes") is not None:
                    value["nodes"] = tuple(value["nodes"])
                nested[key] = spec_cls(**value)
        return cls(**payload, **nested)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


def canonical_json(payload: Any) -> str:
    """The byte-stable serialisation golden files and summary digests use."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def build_network_config(spec: ScenarioSpec) -> NetworkConfig:
    """The one place a spec's simulated WAN is constructed."""
    topology = spec.topology
    if topology.kind == "cities":
        from repro.workload.cities import city_network_config, resolve_testbed

        return city_network_config(
            resolve_testbed(topology.testbed),
            spec.duration,
            seed=spec.seed,
            fluctuate=topology.fluctuate,
            egress_headroom=topology.egress_headroom,
        )
    builder = BANDWIDTH_MODELS[spec.bandwidth.kind]
    ingress, egress = builder(spec.bandwidth, topology.num_nodes, spec.duration, spec.seed)
    return NetworkConfig(
        num_nodes=topology.num_nodes,
        propagation_delay=topology.delay,
        egress_traces=egress,
        ingress_traces=ingress,
    )


# -- parameter grids -------------------------------------------------------

#: One grid axis: either ``"dotted.field.path" -> values`` where each value
#: is substituted at that path, or ``"any-label" -> dict-values`` where each
#: value is a mapping of dotted paths applied together (for axes that must
#: move several fields in lockstep, e.g. ``max_block_size`` + ``nagle_size``).
Grid = Mapping[str, Iterable[Any]]


def apply_override(spec: ScenarioSpec, path: str, value: Any) -> ScenarioSpec:
    """Return a copy of ``spec`` with the dotted ``path`` replaced by ``value``.

    ``apply_override(spec, "workload.rate_bytes_per_second", 2e6)`` rebuilds
    the nested frozen dataclasses along the path.
    """
    head, _, rest = path.partition(".")
    valid = {f.name for f in fields(spec)}
    if head not in valid:
        raise ConfigurationError(f"unknown scenario field {head!r} in override {path!r}")
    if not rest:
        return replace(spec, **{head: value})
    inner = getattr(spec, head)
    return replace(spec, **{head: apply_override(inner, rest, value)})


def apply_overrides(spec: ScenarioSpec, overrides: Mapping[str, Any]) -> ScenarioSpec:
    """Apply several dotted-path overrides to ``spec``."""
    for path, value in overrides.items():
        spec = apply_override(spec, path, value)
    return spec


def expand_grid(base: ScenarioSpec, grid: Grid | None) -> list[tuple[dict[str, Any], ScenarioSpec]]:
    """Expand ``base`` over the cartesian product of a parameter grid.

    Returns ``(point_overrides, spec)`` pairs in deterministic order (axes in
    the grid's insertion order, values in their given order).  The number of
    points is the product of the axis lengths; an empty or ``None`` grid
    yields the single base spec.
    """
    if not grid:
        return [({}, base)]
    axes = [(key, list(values)) for key, values in grid.items()]
    for key, values in axes:
        if not values:
            raise ConfigurationError(f"grid axis {key!r} has no values")
    points: list[tuple[dict[str, Any], ScenarioSpec]] = []
    for combo in itertools.product(*(values for _, values in axes)):
        overrides: dict[str, Any] = {}
        for (key, _), value in zip(axes, combo):
            if isinstance(value, Mapping):
                overrides.update(value)
            else:
                overrides[key] = value
        points.append((overrides, apply_overrides(base, overrides)))
    return points


def describe_overrides(overrides: Mapping[str, Any]) -> str:
    """A compact ``key=value`` label for one grid point."""
    if not overrides:
        return "base"
    return ",".join(f"{key.rsplit('.', 1)[-1]}={value}" for key, value in overrides.items())
