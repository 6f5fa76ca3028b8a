"""Paper figures as reductions of catalog runs (S6, Figs. 2, 8-15).

An experiment of the paper is defined once, as an entry of
:mod:`repro.experiments.catalog`.  A figure is that entry run through
:func:`~repro.experiments.engine.sweep` exactly as defined (a benchmark
script states no window, load or grid of its own) followed by one of the
pure functions below, which turn the
:class:`~repro.experiments.engine.SweepResult` into figure-shaped rows.  No
function here builds a :class:`~repro.experiments.scenario.ScenarioSpec` or
runs a simulation.  A ratio whose denominator is zero (a protocol that
confirmed nothing) raises ``ZeroDivisionError`` rather than being papered
over.

==================  =======================================================
Paper reference      Catalog entry -> reduction
==================  =======================================================
Fig. 2 (S3.2)        ``fig02-vid-cost`` -> :func:`vid_cost_row`,
                     :func:`measure_avid_m_dispersal_cost`, :func:`crossover_n`
Fig. 8 (S6.2)        ``fig08-geo`` -> :func:`throughput_table`,
                     :func:`improvement`
Fig. 9 (S6.2)        ``fig08-geo`` -> :func:`progress_timelines`
Fig. 10 (S6.2)       ``fig10-latency`` -> :func:`latency_series`
Fig. 11a (S6.3)      ``fig11a-spatial`` -> :func:`throughput_table`,
                     :func:`throughput_spread`
Fig. 11b (S6.3)      ``fig11b-temporal`` -> :func:`temporal_drop_table`
Fig. 12/13 (S6.4)    ``fig12-scalability`` -> :func:`model_sweep`,
                     :func:`validate_cost_model`
Fig. 14 (App. A.1)   ``fig10-latency`` -> :func:`latency_metric_table`
Fig. 15 (App. A.2)   ``fig15-vultr`` -> :func:`throughput_table`,
                     :func:`improvement`
Headline (S1)        ``fig08-geo`` + ``fig10-latency`` -> :func:`headline_numbers`
Ablation             ``ablation-linking`` -> :func:`linking_ablation`
==================  =======================================================

Two figures are not simulations and live here whole: the Fig. 2 dispersal
measurement (one real AVID-M dispersal on the instant router, its bytes
counted, beside the byte formulas of :mod:`repro.vid.costs`) and the
Fig. 12/13 sweep over the analytic model of
:mod:`repro.experiments.cost_model`, which reaches the cluster sizes the
message-level simulator cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.common.ids import VIDInstanceId
from repro.common.params import ProtocolParams
from repro.experiments.cost_model import estimate_throughput
from repro.experiments.scenario import ScenarioSpec, apply_overrides
from repro.sim.context import NodeContext
from repro.sim.instant import InstantNetwork
from repro.vid.avid_m import AvidMInstance
from repro.vid.codec import RealCodec
from repro.vid.costs import (
    avid_fp_per_node_cost,
    avid_m_per_node_cost,
    avid_per_node_cost,
    dispersal_lower_bound,
    normalised_cost,
)
from repro.workload.cities import resolve_testbed
from repro.workload.traces import spatial_variation_rates

if TYPE_CHECKING:
    from repro.experiments.engine import ScenarioResult, SweepResult
    from repro.experiments.runner import ExperimentResult


def by_protocol(sweep: SweepResult) -> dict[str, ExperimentResult]:
    """Each protocol's result, in grid order.

    Where a protocol has several points (a load or bandwidth axis) this is
    its last one: the highest load of a ``fig10-latency`` sweep.
    """
    return {point.spec.protocol: point.result for point in sweep.points}


# -- throughput: Fig. 8, 9, 11, 15 and the headline --------------------------


def throughput_table(sweep: SweepResult) -> list[dict[str, Any]]:
    """One row per node: who it is, and its throughput under each protocol.

    A node of a city testbed is named by ``city`` (Fig. 8 / 15); a node
    under spatial bandwidth variation carries its ``capacity`` cap in
    bytes/second (Fig. 11a).  Throughputs are bytes/second, keyed by protocol.
    """
    results = by_protocol(sweep)
    base = sweep.base
    rows: list[dict[str, Any]] = [{"node": node} for node in range(base.num_nodes)]
    if base.topology.kind == "cities":
        for row, city in zip(rows, resolve_testbed(base.topology.testbed)):
            row["city"] = city.name
    elif base.bandwidth.kind == "spatial":
        rates = spatial_variation_rates(
            base.num_nodes, base=base.bandwidth.rate, step=base.bandwidth.step
        )
        for row, rate in zip(rows, rates):
            row["capacity"] = rate
    for protocol, result in results.items():
        for row, throughput in zip(rows, result.throughputs):
            row[protocol] = throughput
    return rows


def improvement(sweep: SweepResult, better: str, worse: str) -> float:
    """Relative mean-throughput improvement of ``better`` over ``worse``."""
    results = by_protocol(sweep)
    return results[better].mean_throughput / results[worse].mean_throughput - 1.0


def progress_timelines(sweep: SweepResult) -> dict[str, list[list[tuple[float, int]]]]:
    """Fig. 9: per-node cumulative confirmed-bytes timelines of each protocol."""
    return {protocol: result.timelines for protocol, result in by_protocol(sweep).items()}


def linking_ablation(sweep: SweepResult) -> dict[str, ExperimentResult]:
    """Each ablation variant's result: ``hb``, ``hb-link``, ``dl-nolink``
    (decoupling without linking) and ``dl`` (both)."""
    return {
        point.spec.protocol + ("" if point.spec.node.linking else "-nolink"): point.result
        for point in sweep.points
    }


def throughput_spread(result: ExperimentResult) -> float:
    """Max/min per-node throughput (Fig. 11a: DL well above 1, HB near 1)."""
    return result.max_throughput / result.min_throughput


def temporal_drop_table(sweep: SweepResult) -> list[dict[str, Any]]:
    """Fig. 11b: per protocol, mean throughput under ``fixed`` and ``varying``
    bandwidth of the same mean, and the ``relative_drop`` the variation costs."""
    means: dict[str, dict[str, float]] = {}
    for point in sweep.points:
        means.setdefault(point.spec.protocol, {})[point.spec.bandwidth.kind] = (
            point.result.mean_throughput
        )
    return [
        {
            "protocol": protocol,
            "fixed": kinds["constant"],
            "varying": kinds["gauss-markov"],
            "relative_drop": 1.0 - kinds["gauss-markov"] / kinds["constant"],
        }
        for protocol, kinds in means.items()
    ]


# -- latency: Fig. 10, 14 ----------------------------------------------------


def latency_series(
    sweep: SweepResult, node: int, quantile: str = "p50", local_only: bool = True
) -> dict[str, list[tuple[float, float | None]]]:
    """Fig. 10: per protocol, ``(offered load, latency quantile)`` at one node.

    ``quantile`` names a :class:`~repro.metrics.stats.Summary` field; a node
    that confirmed no transaction at some load reads ``None`` there.
    """
    series: dict[str, list[tuple[float, float | None]]] = {}
    for point in sweep.points:
        result = point.result
        summary = (result.latency_local if local_only else result.latency_all)[node]
        series.setdefault(point.spec.protocol, []).append(
            (
                point.spec.workload.rate_bytes_per_second,
                None if summary is None else getattr(summary, quantile),
            )
        )
    return series


def latency_metric_table(point: ScenarioResult) -> list[dict[str, float | int | None]]:
    """Fig. 14: per node, local-only vs all-transaction latency (p50 and p95)."""
    result = point.result
    rows = []
    for node in range(result.num_nodes):
        row: dict[str, float | int | None] = {"node": node}
        for label, summary in (
            ("local", result.latency_local[node]),
            ("all", result.latency_all[node]),
        ):
            row[f"{label}_p50"] = None if summary is None else summary.p50
            row[f"{label}_p95"] = None if summary is None else summary.p95
        rows.append(row)
    return rows


# -- headline numbers (S1 / S6.2) --------------------------------------------


@dataclass(frozen=True)
class HeadlineNumbers:
    """The reproduction's counterparts of the paper's headline claims."""

    #: Mean DL throughput / mean HB throughput - 1 (paper: ~1.05, i.e. ~2x).
    dl_over_hb: float
    #: Mean HB-Link throughput / mean HB throughput - 1 (paper: ~0.45).
    linking_over_hb: float
    #: Mean DL throughput / mean HB-Link throughput - 1 (paper: ~0.41).
    dl_over_hb_link: float
    #: 1 - DL-Coupled / DL mean throughput (paper: ~0.12), None if not run.
    coupled_penalty: float | None
    #: 1 - DL median latency / HB median latency at the comparison load
    #: (paper: ~0.74 reduction), None if the latency sweep was not run or a
    #: protocol confirmed no local transaction there.
    latency_reduction: float | None


def headline_numbers(geo: SweepResult, latency: SweepResult | None = None) -> HeadlineNumbers:
    """The headline ratios, from a ``fig08-geo`` and a ``fig10-latency`` sweep.

    The latency comparison is the median local-transaction latency, averaged
    over the nodes that have one, at the highest load of the sweep.
    """
    coupled_penalty = None
    if "dl-coupled" in by_protocol(geo):
        coupled_penalty = -improvement(geo, "dl-coupled", "dl")

    latency_reduction = None
    if latency is not None:
        medians = {
            protocol: [s.p50 for s in result.latency_local if s is not None]
            for protocol, result in by_protocol(latency).items()
        }
        if medians.get("dl") and medians.get("hb"):
            dl_median = sum(medians["dl"]) / len(medians["dl"])
            hb_median = sum(medians["hb"]) / len(medians["hb"])
            latency_reduction = 1.0 - dl_median / hb_median

    return HeadlineNumbers(
        dl_over_hb=improvement(geo, "dl", "hb"),
        linking_over_hb=improvement(geo, "hb-link", "hb"),
        dl_over_hb_link=improvement(geo, "dl", "hb-link"),
        coupled_penalty=coupled_penalty,
        latency_reduction=latency_reduction,
    )


# -- Fig. 2: dispersal cost, modelled and measured ---------------------------


def vid_cost_row(n: int, block_size: int) -> dict[str, float]:
    """Modelled per-node dispersal download, normalised by the block size.

    AVID-M stays close to the ``1/(N - 2f)`` lower bound while AVID-FP's
    cross-checksums grow quadratically with ``N``.
    """
    params = ProtocolParams.for_n(n)
    return {
        "n": n,
        "block_size": block_size,
        "avid_m": normalised_cost(avid_m_per_node_cost(params, block_size), block_size),
        "avid_fp": normalised_cost(avid_fp_per_node_cost(params, block_size), block_size),
        "avid": normalised_cost(avid_per_node_cost(params, block_size), block_size),
        "lower_bound": normalised_cost(dispersal_lower_bound(params, block_size), block_size),
    }


def crossover_n(block_size: int, max_n: int = 200) -> int | None:
    """Smallest N at which AVID-FP's cost exceeds downloading the full block.

    The paper reports this threshold around N = 120 for 1 MB blocks; AVID-M
    has no such threshold in the evaluated range.
    """
    for n in range(4, max_n + 1):
        if avid_fp_per_node_cost(ProtocolParams.for_n(n), block_size) >= block_size:
            return n
    return None


class _ByteCountingRouter:
    """An instant router that also counts bytes received per node."""

    def __init__(self, num_nodes: int):
        self.inner = InstantNetwork(num_nodes)
        self.received_bytes = [0] * num_nodes

    @property
    def num_nodes(self) -> int:
        return self.inner.num_nodes

    @property
    def now(self) -> float:
        return self.inner.now

    def send(self, src, dst, msg, rank: float = 0.0, abort=None) -> None:
        if src != dst:
            self.received_bytes[dst] += msg.wire_size
        self.inner.send(src, dst, msg, rank, abort)

    def schedule(self, delay, callback) -> None:
        self.inner.schedule(delay, callback)


class _InstanceProcess:
    """Adapter routing messages to one AVID-M instance per VID instance id."""

    def __init__(self, instances: dict[VIDInstanceId, AvidMInstance]):
        self._instances = instances

    def start(self) -> None:
        return

    def on_message(self, src, msg) -> None:
        self._instances[msg.instance].handle(src, msg)


def measure_avid_m_dispersal_cost(n: int, block_size: int, num_blocks: int = 1) -> float:
    """Run real AVID-M dispersals; the mean per-node download, normalised.

    Node 0 disperses ``num_blocks`` payloads of ``block_size`` bytes, one VID
    instance each.  The result is normalised by the *total* payload size, so
    it does not depend on ``num_blocks``; it validates the model it is
    plotted against.
    """
    params = ProtocolParams.for_n(n)
    router = _ByteCountingRouter(n)
    codec = RealCodec(params)
    instance_ids = [VIDInstanceId(epoch=1 + s, proposer=0) for s in range(num_blocks)]
    completed: list[VIDInstanceId] = []
    by_node: list[dict[VIDInstanceId, AvidMInstance]] = []
    for node_id in range(n):
        ctx = NodeContext(node_id, router, router)
        instances = {
            instance_id: AvidMInstance(
                params=params,
                instance=instance_id,
                ctx=ctx,
                codec=codec,
                on_complete=completed.append,
                allowed_disperser=0,
            )
            for instance_id in instance_ids
        }
        router.inner.attach(node_id, _InstanceProcess(instances))
        by_node.append(instances)
    payloads = [bytes([s % 256]) * block_size for s in range(num_blocks)]
    for instance_id, payload in zip(instance_ids, payloads):
        by_node[0][instance_id].disperse(payload)
    router.inner.run()
    if len(completed) < n * num_blocks:
        raise RuntimeError("dispersal did not complete at every node")
    return sum(router.received_bytes) / n / (block_size * num_blocks)


# -- Fig. 12 / 13: the analytic model ----------------------------------------


def model_sweep(
    base: ScenarioSpec,
    cluster_sizes: tuple[int, ...] = (16, 32, 64, 128),
    block_sizes: tuple[int, ...] = (500_000, 1_000_000),
) -> list[dict[str, float]]:
    """The cost model over cluster and block sizes, under ``base``'s conditions.

    ``base`` is the ``fig12-scalability`` entry's spec: it supplies the
    per-node bandwidth, the one-way delay and the protocol.  One row per
    (block size, N): steady-state ``throughput`` in bytes/second (Fig. 12)
    and ``dispersal_fraction`` of a node's traffic (Fig. 13).
    """
    return [
        _model_row(
            apply_overrides(
                base, {"topology.num_nodes": n, "node.max_block_size": block_size}
            )
        )
        for block_size in block_sizes
        for n in cluster_sizes
    ]


def _model_row(spec: ScenarioSpec) -> dict[str, float]:
    estimate = estimate_throughput(
        spec.params(),
        spec.node.max_block_size,
        spec.bandwidth.rate,
        one_way_delay=spec.topology.delay,
        protocol=spec.protocol,
    )
    return {
        "n": estimate.n,
        "block_size": estimate.block_size,
        "throughput": estimate.throughput,
        "dispersal_fraction": estimate.dispersal_fraction,
    }


def validate_cost_model(point: ScenarioResult) -> dict[str, float]:
    """Model vs simulation at one ``fig12-scalability`` point.

    The model is a steady-state ceiling, so ``throughput_ratio`` (simulated /
    modelled) of a run that includes the ramp-up lands below 1.
    """
    modelled = _model_row(point.spec)
    simulated = point.summary()
    return {
        "n": modelled["n"],
        "block_size": modelled["block_size"],
        "simulated_throughput": simulated["mean_throughput"],
        "modelled_throughput": modelled["throughput"],
        "simulated_fraction": simulated["dispersal_fraction"],
        "modelled_fraction": modelled["dispersal_fraction"],
        "throughput_ratio": simulated["mean_throughput"] / modelled["throughput"],
    }
