"""The measured-bandwidth trace data model.

A :class:`MeasuredTrace` is a set of per-node piecewise-constant bandwidth
breakpoints — ``(time, up_bps, down_bps)`` — of the kind produced by real
measurement campaigns (Pacer-style shaped links, Mahimahi saturator logs,
cloud-provider capacity probes).  The simulator's synthetic bandwidth models
(:mod:`repro.workload.traces`) *generate* shapes; this model *replays*
recorded ones, which is what lets the throughput claims be evaluated under
the bandwidth the paper actually measured.

The model is deliberately plain data: frozen dataclasses over tuples, with
every transform (:meth:`MeasuredTrace.scaled`, :meth:`MeasuredTrace.clipped`,
:meth:`MeasuredTrace.resampled`) returning a new validated trace.
:meth:`MeasuredTrace.bandwidth_traces` is the bridge into the simulator: it
lowers the per-node series to the
:class:`~repro.sim.bandwidth.PiecewiseConstantBandwidth` functions the pipes
integrate.  File parsing and serialisation live in :mod:`repro.trace.io`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.common.errors import TraceError
from repro.sim.bandwidth import PiecewiseConstantBandwidth

#: One breakpoint: ``(time_seconds, up_bytes_per_second, down_bytes_per_second)``.
#: The rate holds from this breakpoint's time until the next one (and the
#: last breakpoint's rate holds forever), exactly like the simulator's
#: piecewise-constant bandwidth functions.
TracePoint = tuple[float, float, float]

#: Replayed rates are floored at this many bytes/second so a measured outage
#: (rate 0) stalls transfers instead of making them literally unfinishable
#: (the pipes reject traces whose trailing rate is zero).
REPLAY_RATE_FLOOR = 1.0


def _validate_points(node: int, points: Sequence[TracePoint]) -> None:
    if not points:
        raise TraceError(f"trace node {node} has no breakpoints")
    previous = -math.inf
    for time, up, down in points:
        for label, value in (("time", time), ("up_bps", up), ("down_bps", down)):
            if not math.isfinite(value):
                raise TraceError(f"trace node {node}: non-finite {label} {value!r}")
        if time < 0:
            raise TraceError(f"trace node {node}: negative time {time}")
        if time <= previous:
            raise TraceError(
                f"trace node {node}: breakpoint times must be strictly "
                f"increasing (got {time} after {previous})"
            )
        if up < 0 or down < 0:
            raise TraceError(f"trace node {node}: negative rate at t={time}")
        previous = time


@dataclass(frozen=True)
class NodeTrace:
    """The measured breakpoints of one node's link (up and down sides)."""

    node: int
    points: tuple[TracePoint, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.node, int) or isinstance(self.node, bool) or self.node < 0:
            raise TraceError(f"node id must be a non-negative integer, got {self.node!r}")
        object.__setattr__(
            self, "points", tuple((float(t), float(u), float(d)) for t, u, d in self.points)
        )
        _validate_points(self.node, self.points)

    def rates_at(self, time: float) -> tuple[float, float]:
        """``(up_bps, down_bps)`` in effect at ``time`` (clamped to the ends)."""
        current = self.points[0]
        for point in self.points:
            if point[0] > time:
                break
            current = point
        return current[1], current[2]


@dataclass(frozen=True)
class MeasuredTrace:
    """A complete measured-bandwidth trace: one breakpoint series per node.

    Node ids must be exactly ``0..num_nodes-1`` — a gap means the file
    references a node it never defines (or vice versa), which is always a
    recording error worth failing on.
    """

    name: str
    nodes: tuple[NodeTrace, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise TraceError(f"trace {self.name!r} defines no nodes")
        ordered = tuple(sorted(self.nodes, key=lambda node: node.node))
        ids = [node.node for node in ordered]
        expected = list(range(len(ordered)))
        if ids != expected:
            unknown = sorted(set(ids) - set(expected))
            missing = sorted(set(expected) - set(ids))
            raise TraceError(
                f"trace {self.name!r} node ids must be contiguous 0..{len(ordered) - 1}: "
                f"unknown ids {unknown}, missing ids {missing}"
            )
        object.__setattr__(self, "nodes", ordered)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_node_rates(
        cls, name: str, per_node: Mapping[int, Iterable[TracePoint]]
    ) -> "MeasuredTrace":
        """Build a trace from ``{node_id: [(time, up_bps, down_bps), ...]}``."""
        nodes = tuple(
            NodeTrace(node=node, points=tuple(points)) for node, points in per_node.items()
        )
        return cls(name=name, nodes=nodes)

    # -- shape -------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def duration(self) -> float:
        """Time of the last breakpoint (the final rates hold beyond it)."""
        return max(node.points[-1][0] for node in self.nodes)

    @property
    def num_points(self) -> int:
        return sum(len(node.points) for node in self.nodes)

    def rates_at(self, node: int, time: float) -> tuple[float, float]:
        """``(up_bps, down_bps)`` of ``node`` at ``time``."""
        return self.nodes[node].rates_at(time)

    # -- transforms --------------------------------------------------------

    def scaled(self, factor: float) -> "MeasuredTrace":
        """Every rate multiplied by ``factor`` (breakpoint times unchanged)."""
        if factor <= 0 or not math.isfinite(factor):
            raise TraceError(f"scale factor must be positive and finite, got {factor}")
        return MeasuredTrace(
            name=self.name,
            nodes=tuple(
                NodeTrace(
                    node=node.node,
                    points=tuple((t, u * factor, d * factor) for t, u, d in node.points),
                )
                for node in self.nodes
            ),
        )

    def clipped(self, start: float, end: float) -> "MeasuredTrace":
        """The window ``[start, end)`` of the trace, re-based to time zero.

        The rates in effect at ``start`` become the new first breakpoint, so
        clipping never changes what a replay inside the window would see.

        ``end`` may reach past :attr:`duration` — the final breakpoint's
        rates hold forever (tail-hold), so the clip keeps everything up to
        the last breakpoint and the result's duration is that breakpoint,
        not ``end``.  A window that *starts* at or past ``duration`` holds
        no measured breakpoints at all (it would be pure extrapolation of
        the final rates), so it raises instead of silently succeeding.
        """
        if start < 0 or end <= start:
            raise TraceError(f"need 0 <= start < end, got [{start}, {end})")
        if start >= self.duration:
            raise TraceError(
                f"clip window [{start:g}, {end:g}) starts at or past the trace's "
                f"last breakpoint (duration {self.duration:g} s); nothing "
                f"measured remains"
            )
        nodes = []
        for node in self.nodes:
            up, down = node.rates_at(start)
            points: list[TracePoint] = [(0.0, up, down)]
            for t, u, d in node.points:
                if start < t < end:
                    points.append((t - start, u, d))
            nodes.append(NodeTrace(node=node.node, points=tuple(points)))
        return MeasuredTrace(name=self.name, nodes=tuple(nodes))

    def resampled(self, step: float) -> "MeasuredTrace":
        """The trace sampled on a regular ``step``-second grid.

        Every node gets breakpoints at ``0, step, 2*step, ...`` through the
        trace's duration, each carrying the rates in effect at that instant.
        The result is lossless (identical rate function) exactly when every
        original breakpoint lands on the grid — e.g. a 1 s-sampled recording
        resampled at 0.5 s; a breakpoint *between* grid points has its rate
        change deferred to the next grid point.

        Resampling never changes :attr:`duration`: when the grid does not
        land exactly on the final breakpoint, the last tick is the exact
        original duration (carrying the final rates) rather than the first
        grid point past it — a 5 s trace resampled at 2 s ends at 5, not 6.
        """
        if step <= 0 or not math.isfinite(step):
            raise TraceError(f"resampling step must be positive and finite, got {step}")
        duration = self.duration
        eps = 1e-9 * max(1.0, duration)
        ticks = [0.0]
        i = 1
        while i * step < duration - eps:
            ticks.append(i * step)
            i += 1
        if duration > 0:
            ticks.append(duration)
        nodes = []
        for node in self.nodes:
            points = []
            for t in ticks:
                up, down = node.rates_at(t)
                points.append((t, up, down))
            nodes.append(NodeTrace(node=node.node, points=tuple(points)))
        return MeasuredTrace(name=self.name, nodes=tuple(nodes))

    # -- the bridge into the simulator -------------------------------------

    def bandwidth_traces(
        self,
        num_nodes: int,
        scale: float = 1.0,
        egress_headroom: float = 1.0,
        floor: float = REPLAY_RATE_FLOOR,
    ) -> tuple[list[PiecewiseConstantBandwidth], list[PiecewiseConstantBandwidth]]:
        """Per-node ``(ingress, egress)`` bandwidth functions for a replay.

        Simulated node ``i`` replays trace node ``i % num_trace_nodes``, so a
        cluster larger than the measurement campaign cycles through the
        recorded links.  ``scale`` multiplies every rate (the trace-scaling
        sweep axis), ``egress_headroom`` additionally scales the up side, and
        ``floor`` clamps rates from below (see :data:`REPLAY_RATE_FLOOR`).
        """
        if num_nodes < 1:
            raise TraceError("need at least one replay node")
        if scale <= 0:
            raise TraceError(f"scale must be positive, got {scale}")
        ingress: list[PiecewiseConstantBandwidth] = []
        egress: list[PiecewiseConstantBandwidth] = []
        for i in range(num_nodes):
            node = self.nodes[i % len(self.nodes)]
            ingress.append(
                PiecewiseConstantBandwidth(
                    [(t, max(floor, d * scale)) for t, _, d in node.points]
                )
            )
            egress.append(
                PiecewiseConstantBandwidth(
                    [(t, max(floor, u * scale * egress_headroom)) for t, u, _ in node.points]
                )
            )
        return ingress, egress

    # -- summaries ---------------------------------------------------------

    def stats(self) -> list[dict]:
        """Per-node descriptive statistics (time-weighted over the duration).

        Each entry carries the node id, breakpoint count, and for both sides
        the time-weighted mean/min/max and standard deviation — what
        ``python -m repro.experiments trace inspect`` prints.
        """
        duration = self.duration
        rows = []
        for node in self.nodes:
            row = {"node": node.node, "points": len(node.points)}
            for side, index in (("up", 1), ("down", 2)):
                rates = [point[index] for point in node.points]
                if duration > 0 and len(node.points) > 1:
                    weights = []
                    for j, point in enumerate(node.points):
                        end = node.points[j + 1][0] if j + 1 < len(node.points) else duration
                        weights.append(max(0.0, end - point[0]))
                    total = sum(weights) or 1.0
                    mean = sum(r * w for r, w in zip(rates, weights)) / total
                    var = sum((r - mean) ** 2 * w for r, w in zip(rates, weights)) / total
                else:
                    mean = rates[0]
                    var = 0.0
                row[f"{side}_mean"] = mean
                row[f"{side}_std"] = var**0.5
                row[f"{side}_min"] = min(rates)
                row[f"{side}_max"] = max(rates)
            rows.append(row)
        return rows


__all__ = ["REPLAY_RATE_FLOOR", "MeasuredTrace", "NodeTrace", "TracePoint"]
