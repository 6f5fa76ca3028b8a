"""Structured diffs of telemetry recordings and golden envelopes.

``trace summarise`` reduces a recording to per-node time-weighted statistics;
this module *compares* those reductions, which is what turns the telemetry
layer into a regression gate.  Two shapes of comparison:

* **recording vs recording** (:func:`diff_telemetry`) — the per-node,
  per-series deltas between two JSONL streams, e.g. the same scenario
  before and after a perf refactor;
* **recording vs envelope** (:func:`check_envelope`) — a recording checked
  against a pinned ``repro-envelope-v1`` file (the reduced mean/max of each
  series per node, written by the golden harness under
  ``tests/golden/envelopes/``), the form CI runs on every push.

Both produce the same structured :class:`SeriesDelta` rows.  A delta
breaches when it exceeds ``max(abs_tol, rel_tol * |reference|)`` — an
absolute floor so near-zero series (an idle link's queue) don't trip on
noise-scale wiggles, plus a relative band so deep queues are judged
proportionally.  The summaries themselves are deterministic functions of the
spec, so the tolerances exist to *declare how much intentional drift counts
as a regression*, not to absorb nondeterminism.

The CLI (``python -m repro.experiments trace diff A B``) exits 0 when every
series stays inside tolerance, **1** on any breach, and 2 on usage errors
(missing files, malformed JSONL, mismatched node sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.common.errors import TraceError
from repro.trace.analysis import summarise_telemetry

#: The on-disk format tag of a pinned envelope file.
ENVELOPE_FORMAT = "repro-envelope-v1"

#: The series an envelope pins, and a diff compares, per node.
ENVELOPE_SERIES = ("egress_queue", "ingress_queue", "egress_util", "ingress_util")

#: The statistics compared per series.
ENVELOPE_STATS = ("mean", "max")

#: Default relative tolerance: 5% of the reference value.
DEFAULT_REL_TOL = 0.05

#: Default absolute floors per series — bytes for queue depths (a near-idle
#: link's queue may legitimately wiggle by a packet), fractions for
#: utilisations.
DEFAULT_ABS_TOL: Mapping[str, float] = {
    "egress_queue": 2048.0,
    "ingress_queue": 2048.0,
    "egress_util": 0.01,
    "ingress_util": 0.01,
}


@dataclass(frozen=True)
class SeriesDelta:
    """One compared statistic: a node's series stat against its reference."""

    node: int | str  # node id, or "cluster" for the aggregate row
    series: str
    stat: str
    reference: float
    observed: float
    allowed: float

    @property
    def delta(self) -> float:
        return self.observed - self.reference

    @property
    def breach(self) -> bool:
        return abs(self.delta) > self.allowed

    def as_dict(self) -> dict[str, Any]:
        return {
            "node": self.node,
            "series": self.series,
            "stat": self.stat,
            "reference": self.reference,
            "observed": self.observed,
            "delta": self.delta,
            "allowed": self.allowed,
            "breach": self.breach,
        }


def _node_stats(summary: Mapping[str, Any]) -> dict[int | str, dict[str, dict[str, float]]]:
    """``summarise_telemetry`` output -> ``{node: {series: {stat: value}}}``."""
    stats: dict[int | str, dict[str, dict[str, float]]] = {}
    for node in summary["nodes"]:
        stats[int(node["node"])] = {
            series: {stat: float(node[series][stat]) for stat in ENVELOPE_STATS}
            for series in ENVELOPE_SERIES
            if series in node
        }
    stats["cluster"] = {
        series: {stat: float(summary["cluster"][series][stat]) for stat in ENVELOPE_STATS}
        for series in ENVELOPE_SERIES
        if series in summary["cluster"]
    }
    return stats


def _resolve_abs_tol(
    abs_tol: Mapping[str, float] | float | None,
) -> Mapping[str, float]:
    if abs_tol is None:
        return DEFAULT_ABS_TOL
    if isinstance(abs_tol, (int, float)):
        return {series: float(abs_tol) for series in ENVELOPE_SERIES}
    unknown = sorted(set(abs_tol) - set(ENVELOPE_SERIES))
    if unknown:
        raise TraceError(
            f"unknown absolute-tolerance series {unknown} "
            f"(choose from {', '.join(ENVELOPE_SERIES)})"
        )
    return {**DEFAULT_ABS_TOL, **{k: float(v) for k, v in abs_tol.items()}}


def diff_node_stats(
    reference: Mapping[int | str, Mapping[str, Mapping[str, float]]],
    observed: Mapping[int | str, Mapping[str, Mapping[str, float]]],
    abs_tol: Mapping[str, float] | float | None = None,
    rel_tol: float | None = None,
) -> list[SeriesDelta]:
    """Compare two ``{node: {series: {stat: value}}}`` maps.

    Raises:
        TraceError: when the node sets differ — a diff across different
            clusters is a usage error, not a drift.
    """
    if set(reference) != set(observed):
        missing = sorted(str(n) for n in set(reference) - set(observed))
        extra = sorted(str(n) for n in set(observed) - set(reference))
        raise TraceError(
            f"telemetry node sets differ: missing {missing or 'none'}, "
            f"unexpected {extra or 'none'}"
        )
    floors = _resolve_abs_tol(abs_tol)
    rel = DEFAULT_REL_TOL if rel_tol is None else float(rel_tol)
    if rel < 0:
        raise TraceError(f"relative tolerance must be non-negative, got {rel}")
    deltas: list[SeriesDelta] = []
    for node in sorted(reference, key=str):
        for series, stats in reference[node].items():
            if series not in observed[node]:
                raise TraceError(f"node {node} is missing the {series!r} series")
            for stat, value in stats.items():
                deltas.append(
                    SeriesDelta(
                        node=node,
                        series=series,
                        stat=stat,
                        reference=value,
                        observed=float(observed[node][series][stat]),
                        allowed=max(floors.get(series, 0.0), rel * abs(value)),
                    )
                )
    return deltas


def diff_telemetry(
    reference_rows: Iterable[Mapping[str, Any]],
    observed_rows: Iterable[Mapping[str, Any]],
    abs_tol: Mapping[str, float] | float | None = None,
    rel_tol: float | None = None,
) -> list[SeriesDelta]:
    """Per-node, per-series time-weighted deltas between two recordings."""
    return diff_node_stats(
        _node_stats(summarise_telemetry(reference_rows)),
        _node_stats(summarise_telemetry(observed_rows)),
        abs_tol=abs_tol,
        rel_tol=rel_tol,
    )


# --------------------------------------------------------------------------
# Envelopes


def envelope_from_summary(
    summary: Mapping[str, Any],
    scenario: str | None = None,
    run: Mapping[str, Any] | None = None,
    abs_tol: Mapping[str, float] | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
) -> dict[str, Any]:
    """Reduce a ``summarise_telemetry`` summary to a pinnable envelope.

    The envelope records the per-node (and cluster) mean/max of each series
    together with the tolerances future recordings are held to and the run
    configuration (duration/interval/seed) that reproduces it, so the CI
    gate and the golden harness agree on what "the same run" means.
    """
    stats = _node_stats(summary)
    cluster = stats.pop("cluster")
    payload: dict[str, Any] = {
        "format": ENVELOPE_FORMAT,
        "scenario": scenario,
        "run": dict(run or {}),
        "tolerances": {"rel": rel_tol, "abs": dict(_resolve_abs_tol(abs_tol))},
        "num_nodes": len(stats),
        "nodes": {str(node): series for node, series in sorted(stats.items())},
        "cluster": cluster,
    }
    return payload


def is_envelope(payload: Any) -> bool:
    """True when ``payload`` is a parsed ``repro-envelope-v1`` object."""
    return isinstance(payload, Mapping) and payload.get("format") == ENVELOPE_FORMAT


def _envelope_stats(envelope: Mapping[str, Any]) -> dict[int | str, dict]:
    if not is_envelope(envelope):
        raise TraceError(
            f"not a {ENVELOPE_FORMAT} envelope "
            f"(format = {envelope.get('format') if isinstance(envelope, Mapping) else envelope!r})"
        )
    try:
        stats: dict[int | str, dict] = {
            int(node): series for node, series in envelope["nodes"].items()
        }
        stats["cluster"] = envelope["cluster"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"malformed envelope: {exc!r}") from exc
    return stats


def check_envelope(
    rows: Iterable[Mapping[str, Any]],
    envelope: Mapping[str, Any],
    abs_tol: Mapping[str, float] | float | None = None,
    rel_tol: float | None = None,
) -> list[SeriesDelta]:
    """Check a recording against a pinned envelope.

    Tolerances resolve in priority order: explicit arguments, then the
    envelope's own ``tolerances`` block, then the module defaults.
    """
    tolerances = envelope.get("tolerances", {}) if isinstance(envelope, Mapping) else {}
    if abs_tol is None:
        abs_tol = tolerances.get("abs")
    if rel_tol is None:
        rel_tol = tolerances.get("rel")
    return diff_node_stats(
        _envelope_stats(envelope),
        _node_stats(summarise_telemetry(rows)),
        abs_tol=abs_tol,
        rel_tol=rel_tol,
    )


def breaches(deltas: Iterable[SeriesDelta]) -> list[SeriesDelta]:
    """The subset of deltas outside tolerance."""
    return [delta for delta in deltas if delta.breach]


__all__ = [
    "DEFAULT_ABS_TOL",
    "DEFAULT_REL_TOL",
    "ENVELOPE_FORMAT",
    "ENVELOPE_SERIES",
    "ENVELOPE_STATS",
    "SeriesDelta",
    "breaches",
    "check_envelope",
    "diff_node_stats",
    "diff_telemetry",
    "envelope_from_summary",
    "is_envelope",
]
