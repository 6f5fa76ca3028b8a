"""Host wall-time attribution for the simulator hot loop.

The event loop in :mod:`repro.sim.events` processes millions of callbacks
per run; when a perf PR asks "where does the time go?", this module is the
answer.  A :class:`SimProfiler` installed on ``Simulator.profiler`` makes
the loop time every callback with ``time.perf_counter()`` and bucket the
elapsed host seconds by **callback kind** — the qualified name of the
function or callable class behind the event, prefixed with whether it
arrived as a regular event or an internal (telemetry-style) callback.

The cost model is deliberately asymmetric: with a profiler installed every
dispatch pays two clock reads plus a name lookup (fine for a profiling
run); with it absent the same loop — there is only one — pays one
``record is None`` test on a local per dispatched callback and never reads
the clock, which the spans bench report
(``benchmarks/bench_spans_report.py``) pins by counting the calls.  Event
budgets (``run(max_events=...)``) are profiled like any other run.

Aggregates serialise as ``repro-profile-v1`` JSON (:meth:`SimProfiler.as_dict`),
which ``trace flame`` can lower to a Chrome trace-event file.
"""

from __future__ import annotations

import functools
from typing import Any, Callable

from repro.common.snapshot import SnapshotState

#: Serialisation format tag for profiler payloads.
PROFILE_FORMAT = "repro-profile-v1"


def callback_kind(callback: Callable[[], None]) -> str:
    """A stable, human-readable bucket name for one scheduled callback."""
    if isinstance(callback, functools.partial):
        target = callback.func
        return getattr(target, "__qualname__", type(target).__qualname__)
    qualname = getattr(callback, "__qualname__", None)
    if qualname is not None:
        return qualname
    return type(callback).__qualname__


class SimProfiler(SnapshotState):
    """Accumulates per-kind event counts and host seconds."""

    _SNAPSHOT_FIELDS = ("counts", "seconds")

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.seconds: dict[str, float] = {}

    def record(self, kind: str, elapsed: float) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.seconds[kind] = self.seconds.get(kind, 0.0) + elapsed

    def as_dict(self) -> dict[str, Any]:
        """The ``repro-profile-v1`` payload: kinds ranked by host seconds."""
        kinds = [
            {"kind": kind, "events": self.counts[kind], "seconds": self.seconds[kind]}
            for kind in sorted(
                self.counts, key=lambda name: (-self.seconds[name], name)
            )
        ]
        return {
            "format": PROFILE_FORMAT,
            "kinds": kinds,
            "total_events": sum(self.counts.values()),
            "total_seconds": sum(self.seconds.values()),
        }


__all__ = ["PROFILE_FORMAT", "SimProfiler", "callback_kind"]
