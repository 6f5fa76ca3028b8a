"""The observer table: the one place a row-recording observer is registered.

An observer watches a simulation without changing it.  Its contract with the
experiment layer is ``attach(state)`` (called once by
:func:`~repro.experiments.runner.build_experiment` on the finished
:class:`~repro.sim.snapshot.SimulationState`), ``finish()`` (once, at the
horizon) and ``rows`` (JSON-able dicts, written with
:func:`~repro.trace.recorder.write_jsonl` and cleared at every stop that
flushes it).  It rides ``state.observers[name]`` through checkpoints, so it
must pickle.  Attaching may schedule — telemetry takes a sequence number for
its first sample — so attach order is part of the determinism contract:
:data:`OBSERVERS` lists telemetry before spans and every loop over it keeps
that order.  See ``docs/architecture.md``, "Observers".
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.trace.recorder import TelemetrySpec, TraceRecorder
from repro.trace.spans import SpanRecorder, SpanSpec


class Observer(NamedTuple):
    """One row of :data:`OBSERVERS`."""

    #: ``ScenarioSpec`` field name = ``SimulationState.observers`` key.
    name: str
    #: Class of that spec field; has ``enabled`` and ``out_dir``.
    spec_class: type
    #: ``make(section) -> recorder`` for an enabled spec section.
    make: Callable[[Any], Any]
    #: File suffix of the per-point JSONL.
    suffix: str


OBSERVERS: tuple[Observer, ...] = (
    Observer(
        "telemetry",
        TelemetrySpec,
        lambda section: TraceRecorder(interval=section.interval),
        ".jsonl",
    ),
    Observer("spans", SpanSpec, lambda section: SpanRecorder(), ".spans.jsonl"),
)


def enabled_observers(spec) -> list[Observer]:
    """The rows ``spec`` switches on, in table (= attach) order."""
    return [row for row in OBSERVERS if getattr(spec, row.name).enabled]


__all__ = ["OBSERVERS", "Observer", "enabled_observers"]
