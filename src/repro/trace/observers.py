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

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.common.errors import ConfigurationError
from repro.trace.recorder import TelemetrySpec, TraceRecorder


@dataclass(frozen=True)
class SpanSpec:
    """Per-spec switch for span recording (sibling of ``TelemetrySpec``).

    It lives here rather than beside :class:`~repro.trace.spans.SpanRecorder`
    so that a spec can name it without loading the recorder and its
    reductions; the ``spans`` row below imports the recorder only to build one.

    Attributes:
        enabled: record spans for this run.
        out_dir: directory the span JSONL is written into.
    """

    enabled: bool = False
    out_dir: str = "spans"

    def __post_init__(self) -> None:
        if not self.out_dir:
            raise ConfigurationError("span out_dir must be a non-empty path")


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


def _span_recorder(section: SpanSpec):
    from repro.trace.spans import SpanRecorder

    return SpanRecorder()


OBSERVERS: tuple[Observer, ...] = (
    Observer(
        "telemetry",
        TelemetrySpec,
        lambda section: TraceRecorder(interval=section.interval),
        ".jsonl",
    ),
    Observer("spans", SpanSpec, _span_recorder, ".spans.jsonl"),
)


def enabled_observers(spec) -> list[Observer]:
    """The rows ``spec`` switches on, in table (= attach) order."""
    return [row for row in OBSERVERS if getattr(spec, row.name).enabled]


__all__ = ["OBSERVERS", "Observer", "SpanSpec", "enabled_observers"]
