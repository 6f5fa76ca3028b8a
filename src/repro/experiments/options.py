"""The execution-options surface for the experiment engine.

*What* to simulate lives in :class:`~repro.experiments.scenario.ScenarioSpec`
— including whether and how often a run checkpoints itself; *how* to execute
it lives in :class:`ExecutionOptions`, one frozen, validated dataclass
accepted by :func:`~repro.experiments.engine.run_scenario`,
:func:`~repro.experiments.engine.run_points` and
:func:`~repro.experiments.engine.sweep`, the engine's front doors.  A spec
therefore remains a complete deterministic recipe whose summary is
byte-identical under every execution strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.common.errors import ConfigurationError

__all__ = ["ExecutionOptions"]


@dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a run or sweep (never *what* to simulate).

    Every field is execution strategy only: any combination produces
    summaries byte-identical to the defaults — that invariant is pinned by
    the golden suite and the snapshot property tests.

    Attributes:
        profiler: a :class:`~repro.sim.profiler.SimProfiler` installed on the
            simulator for the run; host-side observability only — virtual
            behaviour is identical with or without it.  It observes runs
            executed in this process (a pool worker would fill a copy).
        checkpoint_path: where the (single, overwritten) periodic checkpoint
            of a spec that asks for one lives (default: a per-point file
            under ``checkpoints/``); writes nothing for a spec that does not.
        resume_from: continue from a checkpoint — a file path or a loaded
            :class:`~repro.sim.snapshot.SimulationState` — instead of
            building a fresh simulation; it must be a checkpoint of the very
            point it resumes (fingerprint-checked).
        parallel: run sweep points across worker processes (the default).
        workers: worker-process count (``None`` = one per point, capped at
            the machine's CPU count).
        resume_dir: sweep crash-resume journal directory (:func:`sweep`).
    """

    profiler: Any | None = None
    checkpoint_path: str | Path | None = None
    resume_from: Any | None = None
    parallel: bool = True
    workers: int | None = None
    resume_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError("workers must be None or >= 1")
