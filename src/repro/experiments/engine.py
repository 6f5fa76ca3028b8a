"""The scenario engine: a point is one task, run through its stops.

:func:`run_points` is the only execution path.  Each point is one task
(:func:`_run_point`): build the point's simulation (:func:`build_scenario`)
or restore it from ``options.resume_from`` (fingerprint-checked), then hand
it to :func:`~repro.experiments.runner.execute` with its stops — the
periodic checkpoints of a spec that sets ``checkpoint_every``, then the
horizon, which flushes every observer straight to its per-point file
(:func:`point_filename`).  :func:`_run_tasks` runs the points in this
process or maps them over the one process pool.  :func:`run_scenario` is a
one-point :func:`run_points`; :func:`sweep` expands a grid, drops the
points a resume journal already holds, and journals the rest as they
complete.  Those two are the public ways to run a simulation: a run is a
:class:`ScenarioSpec`.

Each point is a pure function of its spec (all randomness is seeded from
it), so serial, pooled, checkpointed and resumed execution produce
bit-identical summaries and observer files.  Wall-clock time is recorded per
point and per sweep for the CLI to print; host performance is measured by the
ledger (``benchmarks/ledger/``), not here.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.common.errors import SnapshotError, WorkerDiedError
from repro.experiments import runner
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import ExperimentResult, Stop, _experiment_fingerprint
from repro.experiments.scenario import (
    Grid,
    ScenarioSpec,
    build_network_config,
    describe_overrides,
    expand_grid,
)
from repro.sim.snapshot import (
    KIND_SWEEP_POINT,
    SimulationState,
    read_snapshot_file,
    write_snapshot_file,
)
from repro.trace.observers import enabled_observers


@dataclass
class ScenarioResult:
    """One scenario point: the spec that produced it, and what it measured.

    ``result`` holds the full per-node :class:`ExperimentResult` for ``sim``
    scenarios and is ``None`` for analytic kinds, whose numbers live in
    ``extra``.  :meth:`summary` flattens either into one dict with stable
    keys, the unified schema every report and sweep table is built from.
    ``wall_clock_seconds`` is real time, not virtual time, and is therefore
    excluded from :meth:`summary` so summaries are deterministic.
    ``telemetry_path`` names the JSONL time-series written for this point
    when the spec opted into telemetry recording (``None`` otherwise); it is
    likewise excluded from :meth:`summary`, whose bytes are pinned by the
    golden suite regardless of recording.  ``span_path`` is the same for the
    causal span log (``spec.spans.enabled``).
    """

    spec: ScenarioSpec
    overrides: dict[str, Any] = field(default_factory=dict)
    result: ExperimentResult | None = None
    extra: dict[str, Any] = field(default_factory=dict)
    wall_clock_seconds: float = 0.0
    telemetry_path: str | None = None
    span_path: str | None = None

    @property
    def label(self) -> str:
        return describe_overrides(self.overrides)

    def summary(self) -> dict[str, Any]:
        base: dict[str, Any] = {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "label": self.label,
            "seed": self.spec.seed,
        }
        if self.result is None:
            base.update(self.extra)
            return base
        result = self.result
        latency_medians = [s.p50 for s in result.latency_local if s is not None]
        # Liveness is judged at the honest nodes; a crashed node's frontier
        # is pinned at 0 by construction and would mask real stalls.
        adversarial = set(self.spec.adversary.placement(result.num_nodes))
        honest_delivered = [
            epoch
            for node_id, epoch in enumerate(result.delivered_epochs)
            if node_id not in adversarial
        ]
        base.update(
            {
                "protocol": result.protocol,
                "num_nodes": result.num_nodes,
                "duration": result.duration,
                "mean_throughput": result.mean_throughput,
                "min_throughput": result.min_throughput,
                "max_throughput": result.max_throughput,
                "mean_p50_latency": (
                    sum(latency_medians) / len(latency_medians) if latency_medians else None
                ),
                "dispersal_fraction": (
                    sum(result.dispersal_fractions) / len(result.dispersal_fractions)
                    if result.dispersal_fractions
                    else 0.0
                ),
                "mean_block_size": result.mean_block_size,
                "delivered_epochs": min(honest_delivered, default=0),
                "events_processed": result.events_processed,
            }
        )
        # Adversary-facing metrics (see ExperimentResult.adversary_metrics)
        # join the flat schema so fault sweeps can put them in table columns.
        base.update(result.adversary_metrics)
        return base


def point_filename(
    spec: ScenarioSpec, overrides: Mapping[str, Any] | None, suffix: str
) -> str:
    """A per-point file name: scenario, grid label, seed, then ``suffix``.

    Every component a sweep varies is either in the label (grid overrides)
    or the seed, so parallel points never collide on a file.
    """
    label = describe_overrides(dict(overrides or {}))
    safe_label = re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-") or "base"
    return f"{spec.name}-{safe_label}-seed{spec.seed}{suffix}"


#: Default directory for spec-driven checkpoints when no explicit path is given.
DEFAULT_CHECKPOINT_DIR = "checkpoints"


def experiment_args(spec: ScenarioSpec) -> dict[str, Any]:
    """The one expansion of a spec into the runner's scenario arguments.

    What :func:`~repro.experiments.runner.build_experiment` builds from and
    what a checkpoint's fingerprint digests are the same ten values, so both
    read them from here.
    """
    return {
        "protocol": spec.protocol,
        "network_config": build_network_config(spec),
        "duration": spec.duration,
        "workload": spec.workload,
        "node_config": spec.node,
        "params": spec.params(),
        "seed": spec.seed,
        "warmup": spec.effective_warmup(),
        "adversary": spec.adversary,
        "max_epochs": spec.max_epochs,
    }


def spec_fingerprint(spec: ScenarioSpec) -> str:
    """The fingerprint a checkpoint of ``spec`` carries in its header."""
    return _experiment_fingerprint(**experiment_args(spec))


def build_scenario(
    spec: ScenarioSpec, overrides: Mapping[str, Any] | None = None
) -> SimulationState:
    """The ready-to-run simulation of one ``sim`` point, observers attached.

    Its metadata carries the spec and overrides, so a checkpoint of it can
    be resumed as the scenario it is.  ``build_experiment`` is looked up in
    the runner module at call time: the performance ledger wraps it there.
    """
    return runner.build_experiment(
        **experiment_args(spec),
        observers={
            row.name: row.make(getattr(spec, row.name))
            for row in enabled_observers(spec)
        },
        meta={"spec": spec.to_dict(), "overrides": dict(overrides or {})},
    )


def _observer_paths(spec: ScenarioSpec, overrides: Mapping[str, Any]) -> dict[str, str]:
    """Observer name -> the one file its rows are written to for this point."""
    return {
        row.name: str(
            Path(getattr(spec, row.name).out_dir) / point_filename(spec, overrides, row.suffix)
        )
        for row in enabled_observers(spec)
    }


def _run_vid_cost(spec: ScenarioSpec) -> dict[str, Any]:
    """The Fig. 2 point: modelled dispersal costs plus a measured AVID-M run."""
    from repro.experiments.figures import measure_avid_m_dispersal_cost, vid_cost_row

    n, block_size = spec.num_nodes, spec.block_size
    return {
        **vid_cost_row(n, block_size),
        "measured_avid_m": measure_avid_m_dispersal_cost(n, block_size),
    }


def _run_point(
    overrides: dict[str, Any], spec: ScenarioSpec, options: ExecutionOptions
) -> tuple[ExperimentResult | None, dict[str, Any], float]:
    """Run one point (in this process or a pool worker); ``(result, extra, wall seconds)``.

    A ``sim`` point is built, or restored from ``options.resume_from``, and
    executed through its periodic checkpoint stops and one horizon stop.
    """
    started = time.perf_counter()
    if spec.kind != "sim":
        return None, _run_vid_cost(spec), time.perf_counter() - started
    if options.resume_from is None:
        state = build_scenario(spec, overrides)
    else:
        state = runner.restore_experiment(options.resume_from, spec_fingerprint(spec))
    stops = []
    if spec.checkpoint_every is not None:
        path = options.checkpoint_path or Path(DEFAULT_CHECKPOINT_DIR) / point_filename(
            spec, overrides, ".ckpt"
        )
        stops = runner.periodic_stops(state, spec.checkpoint_every, path)
    stops.append(Stop(spec.duration, flush=_observer_paths(spec, overrides)))
    result = runner.execute(state, stops, options.profiler)
    # The run held the collector off and its graph has cycles (each pipe
    # keeps its own bound drain): free it before the next point builds.
    del state
    gc.collect()
    return result, {}, time.perf_counter() - started


def _run_tasks(
    points: list[tuple[dict[str, Any], ScenarioSpec]],
    options: ExecutionOptions,
    workers: int,
    on_done: Callable[[int, tuple], None],
) -> None:
    """Run every point, in this process (``workers <= 1``) or on the one pool.

    ``on_done(index, outcome)`` is called here as each point completes.  A
    worker that dies takes the pool with it; that surfaces as
    :class:`WorkerDiedError` naming the points that were in flight.
    """
    if workers <= 1:
        for index, (overrides, spec) in enumerate(points):
            on_done(index, _run_point(overrides, spec, options))
        return
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    running: dict[Any, int] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            for index, (overrides, spec) in enumerate(points):
                running[pool.submit(_run_point, overrides, spec, options)] = index
            while running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                # Results before failures: a point that completed is reported
                # (and journalled) even if the pool broke in the same wake-up.
                for future in sorted(done, key=lambda f: f.exception() is not None):
                    on_done(running[future], future.result())
                    del running[future]
        except BrokenProcessPool:
            in_flight = sorted({describe_overrides(points[index][0]) for index in running.values()})
            raise WorkerDiedError(
                "a worker process died while running point(s) "
                f"{', '.join(in_flight)}; points completed before that are kept "
                "(with a resume journal, re-running executes only the rest)"
            ) from None


# -- sweep crash-resume ----------------------------------------------------


def _point_fingerprint(
    base: ScenarioSpec, grid_values: dict[str, list[Any]], index: int, overrides: dict[str, Any]
) -> str:
    """A digest tying one sweep point to its base spec, grid and position.

    Stored in each per-point result file so a resumed sweep only accepts
    results produced by the *same* sweep: change the base spec, the grid or
    the point order and every stale file is ignored and re-run.
    """
    material = {
        "base": base.to_dict(),
        "grid": grid_values,
        "index": index,
        "overrides": overrides,
    }
    blob = json.dumps(material, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _point_result_path(resume_dir: str | Path, index: int) -> Path:
    return Path(resume_dir) / f"point-{index:04d}.ckpt"


def _load_finished_point(
    resume_dir: str | Path, index: int, fingerprint: str
) -> ScenarioResult | None:
    """A previously-journalled point result, or None if absent/stale/torn."""
    path = _point_result_path(resume_dir, index)
    if not path.exists():
        return None
    try:
        _, payload = read_snapshot_file(
            path, kind=KIND_SWEEP_POINT, expect_fingerprint=fingerprint
        )
    except SnapshotError:
        # Torn, foreign or stale journal entries are re-run, not fatal.
        return None
    return payload if isinstance(payload, ScenarioResult) else None


@dataclass
class SweepResult:
    """Every point of one sweep, in deterministic grid order."""

    base: ScenarioSpec
    grid: dict[str, list[Any]]
    points: list[ScenarioResult]
    #: Processes the points ran on (1 = this process).
    workers: int
    wall_clock_seconds: float
    #: Point indices whose results were loaded from a resume journal instead
    #: of re-executed (empty when the sweep ran without ``resume_dir``).
    resumed_points: list[int] = field(default_factory=list)

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def summaries(self) -> list[dict[str, Any]]:
        return [point.summary() for point in self.points]

    @property
    def events_processed(self) -> int:
        return sum(
            point.result.events_processed for point in self.points if point.result is not None
        )

    @property
    def tx_generated(self) -> int:
        """Transactions injected across every point of the sweep."""
        return sum(
            point.result.tx_generated for point in self.points if point.result is not None
        )

    @property
    def tx_committed(self) -> int:
        """Transactions committed across every point of the sweep."""
        return sum(
            point.result.tx_committed for point in self.points if point.result is not None
        )

    def table(self, columns: Sequence[str] | None = None) -> str:
        """An aligned text table of the point summaries (for CLI output)."""
        summaries = self.summaries()
        if not summaries:
            return "(no points)"
        if columns is None:
            columns = [key for key in summaries[0] if key not in ("name", "kind", "seed")]
        rows = [[_format_cell(summary.get(column)) for column in columns] for summary in summaries]
        widths = [
            max(len(str(column)), *(len(row[i]) for row in rows))
            for i, column in enumerate(columns)
        ]
        header = "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
        lines = [header, "  ".join("-" * width for width in widths)]
        lines.extend("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))) for row in rows)
        return "\n".join(lines)


def _format_cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e5:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


def run_points(
    points: list[tuple[dict[str, Any], ScenarioSpec]],
    *,
    options: ExecutionOptions | None = None,
    on_point: Callable[[int, ScenarioResult], None] | None = None,
) -> tuple[list[ScenarioResult], int]:
    """Run expanded grid points — the engine's one execution path.

    Returns the results in point order plus the worker count used (1 = ran
    in this process).  Reads every option but ``resume_dir``; see
    :func:`run_scenario` for the per-point ones (``resume_from`` is restored
    by every point, so it must be a checkpoint of that very point).
    ``on_point(position, result)`` is called in this process as soon as a
    point completes.
    """
    opts = options or ExecutionOptions()
    if opts.resume_from is not None:
        for _, spec in points:
            if spec.kind != "sim":
                raise SnapshotError(
                    f"{spec.kind} scenarios are analytic and cannot be "
                    "checkpointed or resumed"
                )
    # One worker per point, capped at the CPU count, unless told otherwise.
    workers = opts.workers or min(len(points), os.cpu_count() or 1)
    if len(points) <= 1:
        workers = 1
    results: list[ScenarioResult | None] = [None] * len(points)

    def on_done(index: int, outcome: tuple) -> None:
        result, extra, wall = outcome
        overrides, spec = points[index]
        paths = _observer_paths(spec, overrides)
        results[index] = ScenarioResult(
            spec=spec,
            overrides=dict(overrides),
            result=result,
            extra=extra,
            wall_clock_seconds=wall,
            telemetry_path=paths.get("telemetry"),
            span_path=paths.get("spans"),
        )
        if on_point is not None:
            on_point(index, results[index])

    _run_tasks(points, opts, workers, on_done)
    return results, workers


def run_scenario(
    spec: ScenarioSpec,
    overrides: Mapping[str, Any] | None = None,
    *,
    options: ExecutionOptions | None = None,
) -> ScenarioResult:
    """Run one scenario point: a one-point :func:`run_points`.

    A single point always executes in this process, whatever
    ``options.workers`` says.

    When the spec opts into telemetry (``spec.telemetry.enabled``) or span
    recording (``spec.spans.enabled``), the recorder rides along and its
    rows are written to the spec's ``out_dir`` under a per-point file name
    (:func:`point_filename`); the summary itself is unchanged.

    When the spec opts into checkpointing (``spec.checkpoint_every``), a
    ``repro-ckpt-v1`` file is written at every multiple of that many virtual
    seconds strictly inside the run, to ``options.checkpoint_path`` (default:
    :data:`DEFAULT_CHECKPOINT_DIR` under a per-point name).
    ``options.resume_from`` continues a previous checkpoint instead of
    building a fresh run; the checkpoint must belong to this exact scenario
    (fingerprint-checked).
    """
    results, _ = run_points([(dict(overrides or {}), spec)], options=options)
    return results[0]


def sweep(
    base: ScenarioSpec,
    grid: Grid | None = None,
    *,
    options: ExecutionOptions | None = None,
) -> SweepResult:
    """Expand ``base`` over ``grid`` and run every point.

    Args:
        base: the spec every point starts from.
        grid: ``dotted.path -> values`` axes (see
            :data:`repro.experiments.scenario.Grid`); ``None`` runs just the
            base spec.
        options: the execution strategy (:class:`ExecutionOptions`):

            * ``workers`` — process count (default: one per point, capped
              at the machine's CPU count).  Points never share state, so a
              pool is safe for any scenario; ``1`` runs every point in this
              process, for easier debugging or when profiling a single run.
            * ``resume_dir`` — crash-resume journal directory.  Each
              completed point writes its result there atomically
              (``point-NNNN.ckpt``, ``repro-ckpt-v1`` format); rerunning an
              interrupted sweep with the same ``resume_dir`` re-executes
              only the unfinished points and produces a result identical to
              an uninterrupted run.  Stale journals (different base spec,
              grid, or point order) are detected by fingerprint and ignored.
    """
    opts = options or ExecutionOptions()
    started = time.perf_counter()
    # Materialise axis values first: iterator-valued axes must be recorded
    # with the same values expand_grid consumes.
    grid_values = {key: list(values) for key, values in (grid or {}).items()}
    points = expand_grid(base, grid_values)
    loaded: dict[int, ScenarioResult] = {}
    journal_point = None
    if opts.resume_dir is not None:
        journal = Path(opts.resume_dir)
        journal.mkdir(parents=True, exist_ok=True)
        fingerprints = [
            _point_fingerprint(base, grid_values, index, overrides)
            for index, (overrides, _) in enumerate(points)
        ]
        for index, fingerprint in enumerate(fingerprints):
            prior = _load_finished_point(journal, index, fingerprint)
            if prior is not None:
                loaded[index] = prior

        def journal_point(position: int, result: ScenarioResult) -> None:
            # Written atomically *after* the point completes, so a sweep
            # killed mid-point leaves either a complete, loadable result or
            # no file at all — never a torn one.
            index = todo[position]
            write_snapshot_file(
                _point_result_path(journal, index),
                result,
                kind=KIND_SWEEP_POINT,
                fingerprint=fingerprints[index],
                extra={"index": index, "label": result.label},
            )

    todo = [index for index in range(len(points)) if index not in loaded]
    fresh, workers = run_points(
        [points[index] for index in todo], options=opts, on_point=journal_point
    )
    loaded.update(zip(todo, fresh))
    return SweepResult(
        base=base,
        grid=grid_values,
        points=[loaded[index] for index in range(len(points))],
        workers=workers,
        wall_clock_seconds=time.perf_counter() - started,
        resumed_points=sorted(set(loaded) - set(todo)),
    )
