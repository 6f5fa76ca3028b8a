"""The scenario engine: every run is a plan of stops, executed by one scheduler.

:func:`run_points` is the only execution path.  Each point is planned
(:func:`~repro.experiments.windowed.plan_windowed_points`; one window unless
``ExecutionOptions.windows`` says otherwise) into a chain of tasks.  A task
builds the point's simulation (:func:`build_scenario`) or restores it — from
a hand-off checkpoint, a forked leader's, or ``options.resume_from`` — and
hands it to :func:`~repro.experiments.runner.execute` with its stops: window
boundaries, hand-offs and the horizon, after the periodic stops of a
one-window run whose spec sets ``checkpoint_every``.  :func:`_run_tasks`
runs the graph in this process or on the one process pool.
:func:`run_scenario` is a one-point :func:`run_points`; :func:`sweep`
expands a grid, drops the points a resume journal already holds, and
journals the rest as they complete.  Those two are the public ways to run a
simulation: a run is a :class:`ScenarioSpec`.

Each point is a pure function of its spec (all randomness is seeded from
it), so serial, pooled, windowed, checkpointed and resumed execution produce
bit-identical summaries and observer files.  Wall-clock time is recorded per
point and per sweep for the CLI to print; host performance is measured by the
ledger (``benchmarks/ledger/``), not here.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.common.errors import SnapshotError, WorkerDiedError
from repro.experiments import runner
from repro.experiments.figures import measure_avid_m_dispersal_cost, vid_cost_row
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import ExperimentResult, Stop
from repro.experiments.scenario import (
    Grid,
    ScenarioSpec,
    describe_overrides,
    expand_grid,
)
from repro.experiments.windowed import (
    PointPlan,
    experiment_args,
    plan_windowed_points,
    refit_forked_state,
    spec_fingerprint,
)
from repro.sim.snapshot import (
    KIND_SWEEP_POINT,
    SimulationState,
    read_snapshot_file,
    write_snapshot_file,
)
from repro.trace.observers import Observer, enabled_observers


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


def _run_vid_cost(spec: ScenarioSpec) -> dict[str, Any]:
    """The Fig. 2 point: modelled dispersal costs plus a measured AVID-M run."""
    n, block_size = spec.num_nodes, spec.block_size
    return {
        **vid_cost_row(n, block_size),
        "measured_avid_m": measure_avid_m_dispersal_cost(n, block_size),
    }


#: A task's identity: (point index, first window it executes).
TaskKey = tuple[int, int]


@dataclass(frozen=True)
class _Task:
    """Build or restore one point's simulation, then run it through ``stops``.

    Crosses to a pool worker as a pickle.  An analytic point has no stops.
    """

    spec: ScenarioSpec
    overrides: dict[str, Any]
    stops: tuple[Stop, ...]
    #: Checkpoint path or loaded state to restore (``None`` = build fresh),
    #: and the fingerprint it must carry — the leader's when ``fork`` is set,
    #: in which case the restored state is re-aimed at this point.
    source: Any = None
    expect: str | None = None
    fork: bool = False
    #: ``(every, path)`` of the periodic checkpoints to take ahead of ``stops``.
    periodic: tuple[float, str | Path] | None = None
    profiler: Any = None


def _run_task(task: _Task) -> tuple[ExperimentResult | None, dict[str, Any], float]:
    """Run one task; returns ``(result, extra, wall seconds)``."""
    started = time.perf_counter()
    if not task.stops:
        return None, _run_vid_cost(task.spec), time.perf_counter() - started
    if task.source is None:
        state = build_scenario(task.spec, task.overrides)
    else:
        state = runner.restore_experiment(task.source, task.expect)
        if task.fork:
            refit_forked_state(state, task.spec, task.overrides)
    stops = task.stops
    if task.periodic is not None:
        stops = (*runner.periodic_stops(state, *task.periodic), *stops)
    result = runner.execute(state, stops, task.profiler)
    return result, {}, time.perf_counter() - started


def _segment(work_dir: Path, point: int, window: int, suffix: str) -> Path:
    return work_dir / f"point{point:04d}-w{window}{suffix}"


def _plan_tasks(
    plans: list[PointPlan], work_dir: Path, options: ExecutionOptions
) -> tuple[dict[TaskKey, _Task], dict[TaskKey, TaskKey | None]]:
    """Materialise the task graph: maximal fused chains, each with <= 1 dependency.

    A point's chain is cut only where a checkpoint must exist: after a window
    some follower forks from.  Every other boundary is crossed in-process, so
    an unshared point is one task with no hand-off I/O, and followers start
    the moment the shared prefix is on disk, not when the leader finishes.
    """
    # Windows whose end-of-window checkpoint some follower forks from.
    demanded: dict[int, set[int]] = {}
    for plan in plans:
        if plan.leader is not None:
            demanded.setdefault(plan.leader, set()).add(plan.fork_window - 1)

    tasks: dict[TaskKey, _Task] = {}
    deps: dict[TaskKey, TaskKey | None] = {}
    # Task that writes the hand-off checkpoint at the end of (point, window).
    producer: dict[TaskKey, TaskKey] = {}
    for plan in plans:
        spec, index = plan.spec, plan.index
        if not plan.boundaries:
            if options.resume_from is not None:
                raise SnapshotError(
                    f"{spec.kind} scenarios are analytic and cannot be "
                    "checkpointed or resumed"
                )
            tasks[index, 0], deps[index, 0] = _Task(spec, plan.overrides, ()), None
            continue
        last = len(plan.boundaries) - 1
        flushed = enabled_observers(spec)
        periodic = None
        if last == 0 and spec.checkpoint_every is not None:
            periodic = (
                spec.checkpoint_every,
                options.checkpoint_path
                or Path(DEFAULT_CHECKPOINT_DIR) / point_filename(spec, plan.overrides, ".ckpt"),
            )
        starts = [plan.fork_window]
        starts += [window + 1 for window in sorted(demanded.get(index, ()))]
        for start, following in zip(starts, starts[1:] + [last + 1]):
            end = following - 1
            stops = tuple(
                Stop(
                    plan.boundaries[window],
                    flush={
                        row.name: _segment(work_dir, index, window, row.suffix)
                        for row in flushed
                    },
                    checkpoint=(
                        _segment(work_dir, index, window, ".ckpt")
                        if window == end < last
                        else None
                    ),
                )
                for window in range(start, end + 1)
            )
            owner, source, dep = index, options.resume_from, None
            if start > 0:
                if start == plan.fork_window and plan.leader is not None:
                    owner = plan.leader
                source = _segment(work_dir, owner, start - 1, ".ckpt")
                dep = producer[owner, start - 1]
            tasks[index, start] = _Task(
                spec,
                plan.overrides,
                stops,
                source=source,
                expect=None if source is None else spec_fingerprint(plans[owner].spec),
                fork=owner != index,
                periodic=periodic,
                profiler=options.profiler,
            )
            deps[index, start] = dep
            if end < last:
                producer[index, end] = (index, start)
    return tasks, deps


def _run_tasks(
    tasks: dict[TaskKey, _Task],
    deps: dict[TaskKey, TaskKey | None],
    workers: int,
    on_done: Callable[[TaskKey, tuple], None],
) -> None:
    """Run the task graph, in this process (``workers <= 1``) or on the one pool.

    ``on_done(key, outcome)`` is called here as each task completes.  A
    worker that dies takes the pool with it; that surfaces as
    :class:`WorkerDiedError` naming the points that were in flight.
    """
    # Start-window-major order is a topological order: every dependency
    # produces its checkpoint in a strictly earlier window.
    order = sorted(tasks, key=lambda key: (key[1], key[0]))
    if workers <= 1:
        for key in order:
            on_done(key, _run_task(tasks[key]))
        return
    pending = list(order)
    finished: set[TaskKey] = set()
    running: dict[Any, TaskKey] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            while pending or running:
                for key in [k for k in pending if deps[k] is None or deps[k] in finished]:
                    running[pool.submit(_run_task, tasks[key])] = key
                    pending.remove(key)
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                # Results before failures: a point that completed is reported
                # (and journalled) even if the pool broke in the same wake-up.
                for future in sorted(done, key=lambda f: f.exception() is not None):
                    on_done(running[future], future.result())
                    finished.add(running.pop(future))
        except BrokenProcessPool:
            in_flight = sorted({describe_overrides(tasks[key].overrides) for key in running.values()})
            raise WorkerDiedError(
                "a worker process died while running point(s) "
                f"{', '.join(in_flight)}; points completed before that are kept "
                "(with a resume journal, re-running executes only the rest)"
            ) from None


def _stitch(plan: PointPlan, work_dir: Path, row: Observer) -> str:
    """Byte-concatenate a point's per-window segments into its one observer file.

    A forked point reuses its leader's segments for the windows they share.
    """
    suffix = row.suffix
    out_dir = getattr(plan.spec, row.name).out_dir
    target = Path(out_dir) / point_filename(plan.spec, plan.overrides, suffix)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("wb") as out:
        for window in range(len(plan.boundaries)):
            owner = plan.leader if window < plan.fork_window else plan.index
            out.write(_segment(work_dir, owner, window, suffix).read_bytes())
    return str(target)


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
    parallel: bool
    workers: int
    wall_clock_seconds: float
    #: Point indices whose results were loaded from a resume journal instead
    #: of re-executed (empty when the sweep ran without ``resume_dir``).
    resumed_points: list[int] = field(default_factory=list)
    #: Window count when every point ran as more than one window
    #: (:mod:`repro.experiments.windowed`); ``None`` for one-window points.
    windows: int | None = None

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
    point's last task completes.
    """
    opts = options or ExecutionOptions()
    plans = plan_windowed_points(points, opts.windows or 1)
    results: list[ScenarioResult | None] = [None] * len(plans)
    with tempfile.TemporaryDirectory(prefix="repro-windowed-") as scratch:
        work_dir = Path(opts.window_dir or scratch)
        work_dir.mkdir(parents=True, exist_ok=True)
        tasks, deps = _plan_tasks(plans, work_dir, opts)
        # One worker per point, capped at the CPU count, unless told otherwise.
        workers = opts.workers or min(len(points), os.cpu_count() or 1)
        if not opts.parallel or len(tasks) <= 1:
            workers = 1
        # The last task of each point's chain (sorted: the highest start wins).
        final = dict(sorted(tasks))
        walls = [0.0] * len(plans)

        def on_done(key: TaskKey, outcome: tuple) -> None:
            index, start = key
            result, extra, wall = outcome
            # A shared prefix is credited to its leader, so the work the
            # prefix tree saves is visible in the per-point totals.
            walls[index] += wall
            if start != final[index]:
                return
            plan = plans[index]
            paths = {
                row.name: _stitch(plan, work_dir, row)
                for row in enabled_observers(plan.spec)
            }
            results[index] = ScenarioResult(
                spec=plan.spec,
                overrides=plan.overrides,
                result=result,
                extra=extra,
                wall_clock_seconds=walls[index],
                telemetry_path=paths.get("telemetry"),
                span_path=paths.get("spans"),
            )
            if on_point is not None:
                on_point(index, results[index])

        _run_tasks(tasks, deps, workers, on_done)
    return results, workers


def run_scenario(
    spec: ScenarioSpec,
    overrides: Mapping[str, Any] | None = None,
    *,
    options: ExecutionOptions | None = None,
) -> ScenarioResult:
    """Run one scenario point: a one-point :func:`run_points`.

    A single point is a single task (nothing forks from it), so it always
    executes in this process, whatever ``options.parallel`` says.

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
    (fingerprint-checked).  More than one window (``options.windows``)
    ignores ``checkpoint_every``: the hand-off checkpoints subsume it.
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

            * ``parallel`` — run points across worker processes (the
              default).  Points never share state, so this is safe for any
              scenario; flip to ``False`` for easier debugging or when
              profiling a single run.
            * ``workers`` — process count (default: one per point, capped
              at the machine's CPU count).
            * ``resume_dir`` — crash-resume journal directory.  Each
              completed point writes its result there atomically
              (``point-NNNN.ckpt``, ``repro-ckpt-v1`` format); rerunning an
              interrupted sweep with the same ``resume_dir`` re-executes
              only the unfinished points and produces a result identical to
              an uninterrupted run.  Stale journals (different base spec,
              grid, or point order) are detected by fingerprint and ignored.
            * ``windows`` — split every point's virtual-time horizon into
              this many checkpoint-hand-off windows (pipelined across
              points, with warmup-prefix sharing; see
              :mod:`repro.experiments.windowed`); summaries are
              byte-identical to one-window points.  Composes with
              ``resume_dir``: the unfinished points are planned among
              themselves.
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
        parallel=workers > 1,
        workers=workers,
        wall_clock_seconds=time.perf_counter() - started,
        resumed_points=sorted(set(loaded) - set(todo)),
        windows=opts.windows if (opts.windows or 1) > 1 else None,
    )
