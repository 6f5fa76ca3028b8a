"""Command-line entry point for the scenario engine.

::

    python -m repro.experiments list
    python -m repro.experiments show fig08-geo
    python -m repro.experiments run fig08-geo --duration 30 --seed 1
    python -m repro.experiments run straggler-hetero --grid seed=0,1,2 --json
    python -m repro.experiments run bandwidth-flapping --set bandwidth.count=4 --serial
    python -m repro.experiments run scenarios/censor-victim.json
    python -m repro.experiments resume checkpoints/trace-replay-wan-base-seed0.ckpt
    python -m repro.experiments trace inspect traces/wan-measured.csv
    python -m repro.experiments trace export trace-replay-wan --out telemetry

``run`` and ``show`` accept either a catalog name or a path to a scenario
spec file (anything ending in ``.json`` or containing a path separator):
the file is parsed with :meth:`ScenarioSpec.from_json` and runs exactly like
a catalog entry with no grid — ``--set``/``--grid``/``--duration``/``--seed``
compose on top.  A malformed file produces a one-line error and exit status
2, never a traceback.  Curated spec files live in ``scenarios/``.

``run`` expands the named scenario's grid (extended by any ``--grid`` axes),
runs every point — in parallel across processes by default — and prints the
unified summary table.  ``--set`` overrides base-spec fields by dotted path;
values are parsed as JSON when possible (``--set workload.kind=bursty``
works too, falling back to the raw string).

``run``, ``sweep`` and ``resume`` share one execution-options group
(:func:`add_execution_options`): ``--checkpoint-every`` writes a checkpoint
at every multiple of that many virtual seconds strictly inside the run,
``--telemetry`` records a per-point JSONL time-series, and ``--workers``
sizes the process pool.  Misuse — and a worker process that dies mid-sweep —
is always a one-line ``error: ...`` and exit status 2, never a traceback.

``resume`` continues a ``repro-ckpt-v1`` checkpoint (written by
``--checkpoint-every`` / ``--set checkpoint_every=…``) to completion as the
scenario it was taken from: it prints the same unified summary ``run`` would
have produced and writes the same telemetry and span files; a truncated,
corrupt, or foreign-scenario file, a checkpoint that carries no spec, and
``--checkpoint-path`` without ``--checkpoint-every`` are each a one-line
error and exit status 2.
``run`` and ``sweep`` accept ``--resume-dir`` to journal per-point results
so a crashed sweep re-runs only its unfinished points.

``trace`` groups the seven trace, telemetry and span utilities (``inspect``,
``convert``, ``export``, ``summarise``, ``diff``, ``spans``, ``flame``) —
see :mod:`repro.trace.cli`.  ``trace export`` and
``trace spans`` resolve their scenario through :func:`resolve_scenario`
like ``run`` does, so every command reports an unknown scenario, a bad spec
file or a malformed ``--set`` / ``--grid`` the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Any, Sequence

from repro.common.errors import ConfigurationError, SnapshotError, WorkerDiedError
from repro.experiments.catalog import NamedScenario, get_scenario, list_scenarios
from repro.experiments.engine import SweepResult, run_scenario, sweep
from repro.experiments.options import ExecutionOptions
from repro.sim.snapshot import load_checkpoint
from repro.experiments.scenario import ScenarioSpec, apply_override
from repro.trace.cli import add_trace_parser, run_trace_command


def _is_spec_path(name: str) -> bool:
    """Catalog names never contain path separators or a .json suffix.

    Deliberately *not* ``os.path.isfile``: a stray file in the working
    directory must never shadow a same-named catalog entry.
    """
    return name.endswith(".json") or os.sep in name


def resolve_entry(name: str) -> NamedScenario:
    """A catalog entry by name, or a spec file by path (see :func:`_is_spec_path`)."""
    if _is_spec_path(name):
        return load_spec_file(name)
    try:
        return get_scenario(name)
    except KeyError as exc:
        raise ConfigurationError(exc.args[0]) from None


def load_spec_file(path: str) -> NamedScenario:
    """Load a scenario spec file as an ad-hoc, grid-less catalog entry."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {path!r}: {exc}") from exc
    try:
        spec = ScenarioSpec.from_json(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"spec file {path!r} is not valid JSON: {exc}") from exc
    except (TypeError, ValueError, ConfigurationError) as exc:
        # TypeError: unknown field names; ConfigurationError/ValueError:
        # values that fail a spec's validation.
        raise ConfigurationError(f"spec file {path!r} is not a valid scenario: {exc}") from exc
    return NamedScenario(
        name=spec.name, description=f"spec file {path}", base=spec
    )


def _parse_value(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_assignment(text: str) -> tuple[str, Any]:
    path, sep, value = text.partition("=")
    if not sep or not path:
        raise ConfigurationError(f"expected PATH=VALUE, got {text!r}")
    return path, _parse_value(value)


def _parse_axis(text: str) -> tuple[str, tuple[Any, ...]]:
    path, values = _parse_assignment(text)
    if isinstance(values, str):
        parsed = tuple(_parse_value(part) for part in values.split(","))
    elif isinstance(values, list):
        parsed = tuple(values)
    else:
        parsed = (values,)
    return path, parsed


def add_execution_options(cmd: argparse.ArgumentParser, *, sweepable: bool) -> None:
    """The shared execution-options group for ``run``, ``sweep`` and ``resume``.

    Every flag is defined exactly once, so help text, types and defaults
    stay consistent across the subcommands; ``sweepable`` selects the subset
    that applies to grid execution versus single-checkpoint continuation.
    All of them produce one-line ``error: ...`` messages and exit status 2
    when misused — never a traceback.
    """
    group = cmd.add_argument_group("execution options")
    group.add_argument(
        "--checkpoint-every",
        type=float,
        help="write a repro-ckpt-v1 checkpoint at every multiple of this "
        "many virtual seconds strictly inside the run",
    )
    group.add_argument("--json", action="store_true", help="emit JSON summaries")
    if sweepable:
        group.add_argument(
            "--serial", action="store_true", help="run points in-process (--workers 1)"
        )
        group.add_argument("--workers", type=int, help="worker-process count")
        group.add_argument(
            "--telemetry",
            action="store_true",
            help="record a per-point telemetry time-series (JSONL under the "
            "spec's telemetry.out_dir, default telemetry/)",
        )
        group.add_argument(
            "--resume-dir",
            help="crash-resume journal directory: each completed point is "
            "recorded there, and rerunning after an interruption re-executes "
            "only the unfinished points",
        )
    else:
        group.add_argument(
            "--checkpoint-path",
            help="where the checkpoints --checkpoint-every asks for are "
            "written (default: overwrite the source file)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run declarative DispersedLedger scenarios and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the scenario catalog")

    show = sub.add_parser("show", help="print a scenario's base spec and grid as JSON")
    show.add_argument("scenario", help="catalog name (see `list`)")

    for verb in ("run", "sweep"):
        cmd = sub.add_parser(
            verb,
            help="run a named scenario"
            + (" (alias of `run` for sweep-heavy invocations)" if verb == "sweep" else ""),
        )
        cmd.add_argument("scenario", help="catalog name (see `list`)")
        cmd.add_argument("--duration", type=float, help="virtual seconds per point")
        cmd.add_argument("--seed", type=int, help="master seed for every point")
        cmd.add_argument(
            "--set",
            dest="overrides",
            metavar="PATH=VALUE",
            action="append",
            default=[],
            help="override a base-spec field by dotted path (repeatable)",
        )
        cmd.add_argument(
            "--grid",
            dest="grid",
            metavar="PATH=V1,V2,...",
            action="append",
            default=[],
            help="add a sweep axis (repeatable); replaces a same-named catalog axis",
        )
        add_execution_options(cmd, sweepable=True)

    resume = sub.add_parser(
        "resume", help="continue a repro-ckpt-v1 checkpoint to completion"
    )
    resume.add_argument("checkpoint", help="path to a repro-ckpt-v1 checkpoint file")
    add_execution_options(resume, sweepable=False)

    add_trace_parser(sub)
    return parser


def resolve_scenario(
    name: str,
    *,
    overrides: Sequence[str] = (),
    grid: Sequence[str] = (),
    **fields: Any,
) -> tuple[NamedScenario, ScenarioSpec, dict[str, tuple]]:
    """The one place a command line becomes ``(entry, base spec, grid)``.

    ``fields`` are top-level spec fields from dedicated flags (``duration``,
    ``seed``, ``checkpoint_every``; ``None`` = flag not given), applied
    before the ``PATH=VALUE`` ``overrides``; ``grid`` axes extend or replace
    the entry's.  Every misuse — unknown scenario, unreadable or invalid
    spec file, malformed assignment, unknown path, value a spec rejects —
    is a :class:`ConfigurationError`, which ``main`` reports in one line.
    """
    entry = resolve_entry(name)
    given = {key: value for key, value in fields.items() if value is not None}
    base = replace(entry.base, **given)
    for assignment in overrides:
        try:
            base = apply_override(base, *_parse_assignment(assignment))
        except (TypeError, ValueError) as exc:
            # A value of the wrong type, or one a registry-backed spec rejects.
            raise ConfigurationError(f"--set {assignment}: {exc}") from exc
    axes: dict[str, tuple] = dict(entry.grid or {})
    axes.update(_parse_axis(axis) for axis in grid)
    return entry, base, axes


def force_observer(spec: ScenarioSpec, name: str, **changes: Any) -> ScenarioSpec:
    """``spec`` with the observer row ``name`` switched on.

    ``changes`` adjust the row's other settings (``out_dir``, ``interval``);
    ``None`` keeps the spec's own value.
    """
    given = {key: value for key, value in changes.items() if value is not None}
    return replace(spec, **{name: replace(getattr(spec, name), enabled=True, **given)})


def _print_run(entry: NamedScenario, result: SweepResult, as_json: bool) -> None:
    if as_json:
        payload = {
            "scenario": entry.name,
            "figure": entry.figure,
            "parallel": result.parallel,
            "workers": result.workers,
            "wall_clock_seconds": result.wall_clock_seconds,
            "events_processed": result.events_processed,
            "summaries": result.summaries(),
        }
        print(json.dumps(payload, indent=2))
        return
    figure = f" ({entry.figure})" if entry.figure else ""
    print(f"scenario {entry.name}{figure}: {entry.description}")
    print(result.table(columns=entry.columns))
    mode = f"{result.workers} processes" if result.parallel else "serial"
    events = result.events_processed
    rate = f", {events / result.wall_clock_seconds:,.0f} events/s" if events else ""
    print(
        f"{len(result.points)} point(s) in {result.wall_clock_seconds:.2f}s wall clock "
        f"({mode}{rate})"
    )


def _run_resume(args: argparse.Namespace) -> int:
    """The ``resume`` subcommand: continue a checkpoint and print its summary.

    A checkpoint written by the scenario engine carries the originating spec
    in its metadata, so the run continues through :func:`run_scenario` as
    that scenario: the printed summary has the same unified schema as a
    fresh ``run`` — a resumed run is diffable against the golden summaries —
    and the telemetry and span files an uninterrupted run writes are
    written too.  Periodic checkpointing continues only when
    ``--checkpoint-every`` asks for it.  Malformed, foreign or spec-less
    checkpoints, a stored spec with a field this build no longer has, and a
    ``--checkpoint-path`` that would write nothing produce
    a one-line error and exit status 2, never a traceback.
    """
    try:
        if args.checkpoint_path is not None and args.checkpoint_every is None:
            raise ConfigurationError(
                "--checkpoint-path has no effect without --checkpoint-every"
            )
        state = load_checkpoint(args.checkpoint)
        if "spec" not in state.meta:
            raise ConfigurationError(
                f"{args.checkpoint} carries no scenario spec (a hand-driven execute "
                "wrote it); continue it from Python with "
                "execute(restore_experiment(path), [Stop(state.duration)])"
            )
        try:
            stored = ScenarioSpec.from_dict(state.meta["spec"])
        except TypeError as exc:  # a field this build no longer has
            raise SnapshotError(
                f"{args.checkpoint} was written by an incompatible version: its spec "
                f"does not load ({exc})"
            ) from exc
        spec = replace(stored, checkpoint_every=args.checkpoint_every)
        summary = run_scenario(
            spec,
            state.meta.get("overrides"),
            options=ExecutionOptions(
                resume_from=state, checkpoint_path=args.checkpoint_path or args.checkpoint
            ),
        ).summary()
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "trace":
        return run_trace_command(args)

    if args.command == "resume":
        return _run_resume(args)

    if args.command == "list":
        for entry in list_scenarios():
            figure = f" [{entry.figure}]" if entry.figure else ""
            print(f"{entry.name:<22} {entry.num_points():>2} point(s){figure}  {entry.description}")
        return 0

    try:
        if args.command == "show":
            entry = resolve_entry(args.scenario)
            payload = {
                "name": entry.name,
                "description": entry.description,
                "figure": entry.figure,
                "base": entry.base.to_dict(),
                "grid": {key: list(values) for key, values in (entry.grid or {}).items()},
            }
            print(json.dumps(payload, indent=2))
            return 0

        entry, base, grid = resolve_scenario(
            args.scenario,
            overrides=args.overrides,
            grid=args.grid,
            duration=args.duration,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
        )
        if args.telemetry:
            base = force_observer(base, "telemetry")
        # A bad value (zero workers) is a ConfigurationError from
        # ExecutionOptions itself.
        options = ExecutionOptions(
            workers=1 if args.serial else args.workers, resume_dir=args.resume_dir
        )
        result = sweep(base, grid or None, options=options)
    except (ConfigurationError, WorkerDiedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_run(entry, result, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
