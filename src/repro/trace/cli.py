"""The ``trace`` subcommand family of ``python -m repro.experiments``.

::

    python -m repro.experiments trace inspect traces/wan-measured.csv
    python -m repro.experiments trace convert traces/wan-measured.csv /tmp/wan.json
    python -m repro.experiments trace convert in.csv out.csv --step 0.5 --scale 2
    python -m repro.experiments trace export trace-replay-wan --out telemetry
    python -m repro.experiments trace summarise telemetry/trace-replay-wan-base-seed7.jsonl
    python -m repro.experiments trace diff tests/golden/envelopes/trace-replay-wan.json \\
        telemetry/trace-replay-wan-base-seed0.jsonl

* ``inspect`` prints per-node statistics of a trace file (breakpoints,
  duration, time-weighted mean/min/max rates), or the same as JSON.
* ``convert`` rewrites a trace between the CSV and JSON formats (chosen by
  extension), optionally resampling (``--step``), scaling (``--scale``),
  clipping (``--clip T0 T1``) and renaming (``--name``) on the way.
* ``export`` runs a scenario — catalog name or spec-file path, like
  ``run`` — with telemetry forced on and reports where the JSONL landed.
  Only the base point runs (grids are a ``run`` concern); ``--set``,
  ``--duration`` and ``--seed`` compose like they do for ``run``.
* ``summarise`` reduces a recorded telemetry JSONL (as written by
  ``export``) to time-weighted queue-depth and link-utilisation statistics,
  per node and cluster-wide, as a table or JSON.
* ``diff`` compares a telemetry recording against a reference: either a
  second recording or a pinned ``repro-envelope-v1`` envelope (detected by
  content).  Exit status 0 inside tolerance, **1** on any breach.
* ``spans`` records (or reads back) causal block-lifecycle spans and
  reduces them to per-phase latency percentiles, commit-latency stats, and
  a critical-path drill-down of the slowest blocks — see
  :mod:`repro.trace.spans`.  Given a scenario name it runs the scenario
  with span recording forced on (``--profile FILE`` additionally runs the
  simulator hot-path profiler); given a ``.jsonl`` file it summarises it.
* ``flame`` lowers a span JSONL or a ``repro-profile-v1`` profiler JSON to
  Chrome trace-event JSON, loadable in Perfetto or ``chrome://tracing``.

Every user error (missing file, malformed trace, bad scenario) is reported
as a one-line ``error:`` on stderr with exit status 2, never a traceback
(``diff`` reserves 1 for "compared fine, but out of tolerance").
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.common.errors import ConfigurationError, TraceError
from repro.trace.io import load_trace, save_trace
from repro.trace.model import MeasuredTrace


def add_trace_parser(subparsers) -> None:
    """Register the ``trace`` subcommand tree on the experiments CLI."""
    trace = subparsers.add_parser(
        "trace", help="trace-file, telemetry and span utilities (seven subcommands)"
    )
    nested = trace.add_subparsers(dest="trace_command", required=True)

    inspect = nested.add_parser("inspect", help="print per-node statistics of a trace file")
    inspect.add_argument("trace", help="path to a .csv or .json trace file")
    inspect.add_argument("--json", action="store_true", help="emit the statistics as JSON")

    convert = nested.add_parser(
        "convert", help="rewrite a trace (CSV <-> JSON), optionally transforming it"
    )
    convert.add_argument("trace", help="source trace file (.csv or .json)")
    convert.add_argument("output", help="destination file (.csv or .json)")
    convert.add_argument("--step", type=float, help="resample onto a regular grid (seconds)")
    convert.add_argument("--scale", type=float, help="multiply every rate by this factor")
    convert.add_argument(
        "--clip",
        nargs=2,
        type=float,
        metavar=("START", "END"),
        help="keep only the [START, END) window, re-based to time zero",
    )
    convert.add_argument("--name", help="rename the trace in the output")

    export = nested.add_parser(
        "export", help="run a scenario with telemetry recording forced on"
    )
    export.add_argument("scenario", help="catalog name or spec-file path (like `run`)")
    export.add_argument(
        "--out", default=None, help="telemetry output directory (default: the spec's)"
    )
    export.add_argument("--duration", type=float, help="virtual seconds to simulate")
    export.add_argument("--seed", type=int, help="master seed for the run")
    export.add_argument(
        "--interval", type=float, default=None, help="sampling interval in virtual seconds"
    )
    export.add_argument(
        "--set",
        dest="overrides",
        metavar="PATH=VALUE",
        action="append",
        default=[],
        help="override a base-spec field by dotted path (repeatable)",
    )
    export.add_argument("--json", action="store_true", help="emit the summary as JSON")

    summarise = nested.add_parser(
        "summarise", help="time-weighted queue/utilisation stats from telemetry JSONL"
    )
    summarise.add_argument("telemetry", help="path to a telemetry .jsonl file (from `export`)")
    summarise.add_argument(
        "--node", type=int, default=None, help="restrict the table to one node id"
    )
    summarise.add_argument("--json", action="store_true", help="emit the statistics as JSON")

    diff = nested.add_parser(
        "diff", help="compare telemetry against a recording or a pinned envelope"
    )
    diff.add_argument(
        "reference", help="reference: a telemetry .jsonl or a repro-envelope-v1 .json"
    )
    diff.add_argument("observed", help="the telemetry .jsonl to check")
    diff.add_argument(
        "--rel-tol", type=float, default=None, help="relative tolerance (fraction, e.g. 0.05)"
    )
    diff.add_argument(
        "--abs-tol",
        action="append",
        default=None,
        metavar="SERIES=VALUE",
        help="absolute tolerance floor for one series (repeatable), or a bare "
        "number applying to every series",
    )
    diff.add_argument("--json", action="store_true", help="emit the deltas as JSON")

    spans = nested.add_parser(
        "spans", help="record or summarise causal block-lifecycle spans"
    )
    spans.add_argument(
        "source",
        help="a span .jsonl file to summarise, or a scenario (catalog name or "
        "spec-file path) to record with span tracing forced on",
    )
    spans.add_argument(
        "--out", default=None, help="span output directory when recording (default: the spec's)"
    )
    spans.add_argument("--duration", type=float, help="virtual seconds to simulate (recording)")
    spans.add_argument("--seed", type=int, help="master seed for the run (recording)")
    spans.add_argument(
        "--set",
        dest="overrides",
        metavar="PATH=VALUE",
        action="append",
        default=[],
        help="override a base-spec field by dotted path (repeatable; recording)",
    )
    spans.add_argument(
        "--top", type=int, default=5, help="slowest commits to drill into (default: 5)"
    )
    spans.add_argument(
        "--profile",
        default=None,
        metavar="FILE",
        help="also run the simulator hot-path profiler and write its "
        "repro-profile-v1 JSON here (recording only)",
    )
    spans.add_argument("--json", action="store_true", help="emit the summary as JSON")

    flame = nested.add_parser(
        "flame", help="lower span JSONL or profiler JSON to Chrome trace-event JSON"
    )
    flame.add_argument(
        "input", help="a span .jsonl (from `spans`) or a repro-profile-v1 .json file"
    )
    flame.add_argument("--out", required=True, help="destination trace-event .json file")


def run_trace_command(args: argparse.Namespace) -> int:
    """Dispatch one parsed ``trace`` invocation; returns the exit status."""
    handlers = {
        "inspect": _inspect,
        "convert": _convert,
        "summarise": _summarise,
        "diff": _diff,
        "export": _export,
        "spans": _spans,
        "flame": _flame,
    }
    try:
        return handlers[args.trace_command](args)
    except (TraceError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _inspect(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    stats = trace.stats()
    if args.json:
        payload = {
            "name": trace.name,
            "num_nodes": trace.num_nodes,
            "duration": trace.duration,
            "num_points": trace.num_points,
            "nodes": stats,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(
        f"trace {trace.name}: {trace.num_nodes} node(s), "
        f"{trace.duration:g} s, {trace.num_points} breakpoint(s)"
    )
    header = f"{'node':>4}  {'points':>6}  {'up mean/min/max (MB/s)':>24}  {'down mean/min/max (MB/s)':>24}"
    print(header)
    print("-" * len(header))
    for row in stats:
        up = f"{row['up_mean'] / 1e6:.2f}/{row['up_min'] / 1e6:.2f}/{row['up_max'] / 1e6:.2f}"
        down = (
            f"{row['down_mean'] / 1e6:.2f}/{row['down_min'] / 1e6:.2f}/{row['down_max'] / 1e6:.2f}"
        )
        print(f"{row['node']:>4}  {row['points']:>6}  {up:>24}  {down:>24}")
    return 0


def _convert(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    if args.clip is not None:
        trace = trace.clipped(args.clip[0], args.clip[1])
    if args.step is not None:
        trace = trace.resampled(args.step)
    if args.scale is not None:
        trace = trace.scaled(args.scale)
    if args.name:
        trace = MeasuredTrace(name=args.name, nodes=trace.nodes)
    target = save_trace(trace, args.output)
    print(
        f"wrote {trace.num_nodes} node(s), {trace.num_points} breakpoint(s) to {target}"
    )
    return 0


def _export(args: argparse.Namespace) -> int:
    # Imported here: repro.experiments.cli imports this module at load time.
    from repro.experiments.cli import force_observer, resolve_scenario
    from repro.experiments.engine import run_scenario

    entry, spec, _grid = resolve_scenario(
        args.scenario, overrides=args.overrides, duration=args.duration, seed=args.seed
    )
    spec = force_observer(spec, "telemetry", interval=args.interval, out_dir=args.out)
    result = run_scenario(spec)
    if args.json:
        payload = {
            "scenario": entry.name,
            "telemetry_path": result.telemetry_path,
            "summary": result.summary(),
        }
        print(json.dumps(payload, indent=2))
        return 0
    summary = result.summary()
    print(f"scenario {entry.name}: ran {spec.duration:g} virtual seconds")
    for key in ("protocol", "num_nodes", "mean_throughput", "delivered_epochs"):
        if key in summary:
            print(f"  {key} = {summary[key]}")
    print(f"telemetry written to {result.telemetry_path}")
    return 0


def _read_rows(path: str) -> list:
    """Read telemetry or span JSONL, wrapping I/O and parse failures as TraceError."""
    from repro.trace.recorder import read_jsonl

    try:
        return read_jsonl(path)
    except OSError as exc:
        raise TraceError(f"cannot read JSONL file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise TraceError(f"malformed JSONL {path}: {exc}") from exc


def _summarise(args: argparse.Namespace) -> int:
    from repro.trace.analysis import summarise_telemetry

    rows = _read_rows(args.telemetry)
    summary = summarise_telemetry(rows)
    if args.node is not None:
        nodes = [node for node in summary["nodes"] if node["node"] == args.node]
        if not nodes:
            raise TraceError(f"node {args.node} has no samples in {args.telemetry}")
        summary = {**summary, "nodes": nodes}
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    interval = summary.get("interval")
    print(
        f"telemetry {args.telemetry}: {summary['num_nodes']} node(s), "
        f"{summary['cluster']['samples']} sample(s)"
        + (f", interval {interval:g} s" if interval else "")
    )
    header = (
        f"{'node':>7}  {'samples':>7}  {'egress q mean/max':>18}  "
        f"{'ingress q mean/max':>18}  {'egress util':>11}  {'ingress util':>12}"
    )
    print(header)
    print("-" * len(header))
    rows_out = list(summary["nodes"])
    if args.node is None:
        rows_out.append({"node": "cluster", "samples": summary["cluster"]["samples"], **summary["cluster"]})
    for row in rows_out:
        eq, iq = row["egress_queue"], row["ingress_queue"]
        eu, iu = row["egress_util"], row["ingress_util"]
        print(
            f"{row['node']:>7}  {row['samples']:>7}  "
            f"{eq['mean']:>8.1f}/{eq['max']:>9.0f}  "
            f"{iq['mean']:>8.1f}/{iq['max']:>9.0f}  "
            f"{eu['mean']:>11.3f}  {iu['mean']:>12.3f}"
        )
    for row in summary["nodes"]:
        for warning in row.get("warnings", ()):
            print(f"warning: node {row['node']}: {warning}")
    return 0


def _parse_abs_tol(assignments):
    """``--abs-tol`` values: ``SERIES=VALUE`` entries or one bare number."""
    if assignments is None:
        return None
    per_series = {}
    for assignment in assignments:
        name, sep, value = assignment.partition("=")
        if not sep:
            if len(assignments) > 1:
                raise TraceError(
                    f"a bare --abs-tol number applies to every series; "
                    f"got {len(assignments)} values"
                )
            try:
                return float(name)
            except ValueError:
                raise TraceError(
                    f"--abs-tol expects SERIES=VALUE or a number, got {assignment!r}"
                ) from None
        try:
            per_series[name] = float(value)
        except ValueError:
            raise TraceError(
                f"--abs-tol {assignment!r}: {value!r} is not a number"
            ) from None
    return per_series


def _diff(args: argparse.Namespace) -> int:
    from repro.trace.diff import breaches, check_envelope, diff_telemetry, is_envelope

    abs_tol = _parse_abs_tol(args.abs_tol)
    reference_payload = None
    if args.reference.endswith(".json"):
        try:
            reference_payload = json.loads(Path(args.reference).read_text(encoding="utf-8"))
        except OSError as exc:
            raise TraceError(f"cannot read reference file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise TraceError(f"malformed reference JSON {args.reference}: {exc}") from exc
    observed = _read_rows(args.observed)
    if reference_payload is not None:
        if not is_envelope(reference_payload):
            raise TraceError(
                f"reference {args.reference} is JSON but not a repro-envelope-v1 "
                f"envelope; pass a telemetry .jsonl to diff two recordings"
            )
        deltas = check_envelope(observed, reference_payload, abs_tol, args.rel_tol)
    else:
        deltas = diff_telemetry(_read_rows(args.reference), observed, abs_tol, args.rel_tol)
    failed = breaches(deltas)
    if args.json:
        print(
            json.dumps(
                {
                    "reference": args.reference,
                    "observed": args.observed,
                    "breaches": len(failed),
                    "deltas": [delta.as_dict() for delta in deltas],
                },
                indent=2,
            )
        )
        return 1 if failed else 0
    header = (
        f"{'node':>7}  {'series':>13}  {'stat':>4}  {'reference':>12}  "
        f"{'observed':>12}  {'delta':>12}  {'allowed':>10}  "
    )
    print(header)
    print("-" * len(header))
    for delta in deltas:
        flag = "BREACH" if delta.breach else "ok"
        print(
            f"{delta.node:>7}  {delta.series:>13}  {delta.stat:>4}  "
            f"{delta.reference:>12.3f}  {delta.observed:>12.3f}  "
            f"{delta.delta:>+12.3f}  {delta.allowed:>10.3f}  {flag}"
        )
    if failed:
        print(
            f"{len(failed)} of {len(deltas)} compared series out of tolerance",
            file=sys.stderr,
        )
        return 1
    print(f"all {len(deltas)} compared series within tolerance")
    return 0


def _record_spans(args: argparse.Namespace) -> tuple[str, list]:
    """Run a scenario with span recording forced on; returns (path, rows)."""
    from repro.experiments.cli import force_observer, resolve_scenario
    from repro.experiments.engine import run_scenario
    from repro.experiments.options import ExecutionOptions
    from repro.sim.profiler import SimProfiler

    _entry, spec, _grid = resolve_scenario(
        args.source, overrides=args.overrides, duration=args.duration, seed=args.seed
    )
    spec = force_observer(spec, "spans", out_dir=args.out)
    profiler = SimProfiler() if args.profile else None
    result = run_scenario(spec, options=ExecutionOptions(profiler=profiler))
    if profiler is not None:
        target = Path(args.profile)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(profiler.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"profile written to {target}")
    return result.span_path, _read_rows(result.span_path)


def _spans(args: argparse.Namespace) -> int:
    from repro.trace.spans import summarise_spans

    if Path(args.source).suffix == ".jsonl":
        if args.profile:
            raise TraceError(
                "--profile records a fresh run; it cannot be combined with "
                "an existing span file"
            )
        span_path = args.source
        rows = _read_rows(args.source)
    else:
        span_path, rows = _record_spans(args)
    summary = summarise_spans(rows, top=args.top)
    if args.json:
        print(json.dumps({"span_path": str(span_path), "summary": summary}, indent=2))
        return 0
    commits = summary["commits"]
    print(
        f"spans {span_path}: {summary['num_spans']} span(s), "
        f"{commits['count']} committed block(s)"
    )
    header = (
        f"{'phase':>14}  {'count':>6}  {'mean':>8}  {'p50':>8}  "
        f"{'p90':>8}  {'p99':>8}  {'max':>8}"
    )
    print(header)
    print("-" * len(header))
    for name, stats in summary["phases"].items():
        print(
            f"{name:>14}  {stats['count']:>6}  {stats['mean']:>8.4f}  "
            f"{stats['p50']:>8.4f}  {stats['p90']:>8.4f}  "
            f"{stats['p99']:>8.4f}  {stats['max']:>8.4f}"
        )
    if commits["count"]:
        print(
            f"commit latency: mean {commits['mean_latency']:.4f} s, "
            f"p50 {commits['p50_latency']:.4f} s, "
            f"p90 {commits['p90_latency']:.4f} s, "
            f"max {commits['max_latency']:.4f} s"
        )
    for block in summary["slowest"]:
        parts = ", ".join(
            f"{name} {seconds:.4f}" for name, seconds in block["phase_seconds"].items()
        )
        print(
            f"slowest: node {block['node']} epoch {block['epoch']}: "
            f"{block['latency']:.4f} s ({parts})"
        )
        for step in block["critical_path"]:
            where = "".join(
                f" {key}={step[key]}"
                for key in ("slot", "round", "src", "dst", "transfer")
                if key in step
            )
            print(
                f"    waited on {step['name']}{where}: "
                f"{step['duration']:.4f} s (ends {step['end']:.4f})"
            )
    return 0


def _flame(args: argparse.Namespace) -> int:
    from repro.trace.spans import profile_to_chrome, spans_to_chrome

    source = Path(args.input)
    if source.suffix == ".json":
        try:
            payload = json.loads(source.read_text(encoding="utf-8"))
        except OSError as exc:
            raise TraceError(f"cannot read profile file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise TraceError(f"malformed profile JSON {source}: {exc}") from exc
        trace = profile_to_chrome(payload)
    else:
        trace = spans_to_chrome(_read_rows(args.input))
    target = Path(args.out)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(trace, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(trace['traceEvents'])} trace event(s) to {target}")
    return 0


__all__ = ["add_trace_parser", "run_trace_command"]
