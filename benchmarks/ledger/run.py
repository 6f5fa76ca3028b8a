#!/usr/bin/env python3
"""The performance ledger: end-to-end and per-layer metrics from one command.

Two ways to run it, both from the repository root:

``python3 benchmarks/ledger/run.py --workload NAME --seed S --seconds T --trace 0|1``
    One pass of one workload.  ``--trace 0`` repeats the workload untraced
    as often as fits in ``T`` seconds (at least :data:`MIN_REPS` times) and
    reports the end-to-end metrics; ``--trace 1`` runs it once under ``cProfile``, once
    more untraced with boundary timers, then the direct probes, and reports
    the per-layer metrics (fixed work; ``T`` is not used).  The last line of
    stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

``python3 benchmarks/ledger/run.py [--seed S] [--reps R] [--smoke] [--workload NAME] [--out FILE]``
    The suite: both passes for all six workloads of ``workloads.py`` (the
    four ``BENCHMARK.json`` declares and the two it leaves out to afford
    longer runs), every metric printed by name with its unit, and a
    ``repro-bench-v1`` envelope written to ``--out`` (never into the
    repository by default) for ``compare.py``.

Load is a batch job: one fresh child interpreter per repetition, strictly one
at a time (the box has 2 cores; no pools, no threads).  Metric names, units
and the default run length come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

#: Fewer repetitions than this support no median worth comparing.
MIN_REPS = 3
SUITE_REPS = 5
#: The driver allows a run 180 s; a child that takes longer than this is a failed rep.
CHILD_TIMEOUT_S = 150
WORK_ROOT = HERE / ".work"


def _spawn(job: dict) -> tuple[dict | None, str]:
    """Run one child to completion; returns its record, or ``None`` and why."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="rep-", dir=WORK_ROOT))
    job = {**job, "workdir": str(workdir), "spawned_at": time.monotonic()}
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"child exceeded {CHILD_TIMEOUT_S} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        return None, f"child exited {done.returncode}: {done.stderr.strip()[-400:]}"
    try:
        return json.loads(done.stdout.splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, f"child printed no record: {done.stdout.strip()[-200:]}"


def _failed(record: dict | None, why: str, digest: str | None) -> list[str]:
    """Why this repetition counts as a failed operation (empty if it does not)."""
    if record is None:
        return [why]
    failures = list(record["failures"])
    if digest is not None and record["summary_digest"] != digest:
        failures.append(
            f"summary digest {record['summary_digest'][:12]} differs from "
            f"{digest[:12]} of an earlier repetition of the same seed"
        )
    return failures


def untraced_pass(
    name: str, seed: int, smoke: bool, seconds: float, reps: int | None
) -> dict:
    """Repeat the workload untraced; the end-to-end metrics are medians over reps."""
    job = {"mode": "plain", "workload": name, "seed": seed, "smoke": smoke}
    records, failures, attempted = [], [], 0
    started, longest = time.monotonic(), 0.0

    def another() -> bool:
        if reps is not None:
            return attempted < reps
        # End inside the budget: start a repetition only if the longest so far still fits.
        return attempted < MIN_REPS or time.monotonic() - started + longest <= seconds

    while another():
        attempted += 1
        began = time.monotonic()
        record, why = _spawn(job)
        longest = max(longest, time.monotonic() - began)
        digest = records[0]["summary_digest"] if records else None
        problems = _failed(record, why, digest)
        if problems:
            failures.append({"rep": attempted, "why": problems})
        else:
            records.append(record)
    result = {
        "ops_attempted": attempted,
        "ops_failed": len(failures),
        "failures": failures,
        "reps": [
            {key: r[key] for key in ("wall_s", "cpu_s", "setup_s", "ru_maxrss_kb", "summary_digest")}
            for r in records
        ],
    }
    if not records:
        return result
    walls = [r["wall_s"] for r in records]
    setups = [r["setup_s"] for r in records]
    rss = [r["ru_maxrss_kb"] / 1024.0 for r in records]
    first = records[0]
    wall, tx = statistics.median(walls), first["tx_committed"]

    def spread(value: float, low: float, high: float) -> dict:
        return {"value": value, "min": low, "max": high, "n": len(records)}

    result.update(
        {
            "summary_digest": first["summary_digest"],
            "sim_throughput_Bps": first["sim_throughput_Bps"],
            "sim_latency_p50_s": first["sim_latency_p50_s"],
            "events_processed": first["events_processed"],
            "tx_committed": tx,
            "end_to_end": {
                "wall_s": spread(wall, min(walls), max(walls)),
                "committed_tx_per_s": spread(tx / wall, tx / max(walls), tx / min(walls)),
                "peak_rss_mb": spread(max(rss), min(rss), max(rss)),
                "setup_s": spread(statistics.median(setups), min(setups), max(setups)),
            },
        }
    )
    return result


def probes_child(smoke: bool) -> tuple[dict | None, str]:
    """The direct probes; they take no workload, so a suite runs them once."""
    return _spawn({"mode": "probes", "smoke": smoke})


def traced_pass(
    name: str, seed: int, smoke: bool, probes: tuple[dict | None, str] | None = None
) -> dict:
    """One profiled run, one untraced twin with boundary timers, and the probes."""
    import layers

    base = {"workload": name, "seed": seed, "smoke": smoke}
    children = {mode: _spawn({**base, "mode": mode}) for mode in ("profile", "twin")}
    children["probes"] = probes or probes_child(smoke)
    failures = []
    digest = None
    for mode, (record, why) in children.items():
        problems = [why] if record is None else list(record.get("failures", ()))
        if record is not None and "summary_digest" in record:
            if digest is not None and record["summary_digest"] != digest:
                problems.append("profiled and untraced runs summarise differently")
            digest = record["summary_digest"]
        if problems:
            failures.append({"rep": mode, "why": problems})
    result = {"ops_attempted": len(children), "ops_failed": len(failures), "failures": failures}
    if any(record is None for record, _ in children.values()):
        return result
    profile, twin, probes = (children[mode][0] for mode in ("profile", "twin", "probes"))
    total = sum(layer["self_s"] for layer in profile["layers"].values())
    values: dict[str, float] = {}
    for layer in layers.LAYERS:
        entry = profile["layers"][layer]
        values[f"{layer}.self_s"] = entry["self_s"]
        values[f"{layer}.share"] = entry["self_s"] / total
        values[f"{layer}.calls"] = entry["calls"]
    values["tracing.overhead_x"] = profile["wall_s"] / twin["wall_s"]
    values["sim.events.count"] = twin["events_processed"]
    values["sim.events.host_us_per_event"] = 1e6 * twin["wall_s"] / twin["events_processed"]
    values.update(twin["counters"])
    values.update(probes["probes"])
    result["summary_digest"] = digest
    result["per_layer"] = {key: {"value": value} for key, value in values.items()}
    return result


def _attach_units(metrics: dict[str, dict], declared: list[dict]) -> dict[str, dict]:
    """Give every metric its declared unit; a name BENCHMARK.json lacks is a bug."""
    units = {entry["name"]: entry["unit"] for entry in declared}
    return {name: {**metric, "unit": units[name]} for name, metric in metrics.items()}


def _print_metrics(title: str, metrics: dict[str, dict]) -> None:
    print(f"\n{title}")
    for name, metric in metrics.items():
        spread = ""
        if "min" in metric:
            spread = f"   [min {metric['min']:.6g}, max {metric['max']:.6g}, n {metric['n']}]"
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}{spread}")


def _print_layer_table(per_layer: dict[str, dict]) -> None:
    import layers

    print("  layer           self_s   share      calls")
    for layer in layers.LAYERS:
        print(
            f"  {layer:13s} {per_layer[f'{layer}.self_s']['value']:8.3f} "
            f"{100 * per_layer[f'{layer}.share']['value']:6.1f}% "
            f"{per_layer[f'{layer}.calls']['value']:10d}"
        )


def _report_failures(result: dict) -> None:
    for failure in result["failures"]:
        for why in failure["why"]:
            print(f"  FAILED rep {failure['rep']}: {why}")


def _environment() -> dict:
    import numpy

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def _write_atomically(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(path.name + f".tmp{os.getpid()}")
    temporary.write_text(json.dumps(payload, indent=2) + "\n")
    os.replace(temporary, path)


def run_suite(args: argparse.Namespace, benchmark: dict, names: list[str]) -> int:
    import compare
    import layers

    started = time.monotonic()
    environment = _environment()
    environment["loadavg_start"] = os.getloadavg()
    reps = args.reps or SUITE_REPS
    envelope = {
        "schema": compare.SCHEMA,
        "environment": environment,
        "seed": args.seed,
        "reps": reps,
        "smoke": args.smoke,
        "src_lines": sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in layers.source_files(SRC)
        ),
        "workloads": {},
    }
    failed = 0
    probes = probes_child(args.smoke)
    for name in names:
        untraced = untraced_pass(name, args.seed, args.smoke, 0.0, reps)
        traced = traced_pass(name, args.seed, args.smoke, probes)
        failed += untraced["ops_failed"] + traced["ops_failed"]
        print(f"\n=== {name}  (seed {args.seed}, {untraced['ops_attempted']} reps, "
              f"{untraced['ops_failed']} failed; traced pass {traced['ops_failed']} failed)")
        _report_failures(untraced)
        _report_failures(traced)
        entry = {key: value for key, value in untraced.items() if key != "end_to_end"}
        entry["traced_failures"] = traced["failures"]
        if "end_to_end" in untraced:
            entry["end_to_end"] = _attach_units(untraced["end_to_end"], benchmark["end_to_end"])
            _print_metrics(f"end to end (median of {len(untraced['reps'])})", entry["end_to_end"])
            print(f"  summary_digest {entry['summary_digest']}")
        if "per_layer" in traced:
            entry["per_layer"] = _attach_units(traced["per_layer"], benchmark["per_layer"])
            if untraced.get("summary_digest") not in (None, traced["summary_digest"]):
                failed += 1
                print("  FAILED: traced and untraced passes summarise differently")
            _print_metrics("per layer (one traced run)", entry["per_layer"])
            _print_layer_table(entry["per_layer"])
        envelope["workloads"][name] = entry
    environment["loadavg_end"] = os.getloadavg()
    envelope["ops_failed"] = failed
    envelope["suite_seconds"] = time.monotonic() - started
    print(f"\nsuite: {envelope['suite_seconds']:.1f} s, {failed} failed operations, "
          f"src_lines {envelope['src_lines']}")
    if args.out is not None:
        _write_atomically(Path(args.out), envelope)
        print(f"wrote {args.out}")
    return 1 if failed else 0


def run_contract(args: argparse.Namespace, benchmark: dict, name: str) -> int:
    if args.trace == 0:
        result = untraced_pass(name, args.seed, args.smoke, args.seconds, args.reps)
        key, declared = "end_to_end", benchmark["end_to_end"]
    else:
        result = traced_pass(name, args.seed, args.smoke)
        key, declared = "per_layer", benchmark["per_layer"]
    _report_failures(result)
    if key not in result:
        print(f"{name}: no repetition succeeded, nothing to report", file=sys.stderr)
        return 1
    metrics = _attach_units(result[key], declared)
    _print_metrics(f"{name} seed {args.seed} trace {args.trace}", metrics)
    print(
        json.dumps(
            {
                "correct": result["ops_failed"] == 0,
                "attempted": result["ops_attempted"],
                "failed": result["ops_failed"],
                "metrics": {
                    key: {"value": metric["value"], "unit": metric["unit"]}
                    for key, metric in metrics.items()
                },
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="becomes spec.seed of every point")
    parser.add_argument("--seconds", type=float, help="untraced measuring time per workload")
    parser.add_argument("--reps", type=int, help="fixed repetition count (overrides --seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one pass only: 0 end-to-end, 1 per-layer; prints the result object")
    parser.add_argument("--smoke", action="store_true",
                        help="one rep, shrunk workloads and probes; checks only")
    parser.add_argument("--out", help="write the repro-bench-v1 envelope here (suite mode)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"{SRC}/repro not found: run from a checkout of the repository", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    if args.workload is not None and args.workload not in workloads.BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.BY_NAME)}")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if args.smoke:
        args.reps = 1
    names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]
    try:
        if args.trace is None:
            return run_suite(args, benchmark, names)
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_contract(args, benchmark, names[0])
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
