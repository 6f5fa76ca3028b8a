"""Windowed-execution report: shared-prefix sweep speedup vs monolithic.

One measurement the performance ledger (``benchmarks/ledger/``) does not
take — pool and prefix-tree speed-up — written to ``./BENCH_windowed.json``:
a four-point warmup-only sweep — the best case for the shared-prefix checkpoint tree,
since warmup acts only at summary time and the points agree on every window
boundary — run three ways over the same grid:

* **monolithic sequential** — one window per point, in this process
  (``options=ExecutionOptions(parallel=False)``), the baseline every speedup
  is judged against;
* **windowed parallel** — ``windows=W, workers=4``: the leader runs the
  shared prefix once, the three followers fork its deepest checkpoint and
  simulate only the final window each (``1 + 3/W`` monolithic units of
  work instead of 4);
* **windowed serial** — same plan on one worker, isolating the prefix-tree
  savings from process scheduling.

Summaries of all three runs are asserted byte-identical before any number
is reported, and the entry records the acceptance floor: windowed parallel
must beat monolithic sequential by >= 1.5x.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_windowed_report.py [--smoke]

``--smoke`` (CI) shortens the horizon and skips the floor check.  Either
way the entry goes to the working directory only (CI uploads it as an
artifact); nothing under ``benchmarks/`` is written.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro.core.config import NodeConfig
from repro.experiments.engine import sweep
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import WorkloadSpec
from repro.experiments.scenario import BandwidthSpec, ScenarioSpec, TopologySpec

OUTPUT_PATH = Path("BENCH_windowed.json")
MB = 1_000_000.0
SPEEDUP_FLOOR = 1.5


def _base(duration: float) -> ScenarioSpec:
    return ScenarioSpec(
        name="windowed-bench",
        topology=TopologySpec(kind="uniform", num_nodes=10, delay=0.05),
        bandwidth=BandwidthSpec(kind="constant", rate=2 * MB),
        workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=50_000.0),
        node=NodeConfig(max_block_size=10_000, nagle_size=10_000),
        duration=duration,
        warmup_fraction=0.0,
    )


def measure(duration: float, windows: int, workers: int) -> dict:
    base = _base(duration)
    # Four warmup points: summary-time-only knobs, so the prefix tree shares
    # every window but the last across all of them.
    grid = {"warmup": tuple(duration * f for f in (0.125, 0.25, 0.375, 0.5))}

    mono_started = time.perf_counter()
    mono = sweep(base, grid, options=ExecutionOptions(parallel=False))
    mono_seconds = time.perf_counter() - mono_started

    par_started = time.perf_counter()
    par = sweep(
        base, grid, options=ExecutionOptions(windows=windows, workers=workers)
    )
    par_seconds = time.perf_counter() - par_started

    serial_started = time.perf_counter()
    serial = sweep(
        base, grid, options=ExecutionOptions(parallel=False, windows=windows)
    )
    serial_seconds = time.perf_counter() - serial_started

    if par.summaries() != mono.summaries():
        raise RuntimeError("windowed parallel sweep diverged from monolithic")
    if serial.summaries() != mono.summaries():
        raise RuntimeError("windowed serial sweep diverged from monolithic")

    return {
        "scenario": "windowed-bench",
        "duration": duration,
        "points": len(mono.points),
        "windows": windows,
        "workers": workers,
        "events_processed": sum(p.result.events_processed for p in mono.points),
        "monolithic_seconds": mono_seconds,
        "windowed_parallel_seconds": par_seconds,
        "windowed_serial_seconds": serial_seconds,
        "parallel_speedup": mono_seconds / par_seconds if par_seconds else 0.0,
        "serial_speedup": mono_seconds / serial_seconds if serial_seconds else 0.0,
        "speedup_floor": SPEEDUP_FLOOR,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Windowed-execution report")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced pass for CI (short horizon): no floor check",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        entry = measure(duration=4.0, windows=4, workers=2)
    else:
        entry = measure(duration=16.0, windows=8, workers=4)
        if entry["parallel_speedup"] < SPEEDUP_FLOOR:
            raise RuntimeError(
                f"windowed parallel speedup {entry['parallel_speedup']:.2f}x is "
                f"below the {SPEEDUP_FLOOR}x floor"
            )
    OUTPUT_PATH.write_text(json.dumps([entry], indent=2) + "\n", encoding="utf-8")
    print(f"wrote entry to {OUTPUT_PATH}")
    print(
        f"{entry['points']}-point warmup sweep, {entry['duration']:g}s horizon, "
        f"W={entry['windows']}: monolithic {entry['monolithic_seconds']:.2f}s"
    )
    print(
        f"windowed parallel ({entry['workers']} workers): "
        f"{entry['windowed_parallel_seconds']:.2f}s "
        f"({entry['parallel_speedup']:.2f}x), serial: "
        f"{entry['windowed_serial_seconds']:.2f}s "
        f"({entry['serial_speedup']:.2f}x)"
    )


if __name__ == "__main__":
    main()
