"""Checkpointing-cost report: plain-path speed, save/load cost, overhead.

Four measurements, appended to ``benchmarks/BENCH_snapshot.json`` so the
perf trajectory shows what snapshotability costs the hot path:

* **plain** — one ``trace-replay-wan`` point with checkpointing *disabled*;
  reported as simulator events/second.  This is the number the < 5 %
  regression budget for the snapshot refactor is judged against.
* **checkpointed** — the same point with ``checkpoint_every`` set so several
  checkpoints land mid-run; reports events/second, the wall-clock overhead
  ratio vs the plain run, and asserts the summary stays bit-identical.
* **save/load** — explicit ``save_checkpoint``/``load_checkpoint`` of a
  mid-run state: file size, save seconds, load seconds.
* **resume** — continue the loaded state to completion and assert the
  summary matches the uninterrupted run bit-for-bit.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_snapshot_report.py [--smoke]

``--smoke`` (CI) shortens the run and skips the JSON append.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments.catalog import get_scenario
from repro.experiments.engine import build_scenario, run_scenario
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import resume_experiment
from repro.sim.snapshot import load_checkpoint, save_checkpoint

OUTPUT_PATH = Path(__file__).parent / "BENCH_snapshot.json"
SCENARIO = "trace-replay-wan"


def _spec(duration: float):
    return replace(get_scenario(SCENARIO).base, duration=duration)


def measure(duration: float, checkpoints: int) -> dict:
    spec = _spec(duration)

    plain_started = time.perf_counter()
    plain = run_scenario(spec)
    plain_seconds = time.perf_counter() - plain_started
    events = plain.result.events_processed

    with tempfile.TemporaryDirectory() as tmp:
        ckpt_path = Path(tmp) / "bench.ckpt"
        ckpt_spec = replace(spec, checkpoint_every=duration / checkpoints)
        ckpt_started = time.perf_counter()
        checkpointed = run_scenario(ckpt_spec, options=ExecutionOptions(checkpoint_path=ckpt_path))
        ckpt_seconds = time.perf_counter() - ckpt_started
        checkpoint_bytes = ckpt_path.stat().st_size

        if plain.summary() != checkpointed.summary():
            raise RuntimeError("periodic checkpointing changed the scenario summary")

        # Explicit save/load of a mid-run state, timed in isolation.
        state = build_scenario(spec)
        state.sim.run(until=duration * 0.5)
        mid_path = Path(tmp) / "mid.ckpt"
        save_started = time.perf_counter()
        save_checkpoint(mid_path, state)
        save_seconds = time.perf_counter() - save_started
        load_started = time.perf_counter()
        restored = load_checkpoint(mid_path)
        load_seconds = time.perf_counter() - load_started

        _state, resumed = resume_experiment(restored)
        if plain.result.events_processed != resumed.events_processed:
            raise RuntimeError("resumed run diverged from the uninterrupted run")

    return {
        "scenario": SCENARIO,
        "duration": duration,
        "events_processed": events,
        "plain_seconds": plain_seconds,
        "plain_events_per_second": events / plain_seconds if plain_seconds else 0.0,
        "checkpointed_seconds": ckpt_seconds,
        "checkpointed_events_per_second": (
            events / ckpt_seconds if ckpt_seconds else 0.0
        ),
        "checkpoint_overhead": ckpt_seconds / plain_seconds if plain_seconds else 0.0,
        "checkpoints_requested": checkpoints,
        "checkpoint_bytes": checkpoint_bytes,
        "save_seconds": save_seconds,
        "load_seconds": load_seconds,
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Checkpointing-cost report")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced pass for CI (short run); no JSON append",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        entry = measure(duration=4.0, checkpoints=4)
    else:
        entry = measure(duration=15.0, checkpoints=6)
        history: list[dict] = []
        if OUTPUT_PATH.exists():
            history = json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))
        history.append(entry)
        OUTPUT_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
        print(f"appended entry #{len(history)} to {OUTPUT_PATH}")
    print(
        f"plain: {entry['duration']:g}s virtual in {entry['plain_seconds']:.2f}s "
        f"({entry['plain_events_per_second']:,.0f} events/s)"
    )
    print(
        f"checkpointed: x{entry['checkpoint_overhead']:.3f} wall, "
        f"{entry['checkpoint_bytes'] / 1e6:.2f} MB/checkpoint, "
        f"save {entry['save_seconds'] * 1e3:.1f} ms, "
        f"load {entry['load_seconds'] * 1e3:.1f} ms"
    )


if __name__ == "__main__":
    main()
