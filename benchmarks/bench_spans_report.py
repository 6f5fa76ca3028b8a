"""Span-tracing overhead report: hooks off, spans on, profiler on.

The one cost the performance ledger (``benchmarks/ledger/``) does not
measure.  The observability layer promises a near-free off switch: with no
:class:`~repro.trace.spans.SpanRecorder` attached and no
:class:`~repro.sim.profiler.SimProfiler` installed, the only cost the
instrumentation adds to the hot paths is an ``is None`` branch per hook
site and per dispatched callback.  This report runs one
``trace-replay-wan`` point interleaved A/B/C/A' and **gates on what is
deterministic**:

* every configuration must produce a bit-identical summary — behaviour
  neutrality is re-asserted on each run, not assumed;
* the off runs must make **zero** ``perf_counter`` reads in the event loop
  and zero :meth:`SimProfiler.record` calls, and the profiled run exactly
  two reads and one record per attributed callback.

The wall-clock ratios are printed and recorded, never asserted — on a
sub-second run an A/A pair differs by ±5 % from host noise alone:

* **off vs off** — the same both-layers-off configuration timed twice per
  repeat: the noise floor the other two ratios have to be read against;
* **spans on** — :class:`SpanRecorder` attached, plus the span-row count;
* **profiler on** — :class:`SimProfiler` installed (every dispatch pays
  two clock reads), plus attributed events.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_spans_report.py [--smoke]

``--smoke`` (CI) shortens the run.  Either way the entry goes to
``./BENCH_spans.json`` in the working directory only; nothing under
``benchmarks/`` is written.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments.catalog import get_scenario
from repro.experiments.engine import run_scenario
from repro.experiments.options import ExecutionOptions
from repro.sim import events
from repro.sim.profiler import SimProfiler
from repro.trace.observers import SpanSpec
from repro.trace.recorder import read_jsonl

OUTPUT_PATH = Path("BENCH_spans.json")
SCENARIO = "trace-replay-wan"


def _timed_run(spec, profiler=None):
    """Run ``spec``; returns the result, the wall seconds, and how often the
    event loop read its clock and any profiler's ``record`` was called."""
    calls = {"perf_counter": 0, "record": 0}
    record = SimProfiler.record

    def counting_clock() -> float:
        calls["perf_counter"] += 1
        return time.perf_counter()

    def counting_record(self, kind: str, elapsed: float) -> None:
        calls["record"] += 1
        record(self, kind, elapsed)

    events.perf_counter, SimProfiler.record = counting_clock, counting_record
    try:
        started = time.perf_counter()
        result = run_scenario(spec, options=ExecutionOptions(profiler=profiler))
        elapsed = time.perf_counter() - started
    finally:
        events.perf_counter, SimProfiler.record = time.perf_counter, record
    return result, elapsed, calls


def measure(duration: float, repeats: int) -> dict:
    base = replace(get_scenario(SCENARIO).base, duration=duration)
    seconds = {"off_a": [], "off_b": [], "spans": [], "profiler": []}
    span_rows = 0
    profiler_events = 0
    reference = None

    with tempfile.TemporaryDirectory() as tmp:
        span_spec = replace(base, spans=SpanSpec(enabled=True, out_dir=tmp))
        _timed_run(base)  # untimed warmup: imports, allocator, trace cache
        for _ in range(repeats):
            # Interleaved so drift (thermal, cache, scheduler) lands evenly
            # across configurations instead of biasing whichever ran last.
            off_a, t_off_a, calls_off_a = _timed_run(base)
            spans, t_spans, calls_spans = _timed_run(span_spec)
            profiler = SimProfiler()
            profiled, t_prof, calls_prof = _timed_run(base, profiler=profiler)
            off_b, t_off_b, calls_off_b = _timed_run(base)

            for result in (off_a, spans, profiled, off_b):
                summary = result.summary()
                if reference is None:
                    reference = summary
                elif summary != reference:
                    raise RuntimeError(
                        "span/profiler instrumentation changed the summary"
                    )
            for calls in (calls_off_a, calls_spans, calls_off_b):
                if any(calls.values()):
                    raise RuntimeError(f"profiling work with no profiler installed: {calls}")
            profiler_events = profiler.as_dict()["total_events"]
            if profiler_events <= 0 or calls_prof != {
                "perf_counter": 2 * profiler_events,
                "record": profiler_events,
            }:
                raise RuntimeError(
                    f"profiled run attributed {profiler_events} events with {calls_prof}"
                )
            seconds["off_a"].append(t_off_a)
            seconds["off_b"].append(t_off_b)
            seconds["spans"].append(t_spans)
            seconds["profiler"].append(t_prof)
            span_rows = len(read_jsonl(spans.span_path))

    best = {name: min(times) for name, times in seconds.items()}
    off = min(best["off_a"], best["off_b"])
    entry = {
        "scenario": SCENARIO,
        "duration": duration,
        "repeats": repeats,
        "off_seconds": off,
        # A/A ratio of the two interleaved off runs: the noise floor of this
        # host, against which the next two ratios are to be read.
        "both_off_overhead": max(best["off_a"], best["off_b"]) / off if off else 0.0,
        "spans_seconds": best["spans"],
        "spans_overhead": best["spans"] / off if off else 0.0,
        "span_rows": span_rows,
        "profiler_seconds": best["profiler"],
        "profiler_overhead": best["profiler"] / off if off else 0.0,
        "profiler_events": profiler_events,
    }
    return entry


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description="Span-tracing overhead report")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced pass for CI (short run, 1 repeat)",
    )
    args = parser.parse_args(argv)
    entry = measure(duration=3.0, repeats=1) if args.smoke else measure(duration=10.0, repeats=3)
    OUTPUT_PATH.write_text(json.dumps([entry], indent=2) + "\n", encoding="utf-8")
    print(
        f"off: {entry['off_seconds']:.2f}s wall for {entry['duration']:g}s virtual "
        f"(A/A noise floor x{entry['both_off_overhead']:.3f}; no clock read, "
        "no record call without a profiler)"
    )
    print(
        f"spans on: x{entry['spans_overhead']:.2f} wall "
        f"({entry['span_rows']} span rows)"
    )
    print(
        f"profiler on: x{entry['profiler_overhead']:.2f} wall "
        f"({entry['profiler_events']} events attributed)"
    )


if __name__ == "__main__":
    main()
