"""One repetition of one workload, in a fresh interpreter.

The parent (``run.py``) starts this file once per repetition, strictly one at
a time, so ``ru_maxrss`` is a true per-run peak and interpreter start-up and
imports are part of ``setup_s``.  The job arrives as one JSON argument; the
record leaves as the last line of stdout.

Modes:

``plain``   the end-to-end measurement: ``run_scenario`` per point, untraced.
``profile`` the same calls under ``cProfile``, rolled up into layers.
``twin``    an untraced run with timers around ``build_experiment`` /
            ``summarise_experiment`` and the built states kept, for the
            counters only the final state holds (bytes sent).
``probes``  the direct layer probes (no workload).
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]


def _run_points(points, profile: cProfile.Profile | None = None):
    """Run every point; returns the results and the summed host wall seconds."""
    from repro.experiments import run_scenario

    results, wall = [], 0.0
    for point in points:
        started = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            result = run_scenario(point.spec, point.overrides, options=point.options)
        finally:
            if profile is not None:
                profile.disable()
        wall += time.perf_counter() - started
        results.append(result)
    return results, wall


@contextmanager
def _boundary_timers(timings: dict[str, float], states: list):
    """Time the build and summarise phases from outside and keep the states.

    ``run_scenario`` returns summaries, not the simulation, and the engine
    looks both functions up in ``runner`` at call time — so wrapping them
    there observes the real run without a second code path.
    """
    from repro.experiments import runner

    build, summarise = runner.build_experiment, runner.summarise_experiment

    def timed_build(*args, **kwargs):
        started = time.perf_counter()
        state = build(*args, **kwargs)
        timings["build_s"] += time.perf_counter() - started
        states.append(state)
        return state

    def timed_summarise(state):
        started = time.perf_counter()
        result = summarise(state)
        timings["summarise_s"] += time.perf_counter() - started
        return result

    runner.build_experiment, runner.summarise_experiment = timed_build, timed_summarise
    try:
        yield
    finally:
        runner.build_experiment, runner.summarise_experiment = build, summarise


def main(job: dict) -> dict:
    spawned_at = job["spawned_at"]
    if job["mode"] == "probes":
        import probes

        ready = time.monotonic()
        return {
            "setup_s": ready - spawned_at,
            "probes": probes.run_probes(job["smoke"], Path(job["workdir"])),
        }

    import layers
    import workloads

    workdir = Path(job["workdir"])
    workload = workloads.BY_NAME[job["workload"]]
    points = workloads.resolve(workload, job["seed"], job["smoke"], workdir)
    ready = time.monotonic()

    record: dict = {"setup_s": ready - spawned_at}
    timings = {"build_s": 0.0, "summarise_s": 0.0}
    states: list = []
    if job["mode"] == "profile":
        profile = cProfile.Profile()
        results, wall = _run_points(points, profile)
        stats = pstats.Stats(profile).stats
        record["layers"] = layers.roll_up(stats)
    elif job["mode"] == "twin":
        with _boundary_timers(timings, states):
            results, wall = _run_points(points)
    else:
        results, wall = _run_points(points)

    failures = workloads.check_outputs(workload, results, points)
    runs = [result.result for result in results]
    latencies = [s["mean_p50_latency"] for s in (r.summary() for r in results)]
    record.update(
        {
            "wall_s": wall,
            "cpu_s": sum(os.times()[:2]),
            "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "tx_committed": sum(run.tx_committed for run in runs),
            "events_processed": sum(run.events_processed for run in runs),
            "sim_throughput_Bps": [run.mean_throughput for run in runs],
            "sim_latency_p50_s": latencies,
            "summary_digest": workloads.summary_digest(results),
            "failures": failures,
        }
    )
    if job["mode"] == "twin":
        bytes_sent = sum(
            stats.total_sent for state in states for stats in state.network.stats
        )
        fractions = [f for run in runs for f in run.dispersal_fractions]
        observer_files = [
            path for r in results for path in (r.telemetry_path, r.span_path) if path
        ]
        record["counters"] = {
            "experiments.build_s": timings["build_s"],
            "experiments.summarise_s": timings["summarise_s"],
            "sim.network.bytes_sent": bytes_sent,
            "sim.network.bytes_per_committed_tx": bytes_sent / max(record["tx_committed"], 1),
            "sim.network.dispersal_fraction": sum(fractions) / len(fractions),
            "trace.telemetry_rows": sum(
                workloads.observer_rows(r.telemetry_path) for r in results
            ),
            "trace.span_rows": sum(workloads.observer_rows(r.span_path) for r in results),
            "trace.bytes_written": sum(Path(path).stat().st_size for path in observer_files),
        }
        if workload.observers:
            # Observers must be behaviour-neutral: the same spec with
            # telemetry, spans and checkpoints off has to summarise identically.
            bare = workloads.resolve(
                workload, job["seed"], job["smoke"], workdir, observers=False
            )
            bare_digest = workloads.summary_digest(_run_points(bare)[0])
            if bare_digest != record["summary_digest"]:
                failures.append(
                    f"observers changed the summary: {record['summary_digest'][:12]} "
                    f"with, {bare_digest[:12]} without"
                )
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
