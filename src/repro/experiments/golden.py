"""Golden-summary snapshots: pin every catalog scenario's summary bit-for-bit.

The engine's summaries are pure functions of their spec (every stochastic
input derives from ``seed``), so a summary can be snapshotted once and
diffed exactly — the regression net that lets perf PRs (event-loop or pipe
rewrites, codec changes) prove behaviour is pinned.  The harness here is
shared by the pytest suite (``tests/test_golden_summaries.py``, snapshots
under ``tests/golden/``) and by ``pytest --update-golden`` regeneration.

Golden runs are the catalog entries at *pinned short durations* (seconds of
virtual time, so the whole suite stays inside a test budget) with the most
expensive axes trimmed; :data:`GOLDEN_CONFIGS` is the single place those
pins live, and the pinned configuration is embedded in each snapshot so a
change to the pins shows up in the snapshot diff too.

The suite is split into two tiers so local tier-1 runs stay snappy: the
scenarios in :data:`SLOW_GOLDEN` (the big geo testbeds and widest sweeps,
~50 s of the suite's ~65 s) carry the ``slow`` pytest marker, which
``pytest.ini`` deselects by default — a plain ``pytest`` run verifies the
fast tier only, while CI's golden step (and a local
``pytest tests/test_golden_summaries.py -m golden``) runs both tiers.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from repro.experiments.catalog import get_scenario, list_scenarios
from repro.experiments.engine import run_points, run_scenario
from repro.experiments.options import ExecutionOptions
from repro.experiments.scenario import apply_overrides, expand_grid
from repro.trace.analysis import summarise_telemetry
from repro.trace.diff import envelope_from_summary
from repro.trace.recorder import TelemetrySpec, read_jsonl

#: Default virtual duration of a golden run.
GOLDEN_DURATION = 3.0


@dataclass(frozen=True)
class GoldenConfig:
    """How one catalog scenario is pinned for its golden snapshot.

    Attributes:
        duration: virtual seconds per point (short by design).
        overrides: dotted-path overrides applied to the base spec, used to
            move mid-run events (crash times, warmups) inside the shortened
            window.
        grid: replacement sweep axes; ``None`` keeps the catalog grid.  Used
            to keep the most expensive axes (N = 32 clusters, wide load
            sweeps) out of the per-commit regression loop — the trimmed axes
            are still exercised by the benchmarks.
    """

    duration: float = GOLDEN_DURATION
    overrides: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, tuple] | None = None


GOLDEN_CONFIGS: dict[str, GoldenConfig] = {
    # vid-cost is analytic plus one measured dispersal; duration is unused.
    "fig02-vid-cost": GoldenConfig(),
    "fig08-geo": GoldenConfig(duration=2.5),
    "fig10-latency": GoldenConfig(
        duration=2.5,
        grid={
            "protocol": ("dl", "hb"),
            "workload.rate_bytes_per_second": (1_000_000.0,),
        },
    ),
    "fig11a-spatial": GoldenConfig(duration=2.5, grid={"protocol": ("dl", "hb")}),
    "fig11b-temporal": GoldenConfig(
        duration=2.5,
        grid={
            "protocol": ("dl",),
            "trace": (
                {"bandwidth.kind": "constant"},
                {"bandwidth.kind": "gauss-markov"},
            ),
        },
    ),
    "fig12-scalability": GoldenConfig(
        duration=2.5,
        grid={
            "topology.num_nodes": (16,),
            "block": (
                {"node.max_block_size": 500_000, "node.nagle_size": 500_000},
                {"node.max_block_size": 1_000_000, "node.nagle_size": 1_000_000},
            ),
        },
    ),
    "fig15-vultr": GoldenConfig(duration=2.5, grid={"protocol": ("dl", "hb")}),
    "straggler-hetero": GoldenConfig(duration=2.5, grid={"protocol": ("dl", "hb")}),
    "trace-replay-wan": GoldenConfig(duration=2.5),
    "trace-scale-sweep": GoldenConfig(duration=2.5, grid={"bandwidth.trace_scale": (0.5, 2.0)}),
    "columnar-scale": GoldenConfig(duration=2.0),
    "mid-run-crash": GoldenConfig(overrides={"adversary.crash_time": 1.5}),
    "bursty-load": GoldenConfig(duration=4.0, overrides={"warmup": 1.0}),
    "latency-fault-matrix": GoldenConfig(
        grid={
            "workload.rate_bytes_per_second": (500_000.0,),
            "faults": (
                {"adversary.kind": "none", "adversary.count": 0},
                {"adversary.kind": "crash", "adversary.count": 1},
                {"adversary.kind": "crash", "adversary.count": 2},
                {"adversary.kind": "crash-after", "adversary.count": 2,
                 "adversary.crash_time": 1.5},
                {"adversary.kind": "censor", "adversary.count": 2},
                {"adversary.kind": "equivocate", "adversary.count": 1},
            ),
        },
    ),
}


#: Scenarios whose golden runs dominate the suite's wall clock (>= ~6 s
#: each on the reference single-core box: the 15/16-city geo testbeds, the
#: N = 16 controlled and scalability sweeps, and the 4 s bursty-load run).
#: Their snapshot tests carry the ``slow`` marker and are deselected from
#: plain ``pytest`` runs; CI's golden step runs them on every push.
SLOW_GOLDEN: frozenset[str] = frozenset(
    {
        "bursty-load",
        "columnar-scale",
        "fig08-geo",
        "fig10-latency",
        "fig11a-spatial",
        "fig11b-temporal",
        "fig12-scalability",
        "fig15-vultr",
    }
)


def golden_names() -> list[str]:
    """Every scenario with a golden snapshot: the whole catalog, sorted."""
    return [entry.name for entry in list_scenarios()]


def golden_points(name: str):
    """The pinned ``(overrides, spec)`` grid points for one scenario."""
    entry = get_scenario(name)
    config = GOLDEN_CONFIGS.get(name, GoldenConfig())
    # Overrides first: a shortened duration may only be valid once e.g. the
    # warmup override has moved inside the new window.
    base = apply_overrides(entry.base, dict(config.overrides))
    base = replace(base, duration=config.duration)
    grid = dict(entry.grid or {}) if config.grid is None else dict(config.grid)
    return config, base, expand_grid(base, grid)


def golden_payload(name: str) -> dict[str, Any]:
    """Run one scenario's pinned points (serially) and collect the snapshot."""
    config, base, points = golden_points(name)
    results, _ = run_points(points, options=ExecutionOptions(workers=1))
    return {
        "scenario": name,
        "golden": {
            "duration": config.duration,
            "overrides": dict(config.overrides),
            "points": len(points),
        },
        "summaries": [result.summary() for result in results],
    }


# ---------------------------------------------------------------------------
# Telemetry envelopes
#
# A golden *summary* pins the run's end state bit-for-bit; a golden
# *envelope* pins the run's telemetry — the per-node time-weighted mean/max
# of every queue and utilisation series — within declared tolerances (see
# :mod:`repro.trace.diff`).  Summaries catch behaviour changes; envelopes
# catch the regressions summaries can't see, like a queue that now spikes
# 10x mid-run but drains before the end.  Envelopes live under
# ``tests/golden/envelopes/`` and regenerate through the same
# ``pytest --update-golden`` flow; CI additionally re-records the scenario
# and diffs it against the pinned file on every push.


@dataclass(frozen=True)
class EnvelopeConfig:
    """How one catalog scenario is pinned for its telemetry envelope.

    Attributes:
        duration: virtual seconds recorded (short, like the golden runs).
        interval: telemetry sampling interval in virtual seconds.
        seed: master seed of the recorded run.
        overrides: dotted-path overrides applied to the base spec.
    """

    duration: float = 6.0
    interval: float = 0.5
    seed: int = 0
    overrides: Mapping[str, Any] = field(default_factory=dict)

    def run_fields(self) -> dict[str, Any]:
        """The envelope's ``run`` block — what reproduces the recording."""
        return {
            "duration": self.duration,
            "interval": self.interval,
            "seed": self.seed,
            "overrides": dict(self.overrides),
        }


#: The scenarios that pin a telemetry envelope.  Deliberately a subset of
#: the golden catalog: an envelope only earns its keep where telemetry has
#: structure worth guarding (measured-bandwidth replay, saturated queues).
ENVELOPE_CONFIGS: dict[str, EnvelopeConfig] = {
    "trace-replay-wan": EnvelopeConfig(duration=6.0, interval=0.5),
    "straggler-hetero": EnvelopeConfig(duration=6.0, interval=0.5),
    "censor-victim": EnvelopeConfig(duration=6.0, interval=0.5),
    # bursty-load's catalog warmup (5 s) would swallow most of a 6 s pin, so
    # the envelope run shortens it; the burst structure is what we pin.
    "bursty-load": EnvelopeConfig(
        duration=6.0, interval=0.5, overrides={"warmup": 1.0}
    ),
}


def envelope_names() -> list[str]:
    """The scenarios with a pinned envelope, sorted."""
    return sorted(ENVELOPE_CONFIGS)


def record_envelope_rows(name: str) -> list[dict[str, Any]]:
    """Run one envelope scenario's pinned recording; returns telemetry rows."""
    entry = get_scenario(name)
    config = ENVELOPE_CONFIGS[name]
    base = apply_overrides(entry.base, dict(config.overrides))
    with tempfile.TemporaryDirectory(prefix="repro-envelope-") as scratch:
        spec = replace(
            base,
            duration=config.duration,
            seed=config.seed,
            telemetry=TelemetrySpec(
                enabled=True, interval=config.interval, out_dir=scratch
            ),
        )
        result = run_scenario(spec)
        return read_jsonl(Path(result.telemetry_path))


def envelope_payload(name: str) -> dict[str, Any]:
    """Record one envelope scenario and reduce it to its pinnable envelope."""
    config = ENVELOPE_CONFIGS[name]
    summary = summarise_telemetry(record_envelope_rows(name))
    return envelope_from_summary(summary, scenario=name, run=config.run_fields())
