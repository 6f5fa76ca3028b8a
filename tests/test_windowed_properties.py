"""Every execution strategy is invisible: byte-identical summaries and observer files.

The oracle is ``tests/conftest.py::reference_run`` — build, one
``sim.run``, finish, summarise, write — which shares no stop, task or
scheduler code with the engine under test.  Three layers of evidence,
mirroring the snapshot property suite:

* a hypothesis property — arbitrary fast-tier catalog scenarios at
  arbitrary window counts, with and without periodic checkpoints (including
  a cadence that lands on the horizon), telemetry and spans on, must produce
  the reference's summary, telemetry bytes and span bytes — and so must a
  run resumed from the periodic checkpoint file;
* a deterministic sweep over every fast-tier golden ``sim`` scenario's
  *full pinned grid*, windowed, diffed against the golden snapshot on disk
  — so windowed runs answer to exactly the same regression net as
  one-window runs;
* a fork-point property — a warmup-only grid, which shares one window-0
  execution across all points, serial and on a two-worker pool, compared
  byte for byte against per-point reference runs.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.experiments.catalog import get_scenario
from repro.experiments.engine import run_scenario, sweep
from repro.experiments.golden import (
    GOLDEN_CONFIGS,
    SLOW_GOLDEN,
    GoldenConfig,
    golden_names,
    golden_points,
)
from repro.experiments.options import ExecutionOptions
from repro.experiments.scenario import apply_overrides, expand_grid
from repro.experiments.windowed import plan_windowed_points
from repro.sim.snapshot import read_snapshot_header
from repro.trace.recorder import TelemetrySpec
from repro.trace.spans import SpanSpec
from tests.conftest import reference_run

GOLDEN_DIR = Path(__file__).parent / "golden"


def _fast_sim_golden_names() -> list[str]:
    names = []
    for name in golden_names():
        if name in SLOW_GOLDEN:
            continue
        _config, base, _points = golden_points(name)
        if base.kind == "sim":
            names.append(name)
    return names


def _pinned_grid(name: str) -> dict:
    """The same grid :func:`golden_points` expands for the scenario."""
    entry = get_scenario(name)
    config = GOLDEN_CONFIGS.get(name, GoldenConfig())
    return dict(entry.grid or {}) if config.grid is None else dict(config.grid)


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _observed(spec, out_dir: Path):
    """``spec`` with telemetry and spans recording into ``out_dir``."""
    return replace(
        spec,
        telemetry=TelemetrySpec(enabled=True, interval=0.25, out_dir=str(out_dir)),
        spans=SpanSpec(enabled=True, out_dir=str(out_dir)),
    )


def _outputs(point) -> tuple[str, bytes, bytes]:
    return (
        _canon(point.summary()),
        Path(point.telemetry_path).read_bytes(),
        Path(point.span_path).read_bytes(),
    )


_REFERENCE_CACHE: dict[tuple, tuple[str, bytes, bytes]] = {}


def _reference(name: str, tmp_path_factory, overrides: dict | None = None):
    """The straight-line run of a scenario's first golden point (cached)."""
    key = (name, _canon(overrides))
    if key not in _REFERENCE_CACHE:
        _config, _base, points = golden_points(name)
        spec = _observed(points[0][1], tmp_path_factory.mktemp("reference"))
        spec = apply_overrides(spec, overrides or {})
        summary, telemetry, spans = reference_run(
            spec, overrides, Path(spec.telemetry.out_dir)
        )
        assert telemetry and spans
        _REFERENCE_CACHE[key] = (_canon(summary), telemetry, spans)
    return _REFERENCE_CACHE[key]


# The same diverse fast-tier slice the snapshot properties use: plain
# replay, a mid-run crash, both node-class adversaries, heterogeneous
# stragglers.
PROPERTY_SCENARIOS = (
    "trace-replay-wan",
    "mid-run-crash",
    "censor-victim",
    "equivocate-split",
    "straggler-hetero",
)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(
    name=st.sampled_from(PROPERTY_SCENARIOS),
    windows=st.integers(min_value=1, max_value=5),
    # T/4 lands a multiple on the horizon itself, T/3 does not.
    checkpoints=st.sampled_from((None, 3, 4)),
)
@example(name="trace-replay-wan", windows=1, checkpoints=4)
@example(name="mid-run-crash", windows=1, checkpoints=3)
@example(name="censor-victim", windows=4, checkpoints=4)
def test_windowed_summary_is_byte_identical(
    name: str, windows: int, checkpoints: int | None, tmp_path_factory
):
    tmp = tmp_path_factory.mktemp("windowed")
    _config, _base, points = golden_points(name)
    spec = _observed(points[0][1], tmp)
    if checkpoints is not None:
        spec = replace(spec, checkpoint_every=spec.duration / checkpoints)
    periodic = tmp / "periodic.ckpt"
    result = sweep(
        spec,
        None,
        options=ExecutionOptions(parallel=False, windows=windows, checkpoint_path=periodic),
    )
    assert result.windows == (windows if windows > 1 else None)
    reference = _reference(name, tmp_path_factory)
    assert _outputs(result.points[0]) == reference

    # Hand-off checkpoints subsume the periodic ones; a one-window run
    # leaves the last multiple strictly inside the horizon on disk, and
    # resuming from it re-emits the same three outputs.
    assert periodic.exists() == (checkpoints is not None and windows == 1)
    if periodic.exists():
        assert read_snapshot_header(periodic)["virtual_time"] == (
            (checkpoints - 1) * spec.checkpoint_every
        )
        resumed = run_scenario(
            spec, options=ExecutionOptions(resume_from=periodic, checkpoint_path=periodic)
        )
        assert _outputs(resumed) == reference


@pytest.mark.parametrize("name", _fast_sim_golden_names())
def test_fast_golden_grids_run_windowed_to_pinned_snapshot(name: str):
    """Every fast golden scenario's full pinned grid, windowed, vs its snapshot."""
    _config, base, _points = golden_points(name)
    result = sweep(
        base, _pinned_grid(name), options=ExecutionOptions(parallel=False, windows=3)
    )
    pinned = json.loads((GOLDEN_DIR / f"{name}.json").read_text())["summaries"]
    assert [_canon(point.summary()) for point in result.points] == [
        _canon(summary) for summary in pinned
    ]


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(
    name=st.sampled_from(("trace-replay-wan", "straggler-hetero")),
    windows=st.integers(min_value=1, max_value=4),
    pooled=st.booleans(),
)
@example(name="trace-replay-wan", windows=3, pooled=True)
@example(name="straggler-hetero", windows=1, pooled=True)
def test_forked_prefix_with_telemetry_is_byte_identical(
    name: str, windows: int, pooled: bool, tmp_path_factory
):
    """A warmup-only grid forks one shared prefix; everything still matches."""
    _config, _base, points = golden_points(name)
    spec = _observed(points[0][1], tmp_path_factory.mktemp("windowed"))
    warmups = (0.0, spec.duration / 4, spec.duration / 2)
    grid = {"warmup": warmups}
    plans = plan_windowed_points(expand_grid(spec, grid), windows)
    assert [plan.leader for plan in plans] == ([None, 0, 0] if windows > 1 else [None] * 3)

    result = sweep(
        spec, grid, options=ExecutionOptions(parallel=pooled, workers=2, windows=windows)
    )
    assert result.workers == (2 if pooled else 1)
    for warmup, point in zip(warmups, result.points):
        assert _outputs(point) == _reference(name, tmp_path_factory, {"warmup": warmup})
