"""Snapshot/restore/continue must be invisible: byte-identical summaries.

Five layers of evidence:

* a hypothesis property — arbitrary fast-tier catalog scenarios snapshotted
  at arbitrary mid-run times, restored **in a fresh process** (via the
  ``resume`` CLI subcommand) and continued, must reproduce the clean run's
  summary JSON byte-for-byte, event counts included;
* a deterministic sweep over every fast-tier golden ``sim`` scenario,
  snapshotting its first pinned point mid-run and diffing the fresh-process
  continuation against the pinned golden snapshot on disk — and running its
  full pinned grid with periodic checkpoints, and again on a two-worker
  pool, against the same snapshot;
* a structural probe asserting the chosen snapshot time really does land
  mid-epoch, mid-dispersal and mid-transfer — so the suite cannot quietly
  degrade into snapshotting quiesced states only;
* the express network's pending unicast trains and the mempools' staged
  runs: a periodic checkpoint that lands on them continues to the clean
  run's summary;
* observer files through the engine — a run with periodic checkpoints
  (including a cadence that lands on the horizon), the run resumed from its
  last checkpoint file, and every point of a two-worker pooled sweep must
  each write the summary, telemetry bytes and span bytes of
  ``tests/conftest.py::reference_run``, which shares no stop or task code
  with the engine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import apply_overrides, get_scenario
from repro.experiments.engine import DEFAULT_CHECKPOINT_DIR, run_scenario, sweep
from repro.experiments.golden import (
    GOLDEN_CONFIGS,
    SLOW_GOLDEN,
    GoldenConfig,
    golden_names,
    golden_points,
)
from repro.experiments.options import ExecutionOptions
from repro.experiments.scenario import ScenarioSpec
from repro.core.mempool import _ROW_WIDTH
from repro.sim.network import _ExpressTrain
from repro.sim.snapshot import load_checkpoint, read_snapshot_header, save_checkpoint
from repro.trace.recorder import TelemetrySpec
from repro.trace.spans import SpanSpec
from tests.conftest import build_scenario_state, reference_run

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _fast_sim_golden_names() -> list[str]:
    names = []
    for name in golden_names():
        if name in SLOW_GOLDEN:
            continue
        _config, base, _points = golden_points(name)
        if base.kind == "sim":
            names.append(name)
    return names


def _resume_in_fresh_process(checkpoint: Path) -> dict:
    """Continue ``checkpoint`` via the CLI in a brand-new interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "resume", str(checkpoint), "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_CLEAN_CACHE: dict[str, dict] = {}


def _clean_first_point_summary(name: str) -> dict:
    """The uninterrupted summary of a scenario's first golden point (cached)."""
    if name not in _CLEAN_CACHE:
        _config, _base, points = golden_points(name)
        overrides, spec = points[0]
        _CLEAN_CACHE[name] = run_scenario(spec, overrides).summary()
    return _CLEAN_CACHE[name]


# A diverse slice of the fast tier: plain replay, a mid-run crash, both
# node-class adversaries, and the heterogeneous-straggler topology.
PROPERTY_SCENARIOS = (
    "trace-replay-wan",
    "mid-run-crash",
    "censor-victim",
    "equivocate-split",
    "straggler-hetero",
)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(
    name=st.sampled_from(PROPERTY_SCENARIOS),
    fraction=st.floats(min_value=0.1, max_value=0.9),
)
def test_snapshot_restore_continue_is_byte_identical(name: str, fraction: float):
    _config, _base, points = golden_points(name)
    overrides, spec = points[0]
    state = build_scenario_state(spec, overrides)
    state.sim.run(until=spec.duration * fraction)
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "mid.ckpt"
        save_checkpoint(checkpoint, state)
        resumed = _resume_in_fresh_process(checkpoint)
    clean = _clean_first_point_summary(name)
    assert json.dumps(resumed, sort_keys=True) == json.dumps(clean, sort_keys=True)
    assert resumed["events_processed"] == clean["events_processed"]


@pytest.mark.parametrize("name", _fast_sim_golden_names())
def test_fast_golden_scenarios_resume_to_pinned_snapshot(name: str, tmp_path):
    """Snapshot mid-run, restore in a fresh process, diff against the golden."""
    _config, _base, points = golden_points(name)
    overrides, spec = points[0]
    state = build_scenario_state(spec, overrides)
    state.sim.run(until=spec.duration * 0.37)
    checkpoint = tmp_path / f"{name}.ckpt"
    save_checkpoint(checkpoint, state)
    resumed = _resume_in_fresh_process(checkpoint)
    pinned = json.loads((GOLDEN_DIR / f"{name}.json").read_text())["summaries"][0]
    assert json.dumps(resumed, sort_keys=True) == json.dumps(pinned, sort_keys=True)


def _pinned_grid(name: str) -> dict:
    """The same grid :func:`golden_points` expands for the scenario."""
    entry = get_scenario(name)
    config = GOLDEN_CONFIGS.get(name, GoldenConfig())
    return dict(entry.grid or {}) if config.grid is None else dict(config.grid)


def _pinned_summaries(name: str) -> list[str]:
    summaries = json.loads((GOLDEN_DIR / f"{name}.json").read_text())["summaries"]
    return [json.dumps(summary, sort_keys=True) for summary in summaries]


@pytest.mark.parametrize("name", _fast_sim_golden_names())
def test_fast_golden_grids_run_checkpointed_to_pinned_snapshot(
    name: str, tmp_path, monkeypatch
):
    """Every fast golden scenario's full pinned grid, checkpointing at T/3 and 2T/3."""
    monkeypatch.chdir(tmp_path)
    _config, base, _points = golden_points(name)
    periodic = replace(base, checkpoint_every=base.duration / 3)
    result = sweep(periodic, _pinned_grid(name), options=ExecutionOptions(parallel=False))
    assert [json.dumps(p.summary(), sort_keys=True) for p in result.points] == (
        _pinned_summaries(name)
    )
    assert len(list((tmp_path / DEFAULT_CHECKPOINT_DIR).iterdir())) == len(result.points)


@pytest.mark.parametrize("name", _fast_sim_golden_names())
def test_fast_golden_grids_run_pooled_to_pinned_snapshot(name: str):
    """Every fast golden scenario's full pinned grid, on a two-worker pool."""
    _config, base, _points = golden_points(name)
    result = sweep(base, _pinned_grid(name), options=ExecutionOptions(workers=2))
    assert result.workers == min(2, len(result.points))
    assert [json.dumps(p.summary(), sort_keys=True) for p in result.points] == (
        _pinned_summaries(name)
    )


def test_snapshot_point_lands_mid_epoch_mid_dispersal_mid_transfer():
    """Mid-run snapshot times inside the property range are genuinely mid-flight."""
    _config, _base, points = golden_points("trace-replay-wan")
    overrides, spec = points[0]
    state = build_scenario_state(spec, overrides)
    state.sim.run(until=spec.duration * 0.5)
    # Mid-epoch: proposal frontier ahead of the delivery frontier.
    assert any(n.current_epoch > n.delivered_epoch for n in state.nodes)
    # Mid-dispersal: VID instances still outstanding.
    assert any(len(n._vid_instances) > 0 for n in state.nodes)
    # Mid-transfer: at least one egress pipe is actively draining bytes, and
    # further transfers are queued behind it.
    assert any(pipe._busy for pipe in state.network._egress)
    assert any(
        pipe._fifo or pipe._heap for pipe in state.network._egress
    )
    # And the event queue is non-trivial (slotted entries to snapshot).
    assert len(state.sim._queue) > 0


# ---------------------------------------------------------------------------
# Express trains across a checkpoint
# ---------------------------------------------------------------------------


def _scale22() -> ScenarioSpec:
    """``columnar-scale`` at N=22, cut right after its one epoch delivers.

    The N^2 (N-1) retrieval chunks are in flight — as one pending express
    train — between t=0.30 and t=0.35, so a checkpoint at t=0.32 lands on it.
    """
    return apply_overrides(
        get_scenario("columnar-scale").base, {"topology.num_nodes": 22, "duration": 0.48}
    )


def test_checkpoint_with_a_pending_express_train_resumes_byte_identically(tmp_path):
    spec = _scale22()
    clean = run_scenario(spec).summary()
    assert clean["delivered_epochs"] == 1

    checkpoint = tmp_path / "scale22.ckpt"
    periodic = replace(spec, checkpoint_every=0.32)
    full = run_scenario(periodic, options=ExecutionOptions(checkpoint_path=checkpoint))
    assert json.dumps(full.summary(), sort_keys=True) == json.dumps(clean, sort_keys=True)

    # The one checkpoint (t=0.32; the next would fall past the horizon)
    # holds the retrieval plane as a pending train, still open for members.
    state = load_checkpoint(checkpoint)
    assert state.sim.now == 0.32
    trains = [entry[2] for entry in state.sim._queue if type(entry[2]) is _ExpressTrain]
    assert [len(train.msgs) for train in trains] == [22 * 22 * 21]
    assert state.network._train is trains[0]

    resumed = _resume_in_fresh_process(checkpoint)
    assert json.dumps(resumed, sort_keys=True) == json.dumps(clean, sort_keys=True)
    assert resumed["events_processed"] == clean["events_processed"]


# Staged transactions across a checkpoint
# ---------------------------------------------------------------------------


def _poisson7() -> ScenarioSpec:
    """``latency-fault-matrix`` for 2 s: per-arrival submission, Nagle-timer blocks.

    Between two proposals every mempool holds the arrivals since the last
    one as a staged run, not yet a batch; t=0.73 is no proposal instant.
    """
    return apply_overrides(get_scenario("latency-fault-matrix").base, {"duration": 2.0})


def test_checkpoint_with_staged_transactions_resumes_byte_identically(tmp_path):
    spec = _poisson7()
    clean = run_scenario(spec).summary()
    assert clean["delivered_epochs"] > 1

    checkpoint = tmp_path / "poisson7.ckpt"
    periodic = replace(spec, checkpoint_every=0.73)
    full = run_scenario(periodic, options=ExecutionOptions(checkpoint_path=checkpoint))
    assert json.dumps(full.summary(), sort_keys=True) == json.dumps(clean, sort_keys=True)

    # The last periodic checkpoint (t=1.46) caught every mempool mid-window.
    state = load_checkpoint(checkpoint)
    assert state.sim.now == 1.46
    staged = [len(node.mempool._staged) // _ROW_WIDTH for node in state.nodes]
    assert all(staged)
    assert [node.mempool.pending_count for node in state.nodes] >= staged

    resumed = _resume_in_fresh_process(checkpoint)
    assert json.dumps(resumed, sort_keys=True) == json.dumps(clean, sort_keys=True)


# ---------------------------------------------------------------------------
# Observer files through the engine
# ---------------------------------------------------------------------------


def _canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _observed(spec: ScenarioSpec, out_dir: Path) -> ScenarioSpec:
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


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(
    name=st.sampled_from(PROPERTY_SCENARIOS),
    # T/4 lands a multiple on the horizon itself, T/3 does not.
    checkpoints=st.sampled_from((None, 3, 4)),
)
@example(name="trace-replay-wan", checkpoints=4)
@example(name="mid-run-crash", checkpoints=3)
@example(name="censor-victim", checkpoints=4)
def test_checkpointed_and_resumed_runs_write_the_reference_outputs(
    name: str, checkpoints: int | None, tmp_path_factory
):
    tmp = tmp_path_factory.mktemp("checkpointed")
    _config, _base, points = golden_points(name)
    spec = _observed(points[0][1], tmp)
    if checkpoints is not None:
        spec = replace(spec, checkpoint_every=spec.duration / checkpoints)
    periodic = tmp / "periodic.ckpt"
    result = sweep(
        spec, None, options=ExecutionOptions(parallel=False, checkpoint_path=periodic)
    )
    reference = _reference(name, tmp_path_factory)
    assert _outputs(result.points[0]) == reference

    # The last multiple strictly inside the horizon is left on disk, and
    # resuming from it re-emits the same three outputs.
    assert periodic.exists() == (checkpoints is not None)
    if periodic.exists():
        assert read_snapshot_header(periodic)["virtual_time"] == (
            (checkpoints - 1) * spec.checkpoint_every
        )
        resumed = run_scenario(
            spec, options=ExecutionOptions(resume_from=periodic, checkpoint_path=periodic)
        )
        assert _outputs(resumed) == reference


def test_pooled_sweep_writes_the_reference_outputs(tmp_path_factory):
    """Observer files written by pool workers match the straight-line runs."""
    name = "trace-replay-wan"
    _config, _base, points = golden_points(name)
    spec = _observed(points[0][1], tmp_path_factory.mktemp("pooled"))
    protocols = ("dl", "hb")
    result = sweep(spec, {"protocol": protocols}, options=ExecutionOptions(workers=2))
    assert (result.parallel, result.workers) == (True, 2)
    for protocol, point in zip(protocols, result.points):
        assert _outputs(point) == _reference(name, tmp_path_factory, {"protocol": protocol})
