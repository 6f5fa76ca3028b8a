"""Snapshot/restore/continue must be invisible: byte-identical summaries.

Four layers of evidence:

* a hypothesis property — arbitrary fast-tier catalog scenarios snapshotted
  at arbitrary mid-run times, restored **in a fresh process** (via the
  ``resume`` CLI subcommand) and continued, must reproduce the clean run's
  summary JSON byte-for-byte, event counts included;
* a deterministic sweep over every fast-tier golden ``sim`` scenario,
  snapshotting its first pinned point mid-run and diffing the fresh-process
  continuation against the pinned golden snapshot on disk;
* a structural probe asserting the chosen snapshot time really does land
  mid-epoch, mid-dispersal and mid-transfer — so the suite cannot quietly
  degrade into snapshotting quiesced states only;
* the express network's pending unicast trains: a periodic checkpoint and a
  windowed hand-off that both land while one N^2 (N-1)-car train is in
  flight continue to the clean run's summary.
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
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.experiments import apply_overrides, get_scenario
from repro.experiments.engine import run_scenario, sweep
from repro.experiments.golden import SLOW_GOLDEN, golden_names, golden_points
from repro.experiments.options import ExecutionOptions
from repro.experiments.scenario import ScenarioSpec
from repro.core.mempool import _ROW_WIDTH
from repro.sim.network import _ExpressTrain
from repro.sim.snapshot import load_checkpoint, save_checkpoint
from tests.conftest import build_scenario_state

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
    train — between t=0.30 and t=0.35, so a checkpoint or window boundary
    at t=0.32 lands on it.
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
    assert [len(train.cars) for train in trains] == [22 * 22 * 21]
    assert state.network._train is trains[0]

    resumed = _resume_in_fresh_process(checkpoint)
    assert json.dumps(resumed, sort_keys=True) == json.dumps(clean, sort_keys=True)
    assert resumed["events_processed"] == clean["events_processed"]


def test_window_boundary_on_a_pending_express_train_matches_monolithic(tmp_path):
    spec = _scale22()
    grid = {"warmup": (0.0, 0.1)}
    monolithic = sweep(spec, grid, options=ExecutionOptions(parallel=False))
    windowed = sweep(
        spec,
        grid,
        options=ExecutionOptions(parallel=False, windows=3, window_dir=tmp_path),
    )
    # The warmup point forks off the leader's hand-off checkpoint at the
    # second boundary, t=0.32: the train crosses a pickle, not just a
    # chained ``run(until=...)``.
    handoff = load_checkpoint(tmp_path / "point0000-w1.ckpt")
    assert any(type(entry[2]) is _ExpressTrain for entry in handoff.sim._queue)
    assert [json.dumps(p.summary(), sort_keys=True) for p in windowed.points] == [
        json.dumps(p.summary(), sort_keys=True) for p in monolithic.points
    ]


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


def test_window_boundaries_on_staged_transactions_match_monolithic(tmp_path):
    spec = _poisson7()
    grid = {"warmup": (0.0, 0.5)}
    monolithic = sweep(spec, grid, options=ExecutionOptions(parallel=False))
    windowed = sweep(
        spec,
        grid,
        options=ExecutionOptions(parallel=False, windows=3, window_dir=tmp_path),
    )
    # The warmup point forks off the leader's hand-off checkpoint at the
    # second boundary (t=4/3), so the staged runs cross a pickle.
    handoff = load_checkpoint(tmp_path / "point0000-w1.ckpt")
    assert all(node.mempool._staged for node in handoff.nodes)
    assert [json.dumps(p.summary(), sort_keys=True) for p in windowed.points] == [
        json.dumps(p.summary(), sort_keys=True) for p in monolithic.points
    ]
