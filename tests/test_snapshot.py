"""The ``repro-ckpt-v1`` checkpoint subsystem: format, mixin, stops, CLI.

Covers the snapshot envelope's typed error paths (truncated file, version
mismatch, corruption, foreign-scenario restore), the :class:`SnapshotState`
field-drift detection, the deferred-compaction guard in the event loop,
periodic checkpoint stops under :func:`execute` and through both engine
doors (the spec's ``checkpoint_every`` is the one interval), and the
``resume`` CLI — its one-line exit-2 error convention (spec-less files and a
``--checkpoint-path`` that would write nothing included) and the observer
files it writes.  The end-to-end bit-identical-continuation guarantees are
exercised in ``test_snapshot_properties.py`` and ``test_sweep_resume.py``.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError, SnapshotError
from repro.common.snapshot import SnapshotState
from repro.core.config import NodeConfig
from repro.experiments.cli import main as cli_main
from repro.experiments.engine import run_scenario, sweep
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import (
    Stop,
    WorkloadSpec,
    build_experiment,
    execute,
    periodic_stops,
)
from repro.experiments.scenario import (
    BandwidthSpec,
    ScenarioSpec,
    TopologySpec,
    build_network_config,
)
from repro.sim.events import InternalCallback, Simulator
from repro.sim.snapshot import (
    FORMAT_VERSION,
    KIND_SIMULATION,
    SimulationState,
    load_checkpoint,
    read_snapshot_file,
    read_snapshot_header,
    save_checkpoint,
    write_snapshot_file,
)
from repro.trace.recorder import TelemetrySpec
from repro.trace.spans import SpanSpec


# ---------------------------------------------------------------------------
# SnapshotState mixin
# ---------------------------------------------------------------------------


class _Declared(SnapshotState):
    _SNAPSHOT_FIELDS = ("a", "b")

    def __init__(self):
        self.a = 1
        self.b = 2


class _Lazy(SnapshotState):
    _SNAPSHOT_FIELDS = ("x", "maybe")

    def __init__(self):
        self.x = 1  # ``maybe`` is only set on some code paths


class _Slotted(SnapshotState):
    __slots__ = ("u", "v")
    _SNAPSHOT_FIELDS = ("u", "v")

    def __init__(self):
        self.u = 10
        self.v = 20


class _SlottedDrift(SnapshotState):
    __slots__ = ("u", "undeclared")
    _SNAPSHOT_FIELDS = ("u",)

    def __init__(self):
        self.u = 10
        self.undeclared = 99


def test_snapshot_state_pickles_through_declared_fields():
    obj = _Declared()
    obj.b = 5
    clone = pickle.loads(pickle.dumps(obj))
    assert (clone.a, clone.b) == (1, 5)


def test_undeclared_dict_attribute_is_rejected():
    obj = _Declared()
    obj.c = 3
    with pytest.raises(SnapshotError, match="c"):
        obj.snapshot_state()


def test_undeclared_slot_is_rejected():
    with pytest.raises(SnapshotError, match="undeclared"):
        _SlottedDrift().snapshot_state()


def test_unknown_restore_key_is_rejected():
    with pytest.raises(SnapshotError, match="zz"):
        _Declared().restore_state({"a": 1, "zz": 2})


def test_absent_declared_field_stays_absent_after_restore():
    clone = pickle.loads(pickle.dumps(_Lazy()))
    assert clone.x == 1
    assert not hasattr(clone, "maybe")


def test_slotted_class_round_trips():
    clone = pickle.loads(pickle.dumps(_Slotted()))
    assert (clone.u, clone.v) == (10, 20)


# ---------------------------------------------------------------------------
# The repro-ckpt-v1 envelope
# ---------------------------------------------------------------------------


def _write(tmp_path, payload=("hello", 42), **kwargs):
    path = tmp_path / "x.ckpt"
    write_snapshot_file(
        path,
        payload,
        kind=kwargs.pop("kind", "simulation"),
        fingerprint=kwargs.pop("fingerprint", "cafe" * 4),
    )
    return path


def test_envelope_round_trip(tmp_path):
    path = _write(tmp_path)
    header, payload = read_snapshot_file(
        path, kind="simulation", expect_fingerprint="cafe" * 4
    )
    assert header["format"] == FORMAT_VERSION
    assert payload == ("hello", 42)


def test_truncated_payload_is_a_snapshot_error(tmp_path):
    path = _write(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(SnapshotError, match="truncated"):
        read_snapshot_file(path)
    # The header itself is intact, so header-only reads still work.
    assert read_snapshot_header(path)["format"] == FORMAT_VERSION


def test_corrupted_payload_is_a_snapshot_error(tmp_path):
    path = _write(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="checksum"):
        read_snapshot_file(path)


def test_version_mismatch_is_a_snapshot_error(tmp_path):
    path = _write(tmp_path)
    blob = path.read_bytes()
    newline = blob.find(b"\n")
    header = json.loads(blob[:newline])
    header["format"] = "repro-ckpt-v0"
    path.write_bytes(json.dumps(header).encode() + blob[newline:])
    with pytest.raises(SnapshotError, match="repro-ckpt-v0"):
        read_snapshot_header(path)


def test_headerless_file_is_a_snapshot_error(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(SnapshotError, match="no header"):
        read_snapshot_header(path)
    path.write_bytes(b"not json\n" + b"tail")
    with pytest.raises(SnapshotError, match="unparseable"):
        read_snapshot_header(path)


def test_missing_file_is_a_snapshot_error(tmp_path):
    with pytest.raises(SnapshotError, match="cannot read"):
        read_snapshot_header(tmp_path / "absent.ckpt")


def test_wrong_kind_is_a_snapshot_error(tmp_path):
    path = _write(tmp_path, kind="sweep-point")
    with pytest.raises(SnapshotError, match="sweep-point"):
        read_snapshot_file(path, kind="simulation")


def test_foreign_fingerprint_is_a_snapshot_error(tmp_path):
    path = _write(tmp_path)
    with pytest.raises(SnapshotError, match="foreign-scenario"):
        read_snapshot_file(path, expect_fingerprint="beef" * 4)


def test_load_checkpoint_rejects_non_simulation_payload(tmp_path):
    path = _write(tmp_path, kind=KIND_SIMULATION)
    with pytest.raises(SnapshotError, match="SimulationState"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# Periodic checkpoint stops
# ---------------------------------------------------------------------------


def _bare_state(sim: Simulator) -> SimulationState:
    return SimulationState(
        fingerprint="f00d" * 4,
        protocol="dl",
        duration=10.0,
        warmup=0.0,
        seed=0,
        sim=sim,
        network=None,
        collector=None,
        nodes=[],
        generators=[],
    )


def test_periodic_stops_reject_non_positive_interval(tmp_path):
    state = _bare_state(Simulator())
    for every in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match="positive"):
            periodic_stops(state, every, tmp_path / "x.ckpt")


def test_execute_checkpoints_a_bare_state_between_slices_uncounted(tmp_path):
    sim = Simulator()
    state = _bare_state(sim)
    path = tmp_path / "tick.ckpt"
    stops = periodic_stops(state, 2.5, path)
    # t = 10.0 is the horizon: only multiples strictly inside it.
    assert [(stop.time, stop.checkpoint) for stop in stops] == [
        (2.5, path),
        (5.0, path),
        (7.5, path),
    ]
    # The plan ends before the horizon, so there is nothing to summarise.
    assert execute(state, stops) is None
    assert read_snapshot_header(path)["virtual_time"] == 7.5
    # A checkpoint is no queue entry: nothing was scheduled, nothing counted.
    assert sim.processed_events == 0
    assert sim.last_seq == 0
    # The written checkpoint restores to an equivalent state.
    restored = load_checkpoint(path, expect_fingerprint="f00d" * 4)
    assert restored.sim.now == 7.5


@pytest.mark.parametrize(
    "now, expected",
    [(0.0, [2.5, 5.0, 7.5]), (2.5, [5.0, 7.5]), (6.0, [7.5]), (7.5, []), (9.0, [])],
)
def test_periodic_stops_resume_at_the_next_multiple_after_now(tmp_path, now, expected):
    state = _bare_state(Simulator())
    state.sim.run(until=now)
    stops = periodic_stops(state, 2.5, tmp_path / "x.ckpt")
    assert [stop.time for stop in stops] == expected


# ---------------------------------------------------------------------------
# Deferred heap compaction (cancel storm inside an InternalCallback hand-off)
# ---------------------------------------------------------------------------


class _FireLog:
    """Picklable event sink: records which scheduled events actually ran."""

    def __init__(self):
        self.fired = []


class _Append:
    def __init__(self, log: _FireLog, index: int):
        self.log = log
        self.index = index

    def __call__(self):
        self.log.fired.append(self.index)


def test_compaction_is_deferred_during_internal_callback_handoff():
    """Regression: a cancel storm inside an ``InternalCallback`` must not
    compact (and thereby reorder/rewrite) the queue mid-hand-off.

    The hand-off cancels enough events to trip the compaction threshold and
    then snapshots the simulator: the snapshot must capture the queue with
    its lazily-deleted slots intact, the owed compaction must run only after
    the hand-off returns, and the snapshot must restore and continue to the
    exact same deliveries as the original run.
    """
    sim = Simulator()
    log = _FireLog()
    events = [sim.schedule_event(1.0 + i * 0.001, _Append(log, i)) for i in range(200)]

    observed = {}

    def hand_off():
        for event in events[:150]:
            event.cancel()
        observed["stale"] = sim._stale
        observed["deferred"] = sim._compact_deferred
        observed["queue_len"] = len(sim._queue)
        observed["snapshot"] = pickle.dumps(sim)

    sim.schedule_internal(0.5, InternalCallback(hand_off))
    sim.run(until=2.0)

    # During the hand-off: compaction owed but not executed.
    assert observed["deferred"] is True
    assert observed["stale"] == 150
    assert observed["queue_len"] == 200
    # After the hand-off returned: the owed compaction ran.
    assert sim._compact_deferred is False
    assert sim._stale == 0
    assert log.fired == list(range(150, 200))

    # The mid-hand-off snapshot continues bit-identically.
    clone = pickle.loads(observed["snapshot"])
    clone_log = None
    for _when, _seq, item in clone._queue:
        callback = getattr(item, "callback", None)
        if isinstance(callback, _Append):
            clone_log = callback.log
            break
    assert clone_log is not None
    clone.run(until=2.0)
    assert clone_log.fired == log.fired
    assert clone.now == sim.now
    assert clone.processed_events == sim.processed_events


# ---------------------------------------------------------------------------
# Scenario-spec field and CLI error conventions
# ---------------------------------------------------------------------------


def test_checkpoint_every_spec_field_validation():
    spec = ScenarioSpec(checkpoint_every=2.0)
    assert spec.checkpoint_every == 2.0
    with pytest.raises(ConfigurationError, match="positive"):
        ScenarioSpec(checkpoint_every=0.0)
    with pytest.raises(ConfigurationError, match="vid-cost"):
        ScenarioSpec(kind="vid-cost", checkpoint_every=1.0)


def test_checkpoint_every_round_trips_through_dict():
    spec = ScenarioSpec(checkpoint_every=1.5)
    assert ScenarioSpec.from_dict(spec.to_dict()).checkpoint_every == 1.5
    assert ScenarioSpec.from_dict(ScenarioSpec().to_dict()).checkpoint_every is None


def test_vid_cost_scenario_refuses_resume(tmp_path):
    from repro.experiments.engine import run_scenario
    from repro.experiments.options import ExecutionOptions

    spec = ScenarioSpec(kind="vid-cost", name="vid")
    with pytest.raises(SnapshotError, match="analytic"):
        run_scenario(
            spec, options=ExecutionOptions(resume_from=tmp_path / "whatever.ckpt")
        )


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


@pytest.mark.parametrize(
    "prepare, match",
    [
        (lambda p: None, "cannot read"),
        (lambda p: p.write_bytes(b"garbage without newline"), "no header"),
        (lambda p: p.write_bytes(b'{"format": "repro-ckpt-v0"}\npayload'), "repro-ckpt-v0"),
    ],
)
def test_resume_cli_reports_one_line_error_and_exit_2(tmp_path, capsys, prepare, match):
    path = tmp_path / "bad.ckpt"
    prepare(path)
    assert cli_main(["resume", str(path)]) == 2
    line = _one_error_line(capsys)
    assert match.split()[0] in line or match in line


def test_resume_cli_refuses_a_checkpoint_without_a_spec(tmp_path, capsys):
    """Only a hand-driven ``execute`` writes one; the error says how to continue it."""
    spec = _unobserved_spec(tmp_path)
    state = build_experiment(
        spec.protocol,
        build_network_config(spec),
        spec.duration,
        workload=spec.workload,
        node_config=spec.node,
    )
    path = tmp_path / "hand.ckpt"
    assert execute(state, [Stop(1.0, checkpoint=path)]) is None
    assert load_checkpoint(path).meta == {}

    assert cli_main(["resume", str(path)]) == 2
    line = _one_error_line(capsys)
    assert "carries no scenario spec" in line
    assert "execute(restore_experiment(path), [Stop(state.duration)])" in line


def test_resume_cli_refuses_checkpoint_path_without_checkpoint_every(tmp_path, capsys):
    spec = _unobserved_spec(tmp_path, checkpoint_every=1.0)
    checkpoint = tmp_path / "point.ckpt"
    run_scenario(spec, options=ExecutionOptions(checkpoint_path=checkpoint))
    elsewhere = tmp_path / "elsewhere.ckpt"

    assert cli_main(["resume", str(checkpoint), "--checkpoint-path", str(elsewhere)]) == 2
    assert "--checkpoint-path has no effect without --checkpoint-every" in _one_error_line(capsys)
    assert not elsewhere.exists()


def test_resume_cli_truncated_checkpoint_exit_2(tmp_path, capsys):
    sim = Simulator()
    path = save_checkpoint(tmp_path / "t.ckpt", _bare_state(sim))
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    rc = cli_main(["resume", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "truncated" in captured.err


def test_checkpoint_with_another_versions_state_attributes_is_refused(tmp_path, capsys):
    """A pre-observer-seam ``SimulationState`` (``recorder``, no ``observers``)."""
    state = _bare_state(Simulator())
    del state.observers
    state.recorder = None
    path = write_snapshot_file(
        tmp_path / "old.ckpt", state, kind=KIND_SIMULATION, fingerprint=state.fingerprint
    )
    with pytest.raises(SnapshotError, match="incompatible version.*observers.*recorder"):
        load_checkpoint(path)
    assert cli_main(["resume", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "incompatible version" in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# Resuming a scenario: foreign checkpoints refused, observer files written
# ---------------------------------------------------------------------------


def _observed_spec(out_dir: Path, **overrides) -> ScenarioSpec:
    defaults = dict(
        name="tiny",
        topology=TopologySpec(kind="uniform", num_nodes=4, delay=0.05),
        bandwidth=BandwidthSpec(kind="constant", rate=2_000_000.0),
        workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=600_000.0),
        node=NodeConfig(max_block_size=100_000),
        duration=3.0,
        warmup_fraction=0.0,
        telemetry=TelemetrySpec(enabled=True, interval=0.25, out_dir=str(out_dir)),
        spans=SpanSpec(enabled=True, out_dir=str(out_dir)),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _unobserved_spec(out_dir: Path, **overrides) -> ScenarioSpec:
    return _observed_spec(out_dir, telemetry=TelemetrySpec(), spans=SpanSpec(), **overrides)


@pytest.mark.parametrize("door", ["run_scenario", "sweep"])
def test_spec_checkpoint_every_writes_through_both_engine_doors(tmp_path, door):
    """The spec field is the one periodic-checkpoint interval, whichever door runs it."""
    spec = _unobserved_spec(tmp_path, checkpoint_every=1.0)
    checkpoint = tmp_path / "point.ckpt"
    options = ExecutionOptions(checkpoint_path=checkpoint, parallel=False)
    if door == "run_scenario":
        uninterrupted = run_scenario(spec, options=options).summary()
    else:
        (uninterrupted,) = sweep(spec, options=options).summaries()
    assert read_snapshot_header(checkpoint)["virtual_time"] == 2.0
    resumed = run_scenario(spec, options=ExecutionOptions(resume_from=checkpoint))
    assert resumed.summary() == uninterrupted


def test_run_scenario_refuses_a_foreign_checkpoint_before_unpickling(tmp_path, monkeypatch):
    spec = _observed_spec(tmp_path, checkpoint_every=1.0)
    checkpoint = tmp_path / "point.ckpt"
    run_scenario(spec, options=ExecutionOptions(checkpoint_path=checkpoint))

    def no_unpickling(payload):
        raise AssertionError("the payload was unpickled before the header check")

    monkeypatch.setattr(pickle, "loads", no_unpickling)
    with pytest.raises(SnapshotError, match="foreign-scenario"):
        run_scenario(replace(spec, seed=1), options=ExecutionOptions(resume_from=checkpoint))


def test_resuming_under_an_observer_the_run_never_had_is_a_snapshot_error(tmp_path):
    spec = _observed_spec(tmp_path, checkpoint_every=1.0)
    bare = replace(spec, telemetry=TelemetrySpec(), spans=SpanSpec())
    checkpoint = tmp_path / "point.ckpt"
    run_scenario(bare, options=ExecutionOptions(checkpoint_path=checkpoint))
    with pytest.raises(SnapshotError, match="built without"):
        run_scenario(spec, options=ExecutionOptions(resume_from=checkpoint))


def test_resume_cli_writes_the_observer_files_of_the_uninterrupted_run(tmp_path, capsys):
    """The crashed run is the one whose time-series matters most."""
    clean = run_scenario(_observed_spec(tmp_path / "clean"))

    # A run that checkpoints at t=1, 2 leaves the t=2 file behind; pretend
    # it died right after writing it, taking its observer files with it.
    crashed_dir = tmp_path / "crashed"
    checkpoint = tmp_path / "point.ckpt"
    crashed = run_scenario(
        _observed_spec(crashed_dir, checkpoint_every=1.0),
        options=ExecutionOptions(checkpoint_path=checkpoint),
    )
    assert read_snapshot_header(checkpoint)["virtual_time"] == 2.0
    Path(crashed.telemetry_path).unlink()
    Path(crashed.span_path).unlink()

    assert cli_main(["resume", str(checkpoint), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == clean.summary()
    for resumed, reference in (
        (crashed.telemetry_path, clean.telemetry_path),
        (crashed.span_path, clean.span_path),
    ):
        assert Path(resumed).read_bytes() == Path(reference).read_bytes()
        assert Path(resumed).stat().st_size > 0
    # Without --checkpoint-every the continuation wrote no further checkpoint.
    assert read_snapshot_header(checkpoint)["virtual_time"] == 2.0
