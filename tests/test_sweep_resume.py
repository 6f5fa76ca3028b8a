"""Crash-injection for the sweep resume journal: SIGKILL, resume, bit-identical.

A child process runs a three-point serial sweep with a resume journal; the
parent SIGKILLs it as soon as the first point's result file lands (so the
child dies mid-point), then reruns the sweep with the same journal and
asserts that (i) only the unfinished points re-execute — the journalled
files are reused byte-for-byte, not rewritten — and (ii) the final
:class:`SweepResult` is bit-identical to an uninterrupted run.

Without a crash, the same journal contract holds serially, on a pool and
through the CLI: lost entries (and their telemetry) are re-run and
re-recorded byte for byte, kept entries are never rewritten.

A pool worker that dies mid-sweep is the same crash one level down: it is a
typed :class:`WorkerDiedError` (one ``error:`` line from the CLI), and the
points that completed before it are journalled and never re-run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro.common.errors import ReproError, WorkerDiedError
from repro.core.config import NodeConfig
from repro.experiments.catalog import get_scenario
from repro.experiments.cli import main as cli_main
from repro.experiments.engine import sweep
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import WORKLOADS, WorkloadSpec, register_workload
from repro.experiments.scenario import BandwidthSpec, ScenarioSpec, TopologySpec
from repro.trace.recorder import TelemetrySpec

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

SCENARIO = "straggler-hetero"
DURATION = 2.5
GRID = {"seed": (0, 1, 2)}

_CHILD_SCRIPT = f"""
import sys
from dataclasses import replace
from repro.experiments.catalog import get_scenario
from repro.experiments.engine import sweep
from repro.experiments.options import ExecutionOptions

base = replace(get_scenario({SCENARIO!r}).base, duration={DURATION!r})
sweep(base, {GRID!r}, options=ExecutionOptions(workers=1, resume_dir=sys.argv[1]))
"""


def _base_spec():
    return replace(get_scenario(SCENARIO).base, duration=DURATION)


def test_sigkilled_sweep_resumes_only_unfinished_points(tmp_path):
    journal = tmp_path / "journal"
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, str(journal)], env=env
    )
    try:
        # Wait for the first completed point, then SIGKILL mid-next-point.
        deadline = time.monotonic() + 180
        first = journal / "point-0000.ckpt"
        while time.monotonic() < deadline:
            if first.exists() or child.poll() is not None:
                break
            time.sleep(0.02)
        assert first.exists(), "child never completed its first sweep point"
    finally:
        child.kill()
        child.wait()

    finished = sorted(journal.glob("point-*.ckpt"))
    finished_indices = [int(path.stem.split("-")[1]) for path in finished]
    assert finished_indices, "no journalled points survived the kill"
    assert len(finished_indices) < 3, "the sweep completed before the kill landed"
    before = {path.name: path.read_bytes() for path in finished}

    base = _base_spec()
    resumed = sweep(base, GRID, options=ExecutionOptions(workers=1, resume_dir=str(journal)))
    assert resumed.resumed_points == finished_indices

    # The journalled results were reused verbatim; the missing ones now exist.
    for name, blob in before.items():
        assert (journal / name).read_bytes() == blob
    assert sorted(p.name for p in journal.glob("point-*.ckpt")) == [
        f"point-{i:04d}.ckpt" for i in range(3)
    ]

    clean = sweep(base, GRID, options=ExecutionOptions(workers=1))
    assert json.dumps(resumed.summaries(), sort_keys=True) == json.dumps(
        clean.summaries(), sort_keys=True
    )
    assert resumed.events_processed == clean.events_processed
    assert resumed.tx_generated == clean.tx_generated
    assert resumed.tx_committed == clean.tx_committed


def test_stale_journal_from_a_different_sweep_is_ignored(tmp_path):
    """Changing the base spec invalidates every journalled point (fingerprints)."""
    journal = tmp_path / "journal"
    base = _base_spec()
    first = sweep(base, GRID, options=ExecutionOptions(workers=1, resume_dir=str(journal)))
    assert first.resumed_points == []

    # Same journal, different sweep: nothing may be reused.
    other = replace(base, duration=DURATION + 0.5)
    resumed = sweep(other, GRID, options=ExecutionOptions(workers=1, resume_dir=str(journal)))
    assert resumed.resumed_points == []

    # Rerunning the original sweep *after* the journal was overwritten by the
    # other sweep re-executes everything again rather than mixing results.
    again = sweep(base, GRID, options=ExecutionOptions(workers=1, resume_dir=str(journal)))
    assert again.resumed_points == []
    assert json.dumps(again.summaries(), sort_keys=True) == json.dumps(
        first.summaries(), sort_keys=True
    )


MB = 1_000_000.0


def tiny_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="tiny",
        topology=TopologySpec(kind="uniform", num_nodes=4, delay=0.05),
        bandwidth=BandwidthSpec(kind="constant", rate=2 * MB),
        workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=600_000.0),
        node=NodeConfig(max_block_size=100_000),
        duration=3.0,
        warmup=0.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
def test_resume_dir_reruns_only_unjournalled_points(tmp_path, pooled):
    options = ExecutionOptions(workers=2 if pooled else 1, resume_dir=tmp_path / "journal")
    grid = {"warmup": (0.0, 0.5, 1.0)}

    def spec(out_dir: str) -> ScenarioSpec:
        return tiny_spec(
            telemetry=TelemetrySpec(
                enabled=True, interval=0.25, out_dir=str(tmp_path / out_dir)
            )
        )

    clean = sweep(spec("clean"), grid, options=ExecutionOptions(workers=1))
    first = sweep(spec("out"), grid, options=options)
    assert (first.resumed_points, first.workers) == ([], 2 if pooled else 1)

    # Lose two journal entries and their telemetry: the re-run keeps the
    # journalled point untouched and re-executes (and re-records) the others.
    for index in (1, 2):
        (tmp_path / "journal" / f"point-{index:04d}.ckpt").unlink()
        Path(first.points[index].telemetry_path).unlink()
    kept = (tmp_path / "journal" / "point-0000.ckpt").read_bytes()
    again = sweep(spec("out"), grid, options=options)
    assert again.resumed_points == [0]
    assert (tmp_path / "journal" / "point-0000.ckpt").read_bytes() == kept
    assert again.summaries() == clean.summaries()
    for resumed, reference in zip(again.points, clean.points):
        assert Path(resumed.telemetry_path).name == Path(reference.telemetry_path).name
        assert (
            Path(resumed.telemetry_path).read_bytes()
            == Path(reference.telemetry_path).read_bytes()
        )

    # Everything journalled: nothing left to run.
    third = sweep(spec("out"), grid, options=options)
    assert third.resumed_points == [0, 1, 2]
    assert third.summaries() == clean.summaries()


def test_cli_sweep_with_resume_dir_resumes(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_spec().to_dict()))
    argv = ["sweep", str(path), "--grid", "warmup=0,1", "--serial",
            "--resume-dir", str(tmp_path / "journal"), "--json"]
    assert cli_main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert sorted(p.name for p in (tmp_path / "journal").iterdir()) == [
        "point-0000.ckpt",
        "point-0001.ckpt",
    ]
    journalled = {p.name: p.read_bytes() for p in (tmp_path / "journal").iterdir()}
    assert cli_main(argv) == 0
    again = json.loads(capsys.readouterr().out)
    assert again["summaries"] == first["summaries"]
    assert {p.name: p.read_bytes() for p in (tmp_path / "journal").iterdir()} == journalled


#: Seeds whose workload factory kills the process building them.  Pool
#: workers are forked when the pool starts, so they see the set as it was
#: when the sweep began.
_FATAL_SEEDS: set[int] = set()


def _fatal_workload(sim, node, spec, seed):
    if seed in _FATAL_SEEDS:
        os._exit(17)
    return WORKLOADS["poisson"](sim, node, spec, seed)


class TestWorkerDeath:
    GRID = {"seed": (0, 2, 1)}

    @pytest.fixture(autouse=True)
    def _fatal_seed_one(self):
        register_workload("fatal-for-some-seeds", _fatal_workload)
        _FATAL_SEEDS.add(1)
        yield
        _FATAL_SEEDS.clear()
        del WORKLOADS["fatal-for-some-seeds"]

    def _spec(self) -> ScenarioSpec:
        return tiny_spec(
            workload=WorkloadSpec(
                kind="fatal-for-some-seeds", rate_bytes_per_second=600_000.0
            )
        )

    def test_a_dead_worker_is_a_typed_error_and_the_journal_survives(self, tmp_path):
        journal = tmp_path / "journal"
        options = ExecutionOptions(workers=2, resume_dir=journal)
        # Two workers take seeds 0 and 2; the first to finish picks up seed
        # 1 and dies, which takes the pool (and the other worker) down.
        with pytest.raises(WorkerDiedError, match=r"seed=1") as raised:
            sweep(self._spec(), self.GRID, options=options)
        assert isinstance(raised.value, ReproError)
        assert "\n" not in str(raised.value)
        journalled = sorted(int(path.stem.split("-")[1]) for path in journal.iterdir())
        assert journalled and 2 not in journalled

        # Re-running with the same journal executes only the rest.
        _FATAL_SEEDS.clear()
        rerun = sweep(self._spec(), self.GRID, options=options)
        assert rerun.resumed_points == journalled
        clean = sweep(self._spec(), self.GRID, options=ExecutionOptions(workers=1))
        assert rerun.summaries() == clean.summaries()

    def test_cli_reports_a_dead_worker_as_a_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "fatal.json"
        path.write_text(json.dumps(self._spec().to_dict()))
        argv = ["sweep", str(path), "--grid", "seed=0,2,1", "--workers", "2",
                "--resume-dir", str(tmp_path / "journal")]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "seed=1" in captured.err
        _FATAL_SEEDS.clear()
        assert cli_main(argv) == 0
