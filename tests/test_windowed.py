"""Windowed execution: planning, hand-off, stitching, journalling, CLI.

The headline invariant — windowed summaries and telemetry byte-identical to
one-window runs across scenarios and window counts — is pinned by the
hypothesis suite in ``test_windowed_properties.py``; this file covers the
engine's moving parts deterministically: boundary arithmetic, prefix-tree
planning (who leads, who forks, what disqualifies sharing), the fork refit,
parallel scheduling, telemetry stitching, the resume journal under windows,
a worker process dying, and the CLI surface.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError, ReproError, WorkerDiedError
from repro.core.config import NodeConfig
from repro.experiments.cli import main as cli_main
from repro.experiments.engine import sweep
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import WORKLOADS, WorkloadSpec, register_workload
from repro.experiments.scenario import (
    BandwidthSpec,
    ScenarioSpec,
    TopologySpec,
    expand_grid,
)
from repro.experiments.windowed import (
    plan_windowed_points,
    prefix_key,
    window_boundaries,
)
from repro.trace.recorder import TelemetrySpec

MB = 1_000_000.0


def tiny_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="tiny",
        topology=TopologySpec(kind="uniform", num_nodes=4, delay=0.05),
        bandwidth=BandwidthSpec(kind="constant", rate=2 * MB),
        workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=600_000.0),
        node=NodeConfig(max_block_size=100_000),
        duration=3.0,
        warmup_fraction=0.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestWindowBoundaries:
    def test_last_boundary_is_exactly_the_duration(self):
        bounds = window_boundaries(2.5, 3)
        assert bounds[-1] == 2.5
        assert len(bounds) == 3
        assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_single_window_is_the_horizon(self):
        assert window_boundaries(4.0, 1) == (4.0,)

    @pytest.mark.parametrize("windows", [0, -1])
    def test_non_positive_window_count_raises(self, windows):
        with pytest.raises(ConfigurationError):
            window_boundaries(4.0, windows)

    def test_zero_duration_cannot_be_split(self):
        with pytest.raises(ConfigurationError, match="distinct windows"):
            window_boundaries(0.0, 2)


class TestPrefixPlanning:
    def test_warmup_only_grid_shares_one_leader(self):
        points = expand_grid(tiny_spec(), {"warmup": (0.0, 0.5, 1.0)})
        plans = plan_windowed_points(points, 2)
        assert [plan.leader for plan in plans] == [None, 0, 0]
        assert [plan.fork_window for plan in plans] == [0, 1, 1]

    def test_warmup_only_grid_forks_at_the_deepest_boundary(self):
        # Warmup never touches the event stream, so the points agree on
        # every shareable boundary and fork into the final window only.
        points = expand_grid(tiny_spec(), {"warmup": (0.0, 0.5, 1.0)})
        plans = plan_windowed_points(points, 4)
        assert [plan.fork_window for plan in plans] == [0, 3, 3]

    def test_stop_after_grid_forks_at_mixed_depths(self):
        # duration 3.0, W=3 -> boundaries 1.0, 2.0.  A cut strictly past a
        # boundary is inert up to it: stop_after=None shares both windows
        # with the 2.5 leader, stop_after=1.5 only the first.
        points = expand_grid(
            tiny_spec(), {"workload.stop_after": (2.5, None, 1.5)}
        )
        plans = plan_windowed_points(points, 3)
        assert [plan.leader for plan in plans] == [None, 0, 0]
        assert [plan.fork_window for plan in plans] == [0, 2, 1]

    def test_seed_grid_never_shares(self):
        points = expand_grid(tiny_spec(), {"seed": (0, 1, 2)})
        plans = plan_windowed_points(points, 2)
        assert [plan.leader for plan in plans] == [None, None, None]

    def test_stop_after_shares_only_strictly_past_first_boundary(self):
        # duration 3.0, W=2 -> first boundary 1.5.  A cut at the boundary
        # itself already changes window 0 (boundary events run inside it),
        # so only cuts strictly after 1.5 (or None) may share.
        points = expand_grid(
            tiny_spec(), {"workload.stop_after": (2.0, None, 1.5, 1.0)}
        )
        plans = plan_windowed_points(points, 2)
        assert [plan.leader for plan in plans] == [None, 0, None, None]

    def test_single_window_plans_have_no_forks(self):
        points = expand_grid(tiny_spec(), {"warmup": (0.0, 1.0)})
        plans = plan_windowed_points(points, 1)
        assert [plan.leader for plan in plans] == [None, None]
        assert [plan.boundaries for plan in plans] == [(3.0,), (3.0,)]

    def test_an_analytic_point_is_a_one_window_plan_with_nothing_to_run(self):
        spec = ScenarioSpec(kind="vid-cost", name="vid")
        (plan,) = plan_windowed_points([({}, spec)], 1)
        assert (plan.boundaries, plan.leader) == ((), None)

    def test_prefix_key_neutralises_checkpoint_every(self):
        spec = tiny_spec()
        assert prefix_key(spec, 1.5) == prefix_key(
            replace(spec, checkpoint_every=0.5), 1.5
        )

    def test_prefix_key_keeps_crash_time_relevant(self):
        from repro.adversary.registry import AdversarySpec

        spec = tiny_spec()
        crashed = replace(
            spec, adversary=AdversarySpec(kind="crash-after", count=1, crash_time=2.0)
        )
        assert prefix_key(spec, 1.5) != prefix_key(crashed, 1.5)

    def test_analytic_scenarios_are_rejected(self):
        spec = ScenarioSpec(kind="vid-cost", name="vid")
        with pytest.raises(ConfigurationError, match="analytic"):
            plan_windowed_points([({}, spec)], 2)


class TestWindowedSweep:
    def test_serial_windowed_matches_monolithic(self):
        base = tiny_spec()
        grid = {"seed": (0, 1)}
        mono = sweep(base, grid, options=ExecutionOptions(parallel=False))
        windowed = sweep(
            base, grid, options=ExecutionOptions(parallel=False, windows=3)
        )
        assert windowed.windows == 3
        assert mono.windows is None
        assert windowed.summaries() == mono.summaries()

    def test_forked_windowed_matches_monolithic_in_parallel(self):
        base = tiny_spec()
        grid = {"warmup": (0.0, 0.5, 1.0)}
        mono = sweep(base, grid, options=ExecutionOptions(parallel=False))
        windowed = sweep(
            base, grid, options=ExecutionOptions(windows=2, workers=2)
        )
        assert windowed.summaries() == mono.summaries()

    def test_mixed_depth_forks_match_monolithic(self):
        # One leader forked at two different depths: its chain is cut after
        # both demanded boundaries and each follower continues as itself.
        base = tiny_spec()
        grid = {"workload.stop_after": (2.5, None, 1.5)}
        mono = sweep(base, grid, options=ExecutionOptions(parallel=False))
        windowed = sweep(
            base, grid, options=ExecutionOptions(parallel=False, windows=3)
        )
        assert windowed.summaries() == mono.summaries()

    def test_stitched_telemetry_is_byte_identical(self, tmp_path):
        mono_dir = tmp_path / "mono"
        win_dir = tmp_path / "win"
        grid = {"warmup": (0.0, 1.0)}
        mono = sweep(
            tiny_spec(telemetry=TelemetrySpec(enabled=True, interval=0.25,
                                              out_dir=str(mono_dir))),
            grid,
            options=ExecutionOptions(parallel=False),
        )
        windowed = sweep(
            tiny_spec(telemetry=TelemetrySpec(enabled=True, interval=0.25,
                                              out_dir=str(win_dir))),
            grid,
            options=ExecutionOptions(parallel=False, windows=3),
        )
        mono_paths = [Path(point.telemetry_path) for point in mono.points]
        win_paths = [Path(point.telemetry_path) for point in windowed.points]
        assert [p.name for p in mono_paths] == [p.name for p in win_paths]
        for mono_path, win_path in zip(mono_paths, win_paths):
            assert mono_path.read_bytes() == win_path.read_bytes()
            assert mono_path.stat().st_size > 0

    def test_window_dir_keeps_handoff_artifacts(self, tmp_path):
        work = tmp_path / "work"
        sweep(
            tiny_spec(),
            {"warmup": (0.0, 1.0)},
            options=ExecutionOptions(parallel=False, windows=2,
                                     window_dir=str(work)),
        )
        # One hand-off checkpoint for the shared window 0, none for finals.
        assert sorted(p.name for p in work.glob("*.ckpt")) == ["point0000-w0.ckpt"]

    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
    def test_windows_and_resume_dir_rerun_only_unjournalled_points(self, tmp_path, pooled):
        options = ExecutionOptions(
            parallel=pooled, workers=2, windows=3, resume_dir=tmp_path / "journal"
        )
        grid = {"warmup": (0.0, 0.5, 1.0)}

        def spec(out_dir: str) -> ScenarioSpec:
            return tiny_spec(
                telemetry=TelemetrySpec(
                    enabled=True, interval=0.25, out_dir=str(tmp_path / out_dir)
                )
            )

        clean = sweep(spec("clean"), grid, options=ExecutionOptions(parallel=False))
        first = sweep(spec("out"), grid, options=options)
        assert (first.resumed_points, first.windows) == ([], 3)

        # Lose the followers' journal entries and their telemetry: the re-run
        # keeps the journalled leader and plans the two followers among
        # themselves (one leads, one forks).
        for index in (1, 2):
            (tmp_path / "journal" / f"point-{index:04d}.ckpt").unlink()
            Path(first.points[index].telemetry_path).unlink()
        leader_entry = (tmp_path / "journal" / "point-0000.ckpt").read_bytes()
        again = sweep(spec("out"), grid, options=options)
        assert again.resumed_points == [0]
        assert (tmp_path / "journal" / "point-0000.ckpt").read_bytes() == leader_entry
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

    def test_windows_above_one_ignore_checkpoint_every(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = tiny_spec(checkpoint_every=1.0)
        result = sweep(spec, None, options=ExecutionOptions(windows=2))
        assert not (tmp_path / "checkpoints").exists()
        # One window: the spec's cadence, at the default per-point path.
        plain = sweep(spec, None, options=ExecutionOptions(windows=1))
        assert [p.name for p in (tmp_path / "checkpoints").iterdir()] == [
            "tiny-base-seed0.ckpt"
        ]
        assert (result.windows, plain.windows) == (2, None)
        assert result.summaries() == plain.summaries()


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
        clean = sweep(self._spec(), self.GRID, options=ExecutionOptions(parallel=False))
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


class TestWindowedCli:
    def _spec_path(self, tmp_path) -> Path:
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(tiny_spec().to_dict()))
        return path

    def test_run_windows_json_matches_monolithic(self, tmp_path, capsys):
        path = self._spec_path(tmp_path)
        assert cli_main(["run", str(path), "--serial", "--json"]) == 0
        mono = json.loads(capsys.readouterr().out)
        assert (
            cli_main(["run", str(path), "--windows", "3", "--workers", "2",
                      "--json"])
            == 0
        )
        windowed = json.loads(capsys.readouterr().out)
        assert windowed["windows"] == 3
        assert mono["windows"] is None
        assert windowed["summaries"] == mono["summaries"]

    def test_windows_with_resume_dir_resumes(self, tmp_path, capsys):
        path = self._spec_path(tmp_path)
        argv = ["sweep", str(path), "--grid", "warmup=0,1", "--windows", "2",
                "--serial", "--resume-dir", str(tmp_path / "journal"), "--json"]
        assert cli_main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert sorted(p.name for p in (tmp_path / "journal").iterdir()) == [
            "point-0000.ckpt",
            "point-0001.ckpt",
        ]
        assert cli_main(argv) == 0
        again = json.loads(capsys.readouterr().out)
        assert again["windows"] == first["windows"] == 2
        assert again["summaries"] == first["summaries"]
