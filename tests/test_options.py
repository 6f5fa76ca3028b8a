"""The :class:`ExecutionOptions` surface.

* construction-time validation (frozen dataclass, invalid values raise
  :class:`ConfigurationError` immediately, not mid-sweep);
* ``options=`` is the only way in: the execution keywords the entry points
  once accepted loosely are gone, so passing one is a ``TypeError`` — and so
  is ``checkpoint_every``, which only a spec carries;
* every strategy is invisible: ``run_scenario`` under pool options equals
  the plain run.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.errors import ConfigurationError
from repro.core.config import NodeConfig
from repro.experiments.engine import run_points, run_scenario, sweep
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import WorkloadSpec
from repro.experiments.scenario import (
    BandwidthSpec,
    ScenarioSpec,
    TopologySpec,
    expand_grid,
)

MB = 1_000_000.0


def tiny_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="tiny",
        topology=TopologySpec(kind="uniform", num_nodes=4, delay=0.05),
        bandwidth=BandwidthSpec(kind="constant", rate=2 * MB),
        workload=WorkloadSpec(kind="saturating", target_pending_bytes=500_000),
        node=NodeConfig(max_block_size=100_000),
        duration=4.0,
        warmup_fraction=0.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestValidation:
    def test_defaults_are_all_none_except_parallel(self):
        options = ExecutionOptions()
        for f in dataclasses.fields(ExecutionOptions):
            if f.name == "parallel":
                assert options.parallel is True
            else:
                assert getattr(options, f.name) is None, f.name

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionOptions().parallel = False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
        ],
    )
    def test_invalid_combinations_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExecutionOptions(**kwargs)

    def test_the_six_fields(self):
        assert [f.name for f in dataclasses.fields(ExecutionOptions)] == [
            "profiler",
            "checkpoint_path",
            "resume_from",
            "parallel",
            "workers",
            "resume_dir",
        ]


class TestOptionsIsTheOnlyWayIn:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: sweep(tiny_spec(), {"seed": (0,)}, parallel=False),
            lambda: sweep(tiny_spec(), {"seed": (0,)}, resume_dir="/tmp/journal"),
            lambda: run_points(expand_grid(tiny_spec(), None), max_workers=1),
            lambda: run_scenario(tiny_spec(), checkpoint_path="/tmp/x.ckpt"),
            lambda: run_scenario(tiny_spec(), resume_from="/tmp/x.ckpt"),
            # The periodic-checkpoint interval is a spec field, not an option.
            lambda: ExecutionOptions(checkpoint_every=1.0),
            lambda: run_scenario(tiny_spec(), options=ExecutionOptions(checkpoint_every=1.0)),
            # A point is one task: there is no window count or window directory.
            lambda: ExecutionOptions(windows=2),
            lambda: ExecutionOptions(window_dir="/tmp/windows"),
        ],
    )
    def test_loose_execution_keywords_are_type_errors(self, call):
        with pytest.raises(TypeError, match="unexpected keyword"):
            call()

    def test_run_scenario_under_pool_options_equals_the_plain_run(self):
        spec = tiny_spec()
        plain = run_scenario(spec).summary()
        assert run_scenario(spec, options=ExecutionOptions(workers=2)).summary() == plain
        assert run_scenario(spec, options=None).summary() == plain
