"""Scenario engine: spec round-trips, grids, registries, sweeps and the CLI."""

import json

import pytest

from repro.adversary.registry import AdversarySpec
from repro.common.errors import ConfigurationError
from repro.core.config import NodeConfig
from repro.experiments.catalog import SCENARIOS, get_scenario, list_scenarios
from repro.experiments.cli import main as cli_main
from repro.experiments.engine import (
    DEFAULT_CHECKPOINT_DIR,
    point_filename,
    run_scenario,
    sweep,
)
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import Stop, WorkloadSpec, build_experiment, execute
from repro.experiments.scenario import (
    BandwidthSpec,
    ScenarioSpec,
    TopologySpec,
    apply_override,
    apply_overrides,
    build_network_config,
    expand_grid,
)
from repro.sim.bandwidth import ConstantBandwidth
from repro.sim.network import NetworkConfig
from repro.sim.snapshot import read_snapshot_header
from repro.workload.traces import MB


def tiny_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="tiny",
        topology=TopologySpec(kind="uniform", num_nodes=4, delay=0.05),
        bandwidth=BandwidthSpec(kind="constant", rate=2 * MB),
        workload=WorkloadSpec(kind="saturating", target_pending_bytes=500_000),
        node=NodeConfig(max_block_size=100_000),
        duration=8.0,
        warmup=0.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestSpecRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        spec = tiny_spec(
            adversary=AdversarySpec(kind="crash", count=1),
            workload=WorkloadSpec(kind="bursty", rate_bytes_per_second=2e6, duty=0.5),
            warmup=1.5,
            f=1,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_adversary_behaviour_params_round_trip(self):
        """victim / split / stop_after survive the JSON round-trip."""
        spec = tiny_spec(
            adversary=AdversarySpec(kind="censor", count=1, victim=2),
            workload=WorkloadSpec(kind="poisson", stop_after=5.0),
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.adversary.victim == 2
        assert restored.workload.stop_after == 5.0
        split_spec = tiny_spec(adversary=AdversarySpec(kind="equivocate", count=1, split=3))
        assert ScenarioSpec.from_json(split_spec.to_json()).adversary.split == 3

    def test_json_round_trip_is_lossless(self):
        spec = tiny_spec(topology=TopologySpec(kind="cities", testbed="vultr"))
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_partial_dict_uses_defaults(self):
        spec = ScenarioSpec.from_dict(
            {"name": "partial", "topology": {"num_nodes": 7}, "duration": 5.0}
        )
        assert spec.num_nodes == 7
        assert spec.protocol == "dl"
        assert spec.workload == WorkloadSpec()

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(TypeError):
            ScenarioSpec.from_dict({"protocl": "dl"})
        with pytest.raises(TypeError):
            ScenarioSpec.from_dict({"workload": {"kidn": "poisson"}})

    def test_every_catalog_entry_round_trips(self):
        for entry in list_scenarios():
            restored = ScenarioSpec.from_json(entry.base.to_json())
            assert restored == entry.base, entry.name

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            tiny_spec(protocol="pbft")
        with pytest.raises(ConfigurationError):
            tiny_spec(duration=0.0)
        with pytest.raises(ConfigurationError):
            tiny_spec(warmup=9.0)  # >= duration
        with pytest.raises(ConfigurationError):
            tiny_spec(bandwidth=BandwidthSpec(kind="wormhole"))
        with pytest.raises(ConfigurationError):
            tiny_spec(topology=TopologySpec(kind="mesh"))
        with pytest.raises(ConfigurationError):
            AdversarySpec(kind="gremlin")


class TestGridExpansion:
    def test_point_count_is_product_of_axes(self):
        base = tiny_spec()
        grid = {
            "protocol": ("dl", "hb"),
            "seed": (0, 1, 2),
            "workload.target_pending_bytes": (100_000, 200_000),
        }
        points = expand_grid(base, grid)
        assert len(points) == 2 * 3 * 2

    def test_expansion_applies_nested_overrides(self):
        base = tiny_spec()
        points = expand_grid(base, {"workload.tx_size": (100, 200)})
        assert [spec.workload.tx_size for _, spec in points] == [100, 200]
        # the base spec is untouched (specs are frozen, replace-based)
        assert base.workload.tx_size != 100 or base.workload.tx_size != 200

    def test_dict_valued_axes_move_fields_in_lockstep(self):
        base = tiny_spec()
        points = expand_grid(
            base,
            {
                "block": (
                    {"node.max_block_size": 1_000, "node.nagle_size": 1_000},
                    {"node.max_block_size": 2_000, "node.nagle_size": 2_000},
                )
            },
        )
        assert [(s.node.max_block_size, s.node.nagle_size) for _, s in points] == [
            (1_000, 1_000),
            (2_000, 2_000),
        ]

    def test_empty_grid_yields_base(self):
        base = tiny_spec()
        assert expand_grid(base, None) == [({}, base)]

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_override(tiny_spec(), "workload.flux_capacitor", 88)
        with pytest.raises(ConfigurationError):
            apply_override(tiny_spec(), "paradox", 1)


class TestNetworkBuilding:
    def test_constant_model(self):
        config = build_network_config(tiny_spec())
        assert isinstance(config, NetworkConfig)
        assert config.num_nodes == 4
        assert config.ingress_trace(0).rate_at(0.0) == 2 * MB

    def test_straggler_model_caps_last_nodes(self):
        spec = tiny_spec(
            topology=TopologySpec(kind="uniform", num_nodes=6, delay=0.05),
            bandwidth=BandwidthSpec(
                kind="straggler", rate=8 * MB, degraded_rate=1 * MB, count=2
            ),
        )
        config = build_network_config(spec)
        rates = [config.ingress_trace(i).rate_at(0.0) for i in range(6)]
        assert rates == [8 * MB] * 4 + [1 * MB] * 2

    def test_flapping_model_rotates_degradation(self):
        spec = tiny_spec(
            topology=TopologySpec(kind="uniform", num_nodes=4, delay=0.05),
            bandwidth=BandwidthSpec(
                kind="flapping",
                rate=4 * MB,
                degraded_rate=0.5 * MB,
                count=2,
                period=10.0,
                degraded_for=4.0,
            ),
            duration=20.0,
        )
        config = build_network_config(spec)
        flaky = [config.ingress_trace(i) for i in (2, 3)]
        # staggered: the two flaky nodes are not degraded at the same moments
        degraded_windows = [
            {t for t in range(20) if trace.rate_at(t + 0.01) == 0.5 * MB} for trace in flaky
        ]
        assert degraded_windows[0] and degraded_windows[1]
        assert degraded_windows[0] != degraded_windows[1]
        # steady nodes never flap
        assert all(config.ingress_trace(0).rate_at(t) == 4 * MB for t in range(20))

    def test_cities_topology_uses_testbed(self):
        spec = tiny_spec(topology=TopologySpec(kind="cities", testbed="vultr"))
        config = build_network_config(spec)
        assert config.num_nodes == 15

    def test_gauss_markov_is_seed_deterministic(self):
        spec = tiny_spec(
            bandwidth=BandwidthSpec(kind="gauss-markov", rate=5 * MB, sigma=1 * MB),
            duration=10.0,
            seed=7,
        )
        a, b = build_network_config(spec), build_network_config(spec)
        times = [0.5 * k for k in range(20)]
        assert [a.ingress_trace(1).rate_at(t) for t in times] == [
            b.ingress_trace(1).rate_at(t) for t in times
        ]


class TestRunScenario:
    def test_sim_scenario_produces_result(self):
        outcome = run_scenario(tiny_spec(duration=10.0))
        assert outcome.result is not None
        summary = outcome.summary()
        assert summary["protocol"] == "dl"
        assert summary["num_nodes"] == 4
        assert summary["mean_throughput"] > 0
        assert summary["delivered_epochs"] >= 1
        assert outcome.wall_clock_seconds > 0

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("straggler-hetero", {"protocol": "dl", "duration": 4.0}),
            ("straggler-hetero", {"protocol": "hb", "duration": 4.0}),
            ("latency-fault-matrix", {"duration": 3.0}),
        ],
    )
    def test_mempool_spelling_selects_nothing(self, name, overrides):
        """``node.mempool`` is parsed for the pinned benchmark and has no effect."""
        summaries = []
        for spelling in ("object", "columnar"):
            spec = apply_overrides(
                get_scenario(name).base, {**overrides, "node.mempool": spelling}
            )
            summaries.append(json.dumps(run_scenario(spec).summary(), sort_keys=True))
        assert summaries[0] == summaries[1]
        assert json.loads(summaries[0])["mean_throughput"] > 0

    def test_crash_adversary_zeroes_crashed_node(self):
        outcome = run_scenario(
            tiny_spec(duration=10.0, adversary=AdversarySpec(kind="crash", count=1))
        )
        result = outcome.result
        assert result.throughputs[-1] == 0.0  # the crashed node confirmed nothing
        assert max(result.throughputs[:-1]) > 0  # the honest nodes kept going
        assert outcome.summary()["delivered_epochs"] >= 1  # judged at honest nodes

    def test_crash_after_adversary_starts_honest(self):
        outcome = run_scenario(
            tiny_spec(
                duration=12.0,
                adversary=AdversarySpec(kind="crash-after", count=1, crash_time=6.0),
            )
        )
        assert outcome.result.delivered_epochs[-1] >= 1  # participated before the crash

    def test_censor_adversary_on_timed_simulator(self):
        """`adversary.kind: censor` runs on the bandwidth-accurate network."""
        outcome = run_scenario(
            tiny_spec(
                duration=8.0,
                workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=400_000.0),
                adversary=AdversarySpec(kind="censor", count=1, victim=0),
            )
        )
        summary = outcome.summary()
        assert summary["adversary_kind"] == "censor"
        assert summary["adversary_nodes"] == [3]
        assert summary["victim"] == 0
        # the victim's transactions still commit (linking defeats censorship)
        assert summary["victim_commit_p50"] is not None
        assert summary["victim_inclusion_delay"] is not None
        # the censor is a live participant, not a crash: liveness at everyone
        assert summary["delivered_epochs"] >= 1
        assert min(outcome.result.throughputs) > 0

    def test_equivocate_adversary_on_timed_simulator_virtual_plane(self):
        """Equivocation works on the virtual data plane the experiments use."""
        outcome = run_scenario(
            tiny_spec(
                duration=8.0,
                workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=400_000.0),
                adversary=AdversarySpec(kind="equivocate", count=1),
            )
        )
        summary = outcome.summary()
        assert summary["adversary_kind"] == "equivocate"
        # every commit of the equivocator's slot became a BAD_UPLOADER
        # placeholder, detected in the very first epoch it proposed
        assert summary["equivocation_detected_epoch"] == 1
        assert summary["bad_uploader_deliveries"] > 0
        # honest nodes keep confirming their own load
        assert summary["delivered_epochs"] >= 1
        assert max(outcome.result.throughputs) > 0

    def test_equivocate_adversary_on_real_data_plane(self):
        """The same spec on the real codec exercises the re-encode check."""
        outcome = run_scenario(
            tiny_spec(
                duration=6.0,
                workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=100_000.0),
                node=NodeConfig(data_plane="real", max_block_size=50_000),
                adversary=AdversarySpec(kind="equivocate", count=1, split=2),
            )
        )
        summary = outcome.summary()
        assert summary["bad_uploader_deliveries"] > 0
        assert summary["equivocation_detected_epoch"] == 1

    def test_adversary_metrics_deterministic_across_runs(self):
        spec = tiny_spec(
            duration=6.0,
            workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=400_000.0),
            adversary=AdversarySpec(kind="censor", count=1, victim=0),
        )
        assert run_scenario(spec).summary() == run_scenario(spec).summary()

    def test_workload_stop_after_cuts_load(self):
        """stop_after freezes offered load; delivered bytes stop growing."""
        stopped = run_scenario(
            tiny_spec(
                duration=10.0,
                workload=WorkloadSpec(
                    kind="poisson", rate_bytes_per_second=400_000.0, stop_after=2.0
                ),
            )
        )
        flowing = run_scenario(
            tiny_spec(
                duration=10.0,
                workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=400_000.0),
            )
        )
        assert stopped.summary()["mean_throughput"] < flowing.summary()["mean_throughput"]
        with pytest.raises(ValueError):
            WorkloadSpec(kind="poisson", stop_after=0.0)

    def test_vid_cost_scenario(self):
        from repro.experiments.figures import measure_avid_m_dispersal_cost, vid_cost_row

        spec = ScenarioSpec(
            name="vid",
            kind="vid-cost",
            topology=TopologySpec(kind="uniform", num_nodes=8),
            block_size=100_000,
        )
        summary = run_scenario(spec).summary()
        # The engine's extra columns are the shared cost row plus the measurement.
        assert {key: summary[key] for key in vid_cost_row(8, 100_000)} == vid_cost_row(8, 100_000)
        assert summary["measured_avid_m"] == measure_avid_m_dispersal_cost(8, 100_000)

    def test_matches_pre_engine_driver(self):
        """A spec-built run equals the same conditions wired by hand."""
        spec = tiny_spec(duration=10.0, seed=3)
        via_engine = run_scenario(spec).result
        rate = 2 * MB
        state = build_experiment(
            "dl",
            NetworkConfig(
                num_nodes=4,
                propagation_delay=0.05,
                egress_traces=[ConstantBandwidth(rate)] * 4,
                ingress_traces=[ConstantBandwidth(rate)] * 4,
            ),
            10.0,
            workload=WorkloadSpec(kind="saturating", target_pending_bytes=500_000),
            node_config=NodeConfig(max_block_size=100_000),
            seed=3,
        )
        by_hand = execute(state, [Stop(10.0)])
        assert via_engine.throughputs == by_hand.throughputs
        assert via_engine.delivered_epochs == by_hand.delivered_epochs
        assert via_engine.events_processed == by_hand.events_processed


class TestSweep:
    def test_parallel_and_serial_summaries_identical(self):
        base = tiny_spec(duration=6.0)
        grid = {"protocol": ("dl", "hb"), "seed": (0, 1)}
        serial = sweep(base, grid, options=ExecutionOptions(workers=1))
        parallel = sweep(base, grid, options=ExecutionOptions(workers=2))
        assert len(serial.points) == 4
        assert parallel.workers == 2
        assert serial.summaries() == parallel.summaries()

    def test_sweep_orders_points_deterministically(self):
        base = tiny_spec(duration=6.0)
        result = sweep(base, {"seed": (2, 0, 1)}, options=ExecutionOptions(workers=1))
        assert [point.spec.seed for point in result.points] == [2, 0, 1]
        assert result.events_processed == sum(
            point.result.events_processed for point in result.points
        )

    def test_table_renders_every_point(self):
        base = tiny_spec(duration=6.0)
        result = sweep(base, {"seed": (0, 1)}, options=ExecutionOptions(workers=1))
        table = result.table(columns=("label", "mean_throughput"))
        assert table.count("\n") == 3  # header + rule + 2 rows

    def test_checkpoint_every_writes_one_file_per_point_under_the_default_dir(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        base = tiny_spec(duration=3.0, checkpoint_every=1.0)
        result = sweep(base, {"seed": (0, 1)}, options=ExecutionOptions(workers=1))
        written = sorted(p.name for p in (tmp_path / DEFAULT_CHECKPOINT_DIR).iterdir())
        assert written == sorted(
            point_filename(point.spec, point.overrides, ".ckpt") for point in result.points
        )
        for name in written:
            header = read_snapshot_header(tmp_path / DEFAULT_CHECKPOINT_DIR / name)
            assert header["virtual_time"] == 2.0
        plain = sweep(
            tiny_spec(duration=3.0), {"seed": (0, 1)}, options=ExecutionOptions(workers=1)
        )
        assert result.summaries() == plain.summaries()


class TestCatalog:
    def test_figures_and_new_scenarios_present(self):
        names = set(SCENARIOS)
        assert {"fig02-vid-cost", "fig08-geo", "fig10-latency", "fig11a-spatial",
                "fig11b-temporal", "fig12-scalability", "fig15-vultr"} <= names
        beyond_paper = {e.name for e in list_scenarios() if e.figure is None}
        assert len(beyond_paper) >= 4

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_scenario("fig99")

    def test_catalog_grids_expand(self):
        for entry in list_scenarios():
            points = expand_grid(entry.base, entry.grid)
            assert len(points) == entry.num_points(), entry.name


#: Scenario misuse by name: what it appends to the command line.  ``{dir}``
#: is a tmp dir holding ``invalid.json`` (a spec file with an unknown field).
CLI_MISUSE = {
    "unknown-scenario": ["no-such"],
    "unreadable-spec-file": ["{dir}/absent.json"],
    "invalid-spec-file": ["{dir}/invalid.json"],
    "malformed-set": ["straggler-hetero", "--set", "bogus"],
    "unknown-set-path": ["straggler-hetero", "--set", "bogus=1"],
    "rejected-set-value": ["straggler-hetero", "--set", "workload.kind=wormhole"],
    "malformed-grid": ["straggler-hetero", "--grid", "bogus"],
}

#: (command, misuse) for every command that accepts the misused flag.
CLI_MISUSE_CASES = [
    (command, misuse)
    for command in ("run", "sweep", "show", "trace export", "trace spans")
    for misuse in CLI_MISUSE
    if not (command == "show" and "-set" in misuse)
    and not ("grid" in misuse and command not in ("run", "sweep"))
]


class TestCli:
    def test_list_runs(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig08-geo" in out and "bandwidth-flapping" in out

    def test_show_emits_loadable_spec(self, capsys):
        assert cli_main(["show", "straggler-hetero"]) == 0
        payload = json.loads(capsys.readouterr().out)
        restored = ScenarioSpec.from_dict(payload["base"])
        assert restored.bandwidth.kind == "straggler"

    def test_run_fig02_json(self, capsys):
        assert (
            cli_main(
                [
                    "run",
                    "fig02-vid-cost",
                    "--serial",
                    "--json",
                    "--grid",
                    "topology.num_nodes=8",
                    "--grid",
                    "block_size=100000",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["summaries"]) == 1
        assert payload["summaries"][0]["measured_avid_m"] > 0

    def test_run_spec_file_round_trips_with_in_memory_run(self, tmp_path, capsys):
        """spec -> JSON file -> CLI run equals running the spec in memory."""
        spec = tiny_spec(
            duration=5.0,
            adversary=AdversarySpec(kind="censor", count=1, victim=0),
            workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=400_000.0),
        )
        path = tmp_path / "tiny.json"
        path.write_text(spec.to_json())
        assert cli_main(["run", str(path), "--serial", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == spec.name
        assert payload["summaries"] == [run_scenario(spec).summary()]

    def test_run_on_a_pool_matches_the_serial_run(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(tiny_spec(duration=3.0).to_json())
        argv = ["run", str(path), "--grid", "seed=0,1", "--json"]
        assert cli_main(argv + ["--serial"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert cli_main(argv + ["--workers", "2"]) == 0
        pooled = json.loads(capsys.readouterr().out)
        assert (serial["parallel"], serial["workers"]) == (False, 1)
        assert (pooled["parallel"], pooled["workers"]) == (True, 2)
        assert pooled["summaries"] == serial["summaries"]
        # A point is one task: the payload has no window count.
        assert "windows" not in pooled

    @pytest.mark.parametrize("flag", ["--windows", "--window-dir"])
    def test_windowed_execution_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exited:
            cli_main(["run", "straggler-hetero", flag, "2"])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_show_spec_file(self, tmp_path, capsys):
        spec = tiny_spec(duration=5.0)
        path = tmp_path / "tiny.json"
        path.write_text(spec.to_json())
        assert cli_main(["show", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert ScenarioSpec.from_dict(payload["base"]) == spec

    @pytest.mark.parametrize(
        "content",
        [
            "{ not json",                                   # malformed JSON
            '{"protocl": "dl"}',                            # unknown field
            '{"duration": -1}',                             # invalid value
            '{"workload": {"kind": "wormhole"}}',           # unknown registry kind
            '{"adversary": {"kind": "censor", "victim": -3}}',  # bad behaviour param
        ],
    )
    def test_malformed_spec_file_is_a_clean_error(self, tmp_path, capsys, content):
        """Bad spec files exit 2 with a one-line error, never a traceback."""
        path = tmp_path / "broken.json"
        path.write_text(content)
        assert cli_main(["run", str(path), "--serial"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_missing_spec_file_is_a_clean_error(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path / "absent.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_stray_file_cannot_shadow_catalog_name(self, tmp_path, monkeypatch):
        """A file named like a catalog entry in the cwd is never picked up."""
        from repro.experiments.cli import resolve_entry

        (tmp_path / "fig08-geo").write_text("not a spec")
        monkeypatch.chdir(tmp_path)
        entry = resolve_entry("fig08-geo")
        assert entry.figure is not None  # the catalog entry, not the file

    def test_curated_spec_files_are_valid(self):
        """Every checked-in scenarios/*.json parses and round-trips."""
        from pathlib import Path

        spec_dir = Path(__file__).parent.parent / "scenarios"
        paths = sorted(spec_dir.glob("*.json"))
        assert len(paths) >= 5
        for path in paths:
            spec = ScenarioSpec.from_json(path.read_text())
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec, path.name

    def test_run_with_overrides(self, capsys):
        assert (
            cli_main(
                [
                    "run",
                    "adversary-crash-mix",
                    "--serial",
                    "--duration",
                    "6",
                    "--json",
                    "--set",
                    "warmup=0.0",
                    "--grid",
                    "protocol=dl",
                    "--grid",
                    'faults=[{"adversary.kind": "crash", "adversary.count": 1}]',
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["summaries"]) == 1
        assert payload["summaries"][0]["protocol"] == "dl"

    @pytest.mark.parametrize("command, misuse", CLI_MISUSE_CASES)
    def test_scenario_misuse_is_one_error_line_and_exit_2(
        self, tmp_path, capsys, command, misuse
    ):
        """Every command that resolves a scenario reports misuse the same way."""
        (tmp_path / "invalid.json").write_text('{"protocl": "dl"}')
        argv = command.split() + [word.format(dir=tmp_path) for word in CLI_MISUSE[misuse]]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
