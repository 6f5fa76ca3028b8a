"""Trace replay through the scenario engine + per-run telemetry recording."""

from __future__ import annotations

import itertools
import json
from dataclasses import replace

import pytest

from repro.adversary.registry import AdversarySpec
from repro.common.errors import ConfigurationError, TraceError
from repro.core.config import NodeConfig
from repro.experiments.catalog import get_scenario
from repro.experiments.cli import main as cli_main
from repro.experiments.engine import point_filename, run_scenario
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import WorkloadSpec
from repro.experiments.scenario import (
    BandwidthSpec,
    ScenarioSpec,
    TopologySpec,
    build_network_config,
)
from repro.sim.profiler import SimProfiler
from repro.trace import (
    MeasuredTrace,
    SpanSpec,
    TelemetrySpec,
    TraceRecorder,
    read_jsonl,
    save_trace,
)

MB = 1_000_000


@pytest.fixture
def trace_file(tmp_path):
    """A 2-node measured trace on disk (cycled over larger clusters)."""
    trace = MeasuredTrace.from_node_rates(
        "tiny-wan",
        {
            0: [(0.0, 2 * MB, 2 * MB), (3.0, 1 * MB, 1 * MB)],
            1: [(0.0, 3 * MB, 3 * MB)],
        },
    )
    return str(save_trace(trace, tmp_path / "tiny-wan.csv"))


def replay_spec(trace_file, **overrides) -> ScenarioSpec:
    defaults = dict(
        name="tiny-replay",
        topology=TopologySpec(kind="uniform", num_nodes=4, delay=0.05),
        bandwidth=BandwidthSpec(kind="trace-replay", trace_path=trace_file),
        workload=WorkloadSpec(kind="saturating", target_pending_bytes=500_000),
        node=NodeConfig(max_block_size=100_000),
        duration=6.0,
        warmup_fraction=0.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestTraceReplayModel:
    def test_network_replays_the_file(self, trace_file):
        config = build_network_config(replay_spec(trace_file))
        # Node 0 replays trace node 0 (2 MB/s then 1 MB/s), node 1 trace
        # node 1, and nodes 2/3 cycle back around.
        assert config.ingress_trace(0).rate_at(0.0) == 2 * MB
        assert config.ingress_trace(0).rate_at(4.0) == 1 * MB
        assert config.ingress_trace(1).rate_at(0.0) == 3 * MB
        assert config.ingress_trace(2).rate_at(0.0) == 2 * MB
        assert config.ingress_trace(3).rate_at(0.0) == 3 * MB

    def test_trace_scale_applies(self, trace_file):
        spec = replay_spec(trace_file, bandwidth=BandwidthSpec(
            kind="trace-replay", trace_path=trace_file, trace_scale=0.5
        ))
        config = build_network_config(spec)
        assert config.ingress_trace(0).rate_at(0.0) == 1 * MB

    def test_spec_validation(self, trace_file):
        with pytest.raises(ConfigurationError, match="trace_path"):
            BandwidthSpec(kind="trace-replay")
        with pytest.raises(ConfigurationError, match="trace_scale"):
            BandwidthSpec(kind="trace-replay", trace_path=trace_file, trace_scale=0.0)

    def test_missing_trace_file_fails_at_build(self, trace_file):
        spec = replay_spec(trace_file, bandwidth=BandwidthSpec(
            kind="trace-replay", trace_path="absent/nowhere.csv"
        ))
        with pytest.raises(TraceError, match="not found"):
            build_network_config(spec)

    def test_spec_json_round_trip_with_trace_path(self, trace_file):
        spec = replay_spec(
            trace_file,
            bandwidth=BandwidthSpec(
                kind="trace-replay", trace_path=trace_file, trace_scale=2.0
            ),
            telemetry=TelemetrySpec(enabled=True, interval=0.5, out_dir="tm"),
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.bandwidth.trace_path == trace_file
        assert restored.bandwidth.trace_scale == 2.0
        assert restored.telemetry == TelemetrySpec(enabled=True, interval=0.5, out_dir="tm")

    def test_catalog_trace_scenarios_resolve(self):
        for name in ("trace-replay-wan", "trace-scale-sweep"):
            entry = get_scenario(name)
            assert entry.base.bandwidth.kind == "trace-replay"
            config = build_network_config(replace(entry.base, duration=1.0))
            assert config.num_nodes == entry.base.num_nodes


class TestTelemetrySpec:
    def test_defaults_are_off(self):
        assert ScenarioSpec().telemetry == TelemetrySpec()
        assert not TelemetrySpec().enabled

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TelemetrySpec(interval=0.0)
        with pytest.raises(ConfigurationError):
            TelemetrySpec(out_dir="")
        with pytest.raises(ConfigurationError):
            TraceRecorder(interval=-1.0)

    def test_telemetry_rejected_on_analytic_kinds(self):
        """vid-cost runs never build a simulator, so recording must fail loudly."""
        with pytest.raises(ConfigurationError, match="sim scenario"):
            ScenarioSpec(
                name="vid",
                kind="vid-cost",
                telemetry=TelemetrySpec(enabled=True),
            )
        # The CLI surfaces it as a clean exit-2 error, not a traceback.
        assert cli_main(["trace", "export", "fig02-vid-cost"]) == 2


class TestLinkSampling:
    def test_busy_time_accrues_for_in_flight_transfers(self):
        """Utilisation sampled mid-transfer must see the elapsed service time."""
        from repro.sim.bandwidth import ConstantBandwidth
        from repro.sim.events import Simulator
        from repro.sim.pipe import Pipe
        from repro.sim.messages import Priority

        sim = Simulator()
        pipe = Pipe(sim, ConstantBandwidth(1000.0))  # 10 s to move 10 kB
        pipe.submit(10_000, Priority.DISPERSAL, lambda: None)
        sim.run(until=4.0)
        assert pipe.busy_time == 0.0  # nothing completed yet
        assert pipe.busy_time_at(sim.now) == pytest.approx(4.0)
        assert pipe.in_flight_bytes == 10_000
        sim.run(until=11.0)
        assert pipe.busy_time == pytest.approx(10.0)
        assert pipe.busy_time_at(sim.now) == pytest.approx(10.0)
        assert pipe.in_flight_bytes == 0

    def test_sampled_utilisation_never_exceeds_one(self, trace_file, tmp_path):
        """Long transfers spanning intervals report util in [0, 1] throughout."""
        spec = replay_spec(
            trace_file,
            duration=5.0,
            node=NodeConfig(max_block_size=400_000),
            telemetry=TelemetrySpec(enabled=True, interval=0.5, out_dir=str(tmp_path)),
        )
        rows = read_jsonl(run_scenario(spec).telemetry_path)
        samples = [row for row in rows if row["kind"] == "sample"]
        assert samples
        for row in samples:
            assert -1e-9 <= row["egress_util"] <= 1.0 + 1e-9, row
            assert -1e-9 <= row["ingress_util"] <= 1.0 + 1e-9, row
        # The saturating workload keeps at least some link busy mid-run.
        assert any(row["egress_util"] > 0.5 for row in samples)


class TestRecorder:
    def test_summary_identical_with_telemetry_on_and_off(self, trace_file, tmp_path):
        spec = replay_spec(trace_file)
        off = run_scenario(spec)
        on = run_scenario(
            replace(
                spec,
                telemetry=TelemetrySpec(enabled=True, interval=0.5, out_dir=str(tmp_path)),
            )
        )
        assert off.summary() == on.summary()
        assert off.telemetry_path is None
        assert on.telemetry_path is not None

    @pytest.mark.parametrize(
        "switched_on",
        [
            subset
            for size in range(1, 4)
            for subset in itertools.combinations(("telemetry", "spans", "profiler"), size)
        ],
        ids="+".join,
    )
    def test_summary_identical_under_every_observer_subset(
        self, trace_file, tmp_path, switched_on
    ):
        """Telemetry, spans and the profiler are neutral alone and together."""
        spec = replay_spec(trace_file)
        off = run_scenario(spec)
        observed = replace(
            spec,
            telemetry=TelemetrySpec(
                enabled="telemetry" in switched_on, interval=0.5, out_dir=str(tmp_path)
            ),
            spans=SpanSpec(enabled="spans" in switched_on, out_dir=str(tmp_path)),
        )
        profiler = SimProfiler() if "profiler" in switched_on else None
        on = run_scenario(observed, options=ExecutionOptions(profiler=profiler))
        assert on.summary() == off.summary()
        assert on.result.events_processed == off.result.events_processed
        assert (on.telemetry_path is not None) == ("telemetry" in switched_on)
        assert (on.span_path is not None) == ("spans" in switched_on)
        for path in (on.telemetry_path, on.span_path):
            assert path is None or read_jsonl(path)
        if profiler is not None:
            assert profiler.as_dict()["total_events"] > 0

    def test_jsonl_rows_cover_the_run(self, trace_file, tmp_path):
        spec = replay_spec(
            trace_file,
            duration=4.0,
            telemetry=TelemetrySpec(enabled=True, interval=1.0, out_dir=str(tmp_path)),
        )
        outcome = run_scenario(spec)
        rows = read_jsonl(outcome.telemetry_path)
        kinds = {row["kind"] for row in rows}
        assert {"meta", "sample", "commit"} <= kinds
        meta = rows[0]
        assert meta["kind"] == "meta"
        assert meta["num_nodes"] == 4
        samples = [row for row in rows if row["kind"] == "sample"]
        # Samples on the grid t = 0, 1, 2, 3, 4 for each of the 4 nodes.
        assert len(samples) == 5 * 4
        assert {row["t"] for row in samples} == {0.0, 1.0, 2.0, 3.0, 4.0}
        for row in samples:
            assert row["egress_queue"] >= 0 and row["ingress_queue"] >= 0
            assert 0.0 <= row["egress_util"] <= 1.0 + 1e-9
            assert row["delivered_epoch"] >= 0
            assert row["confirmed_bytes"] >= 0
        commits = [row for row in rows if row["kind"] == "commit"]
        assert all(commit["latency"] >= 0 for commit in commits)
        assert all(commit["blocks"] >= 1 for commit in commits)
        # Every line is valid standalone JSON (the JSONL contract).
        with open(outcome.telemetry_path, encoding="utf-8") as handle:
            for line in handle:
                assert json.loads(line)["kind"] in {
                    "meta",
                    "sample",
                    "commit",
                    "adversary-delivery",
                }

    def test_adversary_rows_recorded(self, trace_file, tmp_path):
        spec = replay_spec(
            trace_file,
            duration=6.0,
            workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=300_000.0),
            adversary=AdversarySpec(kind="equivocate", count=1),
            telemetry=TelemetrySpec(enabled=True, interval=1.0, out_dir=str(tmp_path)),
        )
        rows = read_jsonl(run_scenario(spec).telemetry_path)
        deliveries = [row for row in rows if row["kind"] == "adversary-delivery"]
        assert deliveries
        assert all(row["proposer"] == 3 for row in deliveries)
        assert any(row["label"] == "BAD_UPLOADER" for row in deliveries)

    def test_telemetry_filename_is_point_unique_and_safe(self, trace_file):
        spec = replay_spec(trace_file, seed=7)
        assert point_filename(spec, None, ".jsonl") == "tiny-replay-base-seed7.jsonl"
        labelled = point_filename(
            spec, {"bandwidth.trace_scale": 0.5, "protocol": "dl"}, ".spans.jsonl"
        )
        assert labelled == "tiny-replay-trace_scale-0.5-protocol-dl-seed7.spans.jsonl"
        assert "/" not in labelled and "=" not in labelled


class TestTraceCli:
    def test_inspect_text_and_json(self, capsys):
        assert cli_main(["trace", "inspect", "traces/wan-measured.csv"]) == 0
        out = capsys.readouterr().out
        assert "8 node(s)" in out
        assert cli_main(["trace", "inspect", "traces/lte-handover.json", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_nodes"] == 4
        assert len(payload["nodes"]) == 4

    def test_inspect_missing_file_exits_2(self, capsys, tmp_path):
        assert cli_main(["trace", "inspect", str(tmp_path / "absent.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_convert_round_trips_and_transforms(self, trace_file, tmp_path, capsys):
        as_json = tmp_path / "converted.json"
        assert cli_main(["trace", "convert", trace_file, str(as_json)]) == 0
        back = tmp_path / "back.csv"
        assert cli_main(["trace", "convert", str(as_json), str(back)]) == 0
        from repro.trace import load_trace

        original = load_trace(trace_file)
        assert load_trace(back).nodes == original.nodes

        scaled = tmp_path / "scaled.csv"
        assert (
            cli_main(
                ["trace", "convert", trace_file, str(scaled), "--scale", "2", "--step", "1"]
            )
            == 0
        )
        doubled = load_trace(scaled)
        assert doubled.rates_at(0, 0.0) == (4 * MB, 4 * MB)
        assert [t for t, _, _ in doubled.nodes[0].points] == [0.0, 1.0, 2.0, 3.0]

    def test_convert_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,node,up_bps,down_bps\n1,0,1,1\n0,0,1,1\n")
        assert cli_main(["trace", "convert", str(bad), str(tmp_path / "out.json")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_export_runs_a_spec_file_with_telemetry(self, trace_file, tmp_path, capsys):
        spec_path = tmp_path / "tiny.json"
        spec_path.write_text(replay_spec(trace_file, duration=3.0).to_json())
        out_dir = tmp_path / "telemetry"
        assert (
            cli_main(
                [
                    "trace",
                    "export",
                    str(spec_path),
                    "--out",
                    str(out_dir),
                    "--interval",
                    "1.0",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry_path"] is not None
        rows = read_jsonl(payload["telemetry_path"])
        assert rows and rows[0]["kind"] == "meta"
        assert payload["summary"]["num_nodes"] == 4

    def test_export_unknown_scenario_exits_2(self, capsys):
        assert cli_main(["trace", "export", "no-such-scenario"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
