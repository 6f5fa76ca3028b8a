"""The telemetry comparison toolchain: ``trace diff`` and envelopes.

Unit coverage for :mod:`repro.trace.diff` (structured deltas, tolerances
and ``repro-envelope-v1`` envelopes) plus the ``trace diff`` exit-status
contract: 0 ok, 1 out-of-tolerance, 2 usage error.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.common.errors import TraceError
from repro.trace.analysis import summarise_telemetry
from repro.trace.cli import add_trace_parser, run_trace_command
from repro.trace.diff import (
    DEFAULT_ABS_TOL,
    ENVELOPE_FORMAT,
    ENVELOPE_SERIES,
    ENVELOPE_STATS,
    SeriesDelta,
    breaches,
    check_envelope,
    diff_node_stats,
    diff_telemetry,
    envelope_from_summary,
    is_envelope,
)


def sample(t, node=0, **overrides):
    row = {
        "kind": "sample",
        "t": t,
        "node": node,
        "egress_queue": 0,
        "ingress_queue": 0,
        "egress_util": 0.0,
        "ingress_util": 0.0,
    }
    row.update(overrides)
    return row


def recording(scale=1.0, nodes=(0, 1), ticks=(0.0, 1.0, 2.0, 3.0)):
    """A small two-node telemetry stream with per-node structure."""
    rows = [{"kind": "meta", "t": 0.0, "num_nodes": len(nodes), "interval": 1.0}]
    for node in nodes:
        for i, t in enumerate(ticks):
            rows.append(
                sample(
                    t,
                    node=node,
                    egress_queue=scale * (10_000 * (i + 1) + 5_000 * node),
                    ingress_queue=scale * 4_000 * i,
                    egress_util=min(1.0, 0.25 * scale * (i + 1)),
                    ingress_util=0.5,
                    delivered_epoch=i,
                    current_epoch=i + 1,
                )
            )
    rows.append({"kind": "commit", "t": 1.5, "node": nodes[0], "epoch": 1})
    return rows


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def run_cli(*argv):
    parser = argparse.ArgumentParser()
    add_trace_parser(parser.add_subparsers(dest="command", required=True))
    return run_trace_command(parser.parse_args(["trace", *argv]))


class TestDiff:
    def test_identical_recordings_have_no_breaches(self):
        deltas = diff_telemetry(recording(), recording())
        assert deltas and not breaches(deltas)

    def test_perturbed_series_breaches(self):
        failed = breaches(diff_telemetry(recording(), recording(scale=1.5)))
        assert failed
        assert {delta.series for delta in failed} >= {"egress_queue"}

    def test_relative_tolerance_widens_the_band(self):
        assert not breaches(diff_telemetry(recording(), recording(scale=1.04)))
        assert breaches(diff_telemetry(recording(), recording(scale=1.2)))
        assert not breaches(
            diff_telemetry(recording(), recording(scale=1.2), rel_tol=0.5)
        )

    def test_absolute_floor_covers_near_zero_series(self):
        # ingress_queue maxes at 12 000 bytes; a +1 KB wiggle sits inside the
        # 2 KB floor even though it is far beyond 5% relative.
        base, nudged = recording(), recording()
        for row in nudged:
            if row["kind"] == "sample":
                row["ingress_queue"] += 1_000
        deltas = [d for d in diff_telemetry(base, nudged) if d.series == "ingress_queue"]
        assert deltas and not breaches(deltas)

    def test_mismatched_node_sets_rejected(self):
        with pytest.raises(TraceError, match="node sets differ"):
            diff_telemetry(recording(nodes=(0, 1)), recording(nodes=(0, 1, 2)))

    def test_negative_rel_tol_rejected(self):
        with pytest.raises(TraceError, match="non-negative"):
            diff_telemetry(recording(), recording(), rel_tol=-0.1)

    def test_delta_dict_shape(self):
        delta = SeriesDelta("cluster", "egress_queue", "mean", 100.0, 90.0, 5.0)
        payload = delta.as_dict()
        assert payload["delta"] == -10.0
        assert payload["breach"] is True

    def test_a_delta_equal_to_the_allowance_is_not_a_breach(self):
        assert not SeriesDelta(0, "egress_queue", "mean", 100.0, 105.0, 5.0).breach
        assert SeriesDelta(0, "egress_queue", "mean", 100.0, 105.5, 5.0).breach

    def test_every_node_series_and_stat_is_compared_in_node_order(self):
        deltas = diff_telemetry(recording(), recording())
        # Two nodes plus the cluster row, four series each, mean and max.
        assert len(deltas) == 3 * len(ENVELOPE_SERIES) * len(ENVELOPE_STATS)
        nodes = [delta.node for delta in deltas]
        assert nodes == sorted(nodes, key=str)
        assert set(nodes) == {0, 1, "cluster"}
        assert {(delta.series, delta.stat) for delta in deltas if delta.node == "cluster"} == {
            (series, stat) for series in ENVELOPE_SERIES for stat in ENVELOPE_STATS
        }

    def test_allowed_is_the_larger_of_floor_and_relative_band(self):
        stats = {0: {"egress_queue": {"mean": 100_000.0, "max": 10.0}}}
        allowed = {delta.stat: delta.allowed for delta in diff_node_stats(stats, stats)}
        assert allowed == {"mean": 5_000.0, "max": DEFAULT_ABS_TOL["egress_queue"]}

    def test_bare_abs_tol_number_applies_to_every_series(self):
        deltas = diff_telemetry(recording(), recording(scale=1.5), abs_tol=1e12)
        assert not breaches(deltas)
        assert {delta.allowed for delta in deltas} == {1e12}

    def test_per_series_abs_tol_keeps_the_other_defaults(self):
        stats = {0: {"egress_queue": {"mean": 10.0}, "ingress_queue": {"mean": 10.0}}}
        deltas = diff_node_stats(stats, stats, abs_tol={"egress_queue": 0.0}, rel_tol=0.0)
        allowed = {delta.series: delta.allowed for delta in deltas}
        assert allowed == {"egress_queue": 0.0, "ingress_queue": DEFAULT_ABS_TOL["ingress_queue"]}

    def test_unknown_abs_tol_series_rejected(self):
        with pytest.raises(TraceError, match="'egress_queu'"):
            diff_telemetry(recording(), recording(), abs_tol={"egress_queu": 1e9})

    def test_zero_tolerance_flags_a_one_byte_change(self):
        nudged = recording()
        nudged[1]["egress_queue"] += 1
        assert not breaches(diff_telemetry(recording(), recording(), abs_tol=0.0, rel_tol=0.0))
        assert breaches(diff_telemetry(recording(), nudged, abs_tol=0.0, rel_tol=0.0))

    def test_observed_missing_a_series_rejected(self):
        reference = {0: {"egress_queue": {"mean": 1.0}}}
        with pytest.raises(TraceError, match="missing the 'egress_queue' series"):
            diff_node_stats(reference, {0: {}})

    def test_node_set_error_names_missing_and_unexpected(self):
        stats = {"egress_queue": {"mean": 1.0}}
        with pytest.raises(TraceError, match=r"missing \['1'\], unexpected \['2'\]"):
            diff_node_stats({0: stats, 1: stats}, {0: stats, 2: stats})


class TestEnvelope:
    def envelope(self, **kwargs):
        return envelope_from_summary(
            summarise_telemetry(recording()), scenario="demo", **kwargs
        )

    def test_round_trip_within_tolerance(self):
        assert not breaches(check_envelope(recording(), self.envelope()))

    def test_envelope_fields(self):
        envelope = self.envelope(run={"seed": 0})
        assert is_envelope(envelope)
        assert envelope["num_nodes"] == 2
        assert envelope["run"] == {"seed": 0}
        assert envelope["tolerances"]["abs"] == dict(DEFAULT_ABS_TOL)
        assert set(envelope["nodes"]) == {"0", "1"}

    def test_perturbed_recording_breaches(self):
        assert breaches(check_envelope(recording(scale=1.5), self.envelope()))

    def test_tightened_tolerance_turns_a_pass_into_a_breach(self):
        envelope = self.envelope()
        nudged = recording()
        for row in nudged:
            if row["kind"] == "sample":
                row["egress_queue"] = int(row["egress_queue"] * 1.03)
        assert not breaches(check_envelope(nudged, envelope))
        assert breaches(check_envelope(nudged, envelope, abs_tol=0.0, rel_tol=0.001))

    def test_envelope_declared_tolerances_are_used(self):
        wide = self.envelope(rel_tol=0.9)
        assert not breaches(check_envelope(recording(scale=1.5), wide))

    def test_non_envelope_payload_rejected(self):
        with pytest.raises(TraceError, match="repro-envelope-v1"):
            check_envelope(recording(), {"format": "something-else"})

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(TraceError, match="repro-envelope-v1"):
            check_envelope(recording(), [ENVELOPE_FORMAT])

    @pytest.mark.parametrize(
        "payload", [None, [], ENVELOPE_FORMAT, {"format": "repro-trace-v1"}, {}]
    )
    def test_is_envelope_rejects(self, payload):
        assert not is_envelope(payload)

    @pytest.mark.parametrize(
        "broken",
        [
            {"cluster": {}},
            {"nodes": {"0": {}}},
            {"nodes": {"zero": {}}, "cluster": {}},
            {"nodes": ["0"], "cluster": {}},
        ],
    )
    def test_malformed_envelope_rejected(self, broken):
        with pytest.raises(TraceError, match="malformed envelope"):
            check_envelope(recording(), {"format": ENVELOPE_FORMAT, **broken})

    def test_envelope_survives_a_json_round_trip(self):
        envelope = json.loads(json.dumps(self.envelope()))
        assert not breaches(check_envelope(recording(), envelope))
        assert breaches(check_envelope(recording(scale=1.5), envelope))

    def test_envelope_pins_node_and_cluster_stats(self):
        envelope = self.envelope()
        # Node 1's deepest egress queue is the last tick: 10 000 * 4 + 5 000.
        assert envelope["nodes"]["1"]["egress_queue"]["max"] == 45_000.0
        assert envelope["cluster"]["egress_queue"]["max"] == 45_000.0
        assert set(envelope["cluster"]) == set(ENVELOPE_SERIES)
        assert set(envelope["cluster"]["ingress_util"]) == set(ENVELOPE_STATS)

    def test_envelope_rejects_unknown_abs_tol_series(self):
        with pytest.raises(TraceError, match="unknown absolute-tolerance series"):
            self.envelope(abs_tol={"bogus": 1.0})

    def test_explicit_tolerances_override_the_envelope(self):
        wide = self.envelope(rel_tol=0.9)
        assert breaches(check_envelope(recording(scale=1.5), wide, abs_tol=0.0, rel_tol=0.0))

    def test_envelope_without_tolerances_uses_the_defaults(self):
        envelope = self.envelope(rel_tol=0.9)
        del envelope["tolerances"]
        assert not breaches(check_envelope(recording(), envelope))
        assert breaches(check_envelope(recording(scale=1.5), envelope))

    def test_recording_with_other_nodes_rejected(self):
        with pytest.raises(TraceError, match="node sets differ"):
            check_envelope(recording(nodes=(0, 1, 2)), self.envelope())


class TestDiffCli:
    def test_two_recordings_within_tolerance_exit_0(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, recording())
        write_jsonl(b, recording())
        assert run_cli("diff", str(a), str(b)) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_breach_is_exit_1(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, recording())
        write_jsonl(b, recording(scale=2.0))
        assert run_cli("diff", str(a), str(b)) == 1
        captured = capsys.readouterr()
        assert "BREACH" in captured.out
        assert "out of tolerance" in captured.err

    def test_envelope_reference_and_json_output(self, tmp_path, capsys):
        envelope = tmp_path / "envelope.json"
        envelope.write_text(
            json.dumps(envelope_from_summary(summarise_telemetry(recording()))),
            encoding="utf-8",
        )
        observed = tmp_path / "o.jsonl"
        write_jsonl(observed, recording())
        assert run_cli("diff", str(envelope), str(observed), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["breaches"] == 0
        assert all(not delta["breach"] for delta in payload["deltas"])

    def test_json_reference_that_is_not_an_envelope_is_exit_2(self, tmp_path, capsys):
        bogus = tmp_path / "ref.json"
        bogus.write_text('{"format": "repro-trace-v1"}', encoding="utf-8")
        observed = tmp_path / "o.jsonl"
        write_jsonl(observed, recording())
        assert run_cli("diff", str(bogus), str(observed)) == 2
        assert "not a repro-envelope-v1" in capsys.readouterr().err

    def test_mismatched_node_sets_are_exit_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, recording(nodes=(0,)))
        write_jsonl(b, recording(nodes=(0, 1)))
        assert run_cli("diff", str(a), str(b)) == 2
        assert "node sets differ" in capsys.readouterr().err

    def test_missing_reference_is_exit_2(self, tmp_path, capsys):
        observed = tmp_path / "o.jsonl"
        write_jsonl(observed, recording())
        assert run_cli("diff", str(tmp_path / "none.jsonl"), str(observed)) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_abs_tol_argument_is_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        write_jsonl(a, recording())
        assert run_cli("diff", str(a), str(a), "--abs-tol", "egress_queue=lots") == 2
        assert "not a number" in capsys.readouterr().err

    def test_unknown_abs_tol_series_is_exit_2(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        write_jsonl(a, recording())
        assert run_cli("diff", str(a), str(a), "--abs-tol", "egress_queu=1e9") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'egress_queu'" in err and "egress_queue" in err

    def pair(self, tmp_path, scale):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, recording())
        write_jsonl(b, recording(scale=scale))
        return str(a), str(b)

    def test_bare_abs_tol_number_is_exit_0_on_a_wide_floor(self, tmp_path):
        a, b = self.pair(tmp_path, 1.5)
        assert run_cli("diff", a, b) == 1
        assert run_cli("diff", a, b, "--abs-tol", "1e12") == 0

    def test_per_series_abs_tol_is_exit_1_when_another_series_breaches(self, tmp_path):
        a, b = self.pair(tmp_path, 1.5)
        assert run_cli("diff", a, b, "--abs-tol", "egress_queue=1e12") == 1

    def test_two_bare_abs_tol_numbers_are_exit_2(self, tmp_path, capsys):
        a, b = self.pair(tmp_path, 1.0)
        assert run_cli("diff", a, b, "--abs-tol", "1", "--abs-tol", "2") == 2
        assert "applies to every series" in capsys.readouterr().err

    def test_non_numeric_bare_abs_tol_is_exit_2(self, tmp_path, capsys):
        a, b = self.pair(tmp_path, 1.0)
        assert run_cli("diff", a, b, "--abs-tol", "lots") == 2
        assert "SERIES=VALUE or a number" in capsys.readouterr().err

    def test_rel_tol_flag_widens_the_band(self, tmp_path):
        a, b = self.pair(tmp_path, 1.2)
        assert run_cli("diff", a, b) == 1
        assert run_cli("diff", a, b, "--rel-tol", "0.5") == 0

    def test_negative_rel_tol_is_exit_2(self, tmp_path, capsys):
        a, b = self.pair(tmp_path, 1.0)
        assert run_cli("diff", a, b, "--rel-tol", "-0.1") == 2
        assert "non-negative" in capsys.readouterr().err

    def test_table_lists_every_compared_series(self, tmp_path, capsys):
        a, b = self.pair(tmp_path, 1.0)
        assert run_cli("diff", a, b) == 0
        lines = capsys.readouterr().out.splitlines()
        compared = 3 * len(ENVELOPE_SERIES) * len(ENVELOPE_STATS)
        # Header, rule, one row per compared statistic, verdict.
        assert len(lines) == compared + 3
        assert sum(line.endswith(" ok") for line in lines) == compared
        assert lines[-1] == f"all {compared} compared series within tolerance"

    def test_json_breach_is_exit_1_and_counts_the_breaches(self, tmp_path, capsys):
        a, b = self.pair(tmp_path, 2.0)
        assert run_cli("diff", a, b, "--json") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["breaches"] == sum(delta["breach"] for delta in payload["deltas"]) > 0
        assert (payload["reference"], payload["observed"]) == (a, b)

    def test_envelope_reference_breach_is_exit_1(self, tmp_path, capsys):
        envelope = tmp_path / "envelope.json"
        envelope.write_text(
            json.dumps(envelope_from_summary(summarise_telemetry(recording()))),
            encoding="utf-8",
        )
        observed = tmp_path / "o.jsonl"
        write_jsonl(observed, recording(scale=2.0))
        assert run_cli("diff", str(envelope), str(observed)) == 1
        assert "out of tolerance" in capsys.readouterr().err

    def test_missing_envelope_reference_is_exit_2(self, tmp_path, capsys):
        a, _ = self.pair(tmp_path, 1.0)
        assert run_cli("diff", str(tmp_path / "none.json"), a) == 2
        assert capsys.readouterr().err.startswith("error: cannot read reference file")

    def test_malformed_reference_json_is_exit_2(self, tmp_path, capsys):
        bogus = tmp_path / "ref.json"
        bogus.write_text("{not json", encoding="utf-8")
        a, _ = self.pair(tmp_path, 1.0)
        assert run_cli("diff", str(bogus), a) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed reference JSON") and err.count("\n") == 1

    def test_malformed_observed_jsonl_is_exit_2(self, tmp_path, capsys):
        a, b = self.pair(tmp_path, 1.0)
        (tmp_path / "b.jsonl").write_text('{"kind": "sample", \n', encoding="utf-8")
        assert run_cli("diff", a, b) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSONL") and err.count("\n") == 1
