"""Causal span tracing: the recorder, its reductions, and the CLI.

Unit coverage for :mod:`repro.trace.spans` (hook bookkeeping, FIFO
chunk-transfer matching, summary/critical-path reductions, Chrome
trace-event lowering), :mod:`repro.sim.profiler` (callback-kind bucketing
and the ``repro-profile-v1`` payload), and the ``trace spans`` / ``trace
flame`` subcommands' exit-status contracts (0 ok, 2 usage error).  The
behaviour-neutrality and execution-shape properties live in
``test_span_properties.py``; golden byte-identity in
``test_golden_summaries.py``.
"""

from __future__ import annotations

import argparse
import functools
import json
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError, TraceError
from repro.common.ids import VIDInstanceId
from repro.experiments.catalog import get_scenario
from repro.sim.events import InternalCallback, Simulator
from repro.sim.profiler import SimProfiler, callback_kind
from repro.trace.cli import add_trace_parser, run_trace_command
from repro.trace.io import REPO_ROOT
from repro.trace.observers import SpanSpec
from repro.trace.spans import (
    SPAN_PHASES,
    SpanRecorder,
    critical_path,
    profile_to_chrome,
    spans_to_chrome,
    summarise_spans,
)
from repro.common.params import ProtocolParams
from repro.vid.codec import VirtualCodec, VirtualPayload
from repro.vid.messages import ChunkMsg, GotChunkMsg, ReturnChunkMsg


#: Chunk 0 of a virtual block at N=4.
CHUNK = VirtualCodec(ProtocolParams.for_n(4)).encode(VirtualPayload(payload_id=0, size=252)).chunks[0]


def chunk_msg(epoch=0, proposer=0):
    return ChunkMsg(
        instance=VIDInstanceId(epoch=epoch, proposer=proposer),
        root=b"r" * 32,
        chunk=CHUNK,
    )


def return_chunk_msg(epoch=0, proposer=0):
    return ReturnChunkMsg(
        instance=VIDInstanceId(epoch=epoch, proposer=proposer),
        root=b"r" * 32,
        chunk=CHUNK,
    )


def run_cli(*argv):
    parser = argparse.ArgumentParser()
    add_trace_parser(parser.add_subparsers(dest="command", required=True))
    return run_trace_command(parser.parse_args(["trace", *argv]))


class TestSpanSpec:
    def test_empty_out_dir_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            SpanSpec(enabled=True, out_dir="")

    def test_spans_require_a_sim_scenario(self):
        from dataclasses import replace

        base = get_scenario("fig02-vid-cost").base
        with pytest.raises(ConfigurationError, match="requires a sim scenario"):
            replace(base, spans=SpanSpec(enabled=True))


class TestSpanRecorder:
    def test_rows_appear_only_on_close(self):
        recorder = SpanRecorder()
        recorder.on_dispersal_start(0, 3, 1.0)
        assert recorder.rows == []
        recorder.on_dispersal_complete(0, 3, 2.5)
        (row,) = recorder.rows
        assert row["name"] == "dispersal"
        assert (row["node"], row["epoch"]) == (0, 3)
        assert (row["start"], row["end"]) == (1.0, 2.5)

    def test_commit_root_opens_at_first_activity(self):
        recorder = SpanRecorder()
        recorder.on_dispersal_start(0, 0, 1.0)
        recorder.on_dispersal_complete(0, 0, 2.0)
        recorder.on_commit(0, 0, 5.0)
        dispersal, commit = recorder.rows
        assert commit["name"] == "commit"
        assert commit["parent"] is None
        assert commit["start"] == 1.0  # the dispersal's start, not 5.0
        assert commit["end"] == 5.0
        assert dispersal["parent"] == commit["id"]

    def test_unmatched_closes_are_ignored(self):
        recorder = SpanRecorder()
        recorder.on_dispersal_complete(0, 0, 1.0)
        recorder.on_retrieval_done(0, 0, 0, 1.0)
        recorder.on_commit(0, 0, 1.0)
        assert recorder.rows == []

    def test_ba_rounds_chain_and_decide_suppresses(self):
        recorder = SpanRecorder()
        recorder.on_ba_round(1, 0, 2, 0, 1.0)
        recorder.on_ba_round(1, 0, 2, 1, 1.5)  # closes round 0
        recorder.on_ba_decide(1, 0, 2, True, 2.0)  # closes round 1
        recorder.on_ba_round(1, 0, 2, 2, 2.5)  # decided: ignored
        recorder.on_ba_decide(1, 0, 2, False, 3.0)  # decided: ignored
        rounds = [row for row in recorder.rows if row["name"] == "ba-round"]
        assert [(row["round"], row["start"], row["end"]) for row in rounds] == [
            (0, 1.0, 1.5),
            (1, 1.5, 2.0),
        ]
        assert "decision" not in rounds[0]
        assert rounds[1]["decision"] == 1

    def test_chunk_transfers_match_fifo(self):
        recorder = SpanRecorder()
        recorder.on_message_send(0, 1, chunk_msg(), 1.0)
        recorder.on_message_send(0, 1, chunk_msg(), 1.2)
        recorder.on_chunk_arrived(0, 1, 0, 0, 2.0)
        recorder.on_chunk_arrived(0, 1, 0, 0, 2.4)
        transfers = [r for r in recorder.rows if r["name"] == "chunk-transfer"]
        assert [(r["start"], r["end"]) for r in transfers] == [(1.0, 2.0), (1.2, 2.4)]
        assert transfers[0]["id"] < transfers[1]["id"]
        assert all(r["transfer"] == "chunk" for r in transfers)

    def test_transfer_parents_resolve_at_send_time(self):
        recorder = SpanRecorder()
        recorder.on_dispersal_start(0, 0, 0.5)
        recorder.on_message_send(0, 1, chunk_msg(proposer=0), 1.0)
        recorder.on_retrieval_start(2, 0, 0, 1.0)
        recorder.on_message_send(1, 2, return_chunk_msg(proposer=0), 1.5)
        recorder.on_chunk_arrived(0, 1, 0, 0, 2.0)
        recorder.on_return_chunk_arrived(1, 2, 0, 0, 2.0)
        chunk, ret = recorder.rows
        assert chunk["parent"] == recorder._open_dispersal[(0, 0)][0]
        assert ret["parent"] == recorder._open_retrieval[(2, 0, 0)][0]
        # The transfer is attributed to the node doing the lifecycle work:
        # the proposer for dispersal, the requester for retrieval.
        assert chunk["node"] == 0
        assert ret["node"] == 2

    def test_non_chunk_messages_are_ignored(self):
        recorder = SpanRecorder()
        msg = GotChunkMsg(instance=VIDInstanceId(epoch=0, proposer=0), root=b"r" * 32)
        recorder.on_message_send(0, 1, msg, 1.0)
        assert recorder._open_transfers == {}

    def test_finish_drops_open_spans(self):
        recorder = SpanRecorder()
        recorder.on_dispersal_start(0, 0, 1.0)
        recorder.on_retrieval_start(0, 0, 0, 1.0)
        recorder.on_message_send(0, 1, chunk_msg(), 1.0)
        recorder.finish()
        assert recorder.rows == []  # aborted work emits nothing
        recorder.on_dispersal_complete(0, 0, 2.0)  # and cannot close late
        assert recorder.rows == []

    def test_write_jsonl_round_trips(self, tmp_path):
        recorder = SpanRecorder()
        recorder.on_dispersal_start(0, 0, 1.0)
        recorder.on_dispersal_complete(0, 0, 2.0)
        target = recorder.write_jsonl(tmp_path / "s.spans.jsonl")
        lines = target.read_text().splitlines()
        assert [json.loads(line) for line in lines] == recorder.rows


def synthetic_rows():
    """A two-commit span tree with a known critical path."""
    recorder = SpanRecorder()
    # Fast block: epoch 0 at node 0.
    recorder.on_dispersal_start(0, 0, 0.0)
    recorder.on_dispersal_complete(0, 0, 0.4)
    recorder.on_commit(0, 0, 1.0)
    # Slow block: epoch 1 at node 0, stalled on a retrieval.
    recorder.on_dispersal_start(0, 1, 1.0)
    recorder.on_dispersal_complete(0, 1, 1.5)
    recorder.on_retrieval_start(0, 1, 2, 1.5)
    recorder.on_message_send(1, 0, return_chunk_msg(epoch=1, proposer=2), 1.6)
    recorder.on_return_chunk_arrived(1, 0, 1, 2, 3.4)
    recorder.on_retrieval_done(0, 1, 2, 3.5)
    recorder.on_commit(0, 1, 4.0)
    return list(recorder.rows)


class TestSummarise:
    def test_phase_stats_and_ordering(self):
        summary = summarise_spans(synthetic_rows())
        assert list(summary["phases"]) == [
            name for name in SPAN_PHASES if name in summary["phases"]
        ]
        assert summary["phases"]["dispersal"]["count"] == 2
        assert summary["phases"]["commit"]["max"] == 3.0
        assert summary["commits"]["count"] == 2
        assert summary["commits"]["max_latency"] == 3.0

    def test_slowest_commit_leads_the_drilldown(self):
        summary = summarise_spans(synthetic_rows(), top=1)
        (slow,) = summary["slowest"]
        assert (slow["node"], slow["epoch"]) == (0, 1)
        assert slow["latency"] == 3.0
        # The commit waited on the retrieval, which waited on the transfer.
        assert [step["name"] for step in slow["critical_path"]] == [
            "retrieval",
            "chunk-transfer",
        ]
        assert slow["phase_seconds"]["retrieval"] == 2.0

    def test_critical_path_prefers_latest_finishing_child(self):
        commit = {"id": 0, "name": "commit", "node": 0, "start": 0.0, "end": 5.0}
        children = {
            0: [
                {"id": 1, "name": "dispersal", "node": 0, "start": 0.0, "end": 1.0},
                {"id": 2, "name": "retrieval", "node": 0, "start": 0.0, "end": 4.0,
                 "slot": 3},
            ]
        }
        path = critical_path(commit, children)
        assert [step["name"] for step in path] == ["retrieval"]
        assert path[0]["slot"] == 3

    def test_no_span_rows_rejected(self):
        with pytest.raises(TraceError, match="no span rows"):
            summarise_spans([{"kind": "meta", "t": 0.0}])


class TestChromeLowering:
    def test_span_events_are_complete_events(self):
        trace = spans_to_chrome(synthetic_rows())
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        assert all(event["dur"] >= 0 for event in events)
        commit = next(e for e in events if e["name"] == "commit")
        assert commit["ts"] == 0.0
        assert commit["dur"] == pytest.approx(1.0 * 1e6)
        assert {e["tid"] for e in events} == {0}

    def test_profile_events_tile_sequentially(self):
        profiler = SimProfiler()
        profiler.record("a", 0.25)
        profiler.record("b", 0.5)
        trace = profile_to_chrome(profiler.as_dict())
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == ["b", "a"]  # ranked by seconds
        assert events[0]["ts"] == 0.0
        assert events[1]["ts"] == pytest.approx(events[0]["dur"])

    def test_non_profile_payload_rejected(self):
        with pytest.raises(TraceError, match="repro-profile-v1"):
            profile_to_chrome({"format": "repro-trace-v1"})


class TestSimProfiler:
    def test_callback_kind_buckets(self):
        def plain():
            pass

        class Callable:
            def __call__(self):
                pass

        assert callback_kind(plain).endswith("plain")
        assert callback_kind(functools.partial(plain)).endswith("plain")
        assert "Callable" in callback_kind(Callable())

    def test_payload_ranks_by_host_seconds(self):
        profiler = SimProfiler()
        profiler.record("hot", 0.2)
        profiler.record("hot", 0.3)
        profiler.record("cold", 0.1)
        payload = profiler.as_dict()
        assert payload["format"] == "repro-profile-v1"
        assert [entry["kind"] for entry in payload["kinds"]] == ["hot", "cold"]
        assert payload["kinds"][0]["events"] == 2
        assert payload["total_events"] == 3
        assert payload["total_seconds"] == pytest.approx(0.6)

    def test_profiled_loop_attributes_every_event(self):
        sim = Simulator()
        sim.profiler = SimProfiler()

        def tick():
            pass

        for delay in (0.1, 0.2, 0.3):
            sim.schedule(delay, tick)
        sim.run(until=1.0)
        payload = sim.profiler.as_dict()
        assert payload["total_events"] >= 3
        assert any("tick" in entry["kind"] for entry in payload["kinds"])

    @staticmethod
    def _profiled_program():
        """12 events of two kinds, one of them on the in-order lane, plus
        3 uncounted internal hand-offs."""
        sim = Simulator()
        sim.profiler = SimProfiler()

        def tick():
            pass

        def hop():
            pass

        def handoff():
            pass

        for step in range(6):
            sim.schedule(0.5 * step, tick)
            sim.schedule_in_order(0.25 + 0.5 * step, hop)
        for step in range(3):
            sim.schedule_internal(1.0 * step, InternalCallback(handoff))
        return sim

    @staticmethod
    def _events_by_kind(sim):
        return {
            entry["kind"].replace("TestSimProfiler._profiled_program.<locals>.", ""): entry["events"]
            for entry in sim.profiler.as_dict()["kinds"]
        }

    def test_profile_totals_of_an_unbudgeted_run(self):
        sim = self._profiled_program()
        sim.run()
        assert sim.processed_events == 12
        assert self._events_by_kind(sim) == {
            "event:tick": 6,
            "event:hop": 6,
            "internal:handoff": 3,
        }
        assert sim.profiler.as_dict()["total_events"] == 15

    def test_budgeted_run_is_profiled_too(self):
        # ``max_events`` used to select the unprofiled loop silently.
        sim = self._profiled_program()
        sim.run(max_events=5)
        kinds = self._events_by_kind(sim)
        assert sim.processed_events == 5
        assert sum(count for kind, count in kinds.items() if kind.startswith("event:")) == 5
        # Slice by slice, the budgeted profile adds up to the unbudgeted one.
        while sim.pending_events:
            sim.run(max_events=4)
        whole = self._profiled_program()
        whole.run()
        assert self._events_by_kind(sim) == self._events_by_kind(whole)

    def test_unprofiled_loop_matches_profiled(self):
        def run(profiler):
            sim = Simulator()
            sim.profiler = profiler
            fired = []
            sim.schedule(0.5, lambda: fired.append(sim.now))
            sim.schedule(0.25, lambda: fired.append(sim.now))
            end = sim.run(until=2.0)
            return fired, end

        assert run(None) == run(SimProfiler())


class TestSpansCli:
    def spans_file(self, tmp_path):
        path = tmp_path / "run.spans.jsonl"
        path.write_text(
            "".join(json.dumps(row, sort_keys=True) + "\n" for row in synthetic_rows())
        )
        return path

    def test_summarises_a_span_file(self, tmp_path, capsys):
        assert run_cli("spans", str(self.spans_file(tmp_path))) == 0
        out = capsys.readouterr().out
        assert "2 committed block(s)" in out
        assert "dispersal" in out
        assert "slowest: node 0 epoch 1" in out

    def test_json_output_carries_the_summary(self, tmp_path, capsys):
        assert run_cli("spans", str(self.spans_file(tmp_path)), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["commits"]["count"] == 2

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert run_cli("spans", str(tmp_path / "gone.spans.jsonl")) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_scenario_is_exit_2(self, capsys):
        assert run_cli("spans", "no-such-scenario") == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_spec_file_source_records_spans(self, tmp_path, capsys):
        spec_file = REPO_ROOT / "scenarios" / "trace-replay-wan.json"
        code = run_cli(
            "spans", str(spec_file), "--duration", "1", "--out", str(tmp_path), "--json"
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert Path(payload["span_path"]).parent == tmp_path
        assert payload["summary"]["num_spans"] > 0

    def test_profile_with_a_file_source_is_exit_2(self, tmp_path, capsys):
        source = self.spans_file(tmp_path)
        code = run_cli(
            "spans", str(source), "--profile", str(tmp_path / "p.json")
        )
        assert code == 2
        assert "--profile" in capsys.readouterr().err

    def test_flame_from_span_file(self, tmp_path, capsys):
        out = tmp_path / "flame.json"
        assert run_cli("flame", str(self.spans_file(tmp_path)), "--out", str(out)) == 0
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
        assert all(event["ph"] == "X" for event in trace["traceEvents"])
        assert "trace event(s)" in capsys.readouterr().out

    def test_flame_from_profile_json(self, tmp_path):
        profiler = SimProfiler()
        profiler.record("loop", 1.0)
        source = tmp_path / "profile.json"
        source.write_text(json.dumps(profiler.as_dict()))
        out = tmp_path / "flame.json"
        assert run_cli("flame", str(source), "--out", str(out)) == 0
        assert json.loads(out.read_text())["traceEvents"][0]["name"] == "loop"

    def test_flame_on_non_profile_json_is_exit_2(self, tmp_path, capsys):
        source = tmp_path / "bogus.json"
        source.write_text('{"format": "something-else"}')
        assert run_cli("flame", str(source), "--out", str(tmp_path / "f.json")) == 2
        assert "repro-profile-v1" in capsys.readouterr().err

    def test_flame_on_a_missing_profile_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        assert run_cli("flame", str(tmp_path / "gone.json"), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: cannot read profile file")
        assert not out.exists()

    def test_flame_on_malformed_profile_json_is_exit_2(self, tmp_path, capsys):
        source = tmp_path / "broken.json"
        source.write_text('{"format": ')
        assert run_cli("flame", str(source), "--out", str(tmp_path / "f.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed profile JSON") and err.count("\n") == 1

    def test_flame_on_a_missing_span_file_is_exit_2(self, tmp_path, capsys):
        source = tmp_path / "gone.spans.jsonl"
        assert run_cli("flame", str(source), "--out", str(tmp_path / "f.json")) == 2
        assert capsys.readouterr().err.startswith("error: cannot read JSONL file")

    def test_malformed_span_file_is_exit_2(self, tmp_path, capsys):
        source = tmp_path / "broken.spans.jsonl"
        source.write_text('{"name": "dispersal", \n')
        assert run_cli("spans", str(source)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed JSONL") and err.count("\n") == 1

    def test_top_limits_the_drilldown(self, tmp_path, capsys):
        assert run_cli("spans", str(self.spans_file(tmp_path)), "--top", "1") == 0
        out = capsys.readouterr().out
        assert out.count("slowest: ") == 1
        assert "slowest: node 0 epoch 1" in out
