"""Tests for transaction columns (``TxBatch``) and the telemetry analysis.

The mempool that queues and cuts batches is covered by
``tests/test_mempool.py``; this module pins the batch's own behaviours —
digest/wire byte layout, origins and payload columns, slice/concat — and
the telemetry ``summarise`` reductions.
"""

import json
import struct

import numpy as np
import pytest

from repro.common.errors import TraceError
from repro.core.block import Transaction
from repro.core.txbatch import TxBatch
from repro.trace.analysis import summarise_node_samples, summarise_telemetry


def tx(tx_id, size=100, origin=0, created_at=0.0):
    return Transaction(tx_id=tx_id, origin=origin, created_at=created_at, size=size)


def batch(origin, *sizes, first_id=1, created_at=0.0):
    ids = np.arange(first_id, first_id + len(sizes), dtype=np.uint64)
    created = np.full(len(sizes), created_at, dtype=np.float64)
    return TxBatch(origin, ids, created, np.array(sizes, dtype=np.int64))


class TestTxBatch:
    def test_columns_are_read_only(self):
        b = batch(0, 100, 200)
        with pytest.raises(ValueError):
            b.sizes[0] = 1

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError):
            TxBatch(
                0,
                np.arange(2, dtype=np.uint64),
                np.zeros(3),
                np.array([1, 2], dtype=np.int64),
            )

    def test_from_transactions_round_trip(self):
        txs = [tx(1, 100, origin=3), tx(2, 50, origin=3, created_at=1.5)]
        b = TxBatch.from_transactions(txs)
        assert b.origin == 3 and b.origins is None and b.payloads is None
        assert b.count == 2
        assert b.total_bytes == 150
        assert b.as_transactions() == txs

    def test_mixed_origins_and_payloads_round_trip(self):
        txs = [
            Transaction(1, 0, 0.5, 3, b"abc"),
            Transaction(2, 4, 0.6, 100),
            Transaction(3, 0, 0.7, 0),
        ]
        b = TxBatch.from_transactions(txs)
        assert b.origin is None and b.origins.tolist() == [0, 4, 0]
        assert b.payloads == (b"abc", b"", b"")
        assert b.as_transactions() == txs
        assert b.slice(1, 3).as_transactions() == txs[1:]
        assert b.created_at_from(0).tolist() == [0.5, 0.7]
        assert b.created_at_from(4).tolist() == [0.6]
        assert b.created_at_from(2).tolist() == []

    def test_one_origin_or_an_origins_column(self):
        ids = np.arange(2, dtype=np.uint64)
        with pytest.raises(ValueError, match="origin"):
            TxBatch(None, ids, np.zeros(2), np.ones(2, dtype=np.int64))
        with pytest.raises(ValueError, match="origin"):
            TxBatch(0, ids, np.zeros(2), np.ones(2, dtype=np.int64), origins=np.zeros(2))

    def test_digest_material_is_the_packed_id_and_size_of_every_row(self):
        txs = [tx(1, 100), tx(2**40, 7), tx(3, 2**31)]
        expected = b"".join(struct.pack(">QI", t.tx_id, t.size) for t in txs)
        assert TxBatch.from_transactions(txs).digest_material() == expected

    def test_serialize_is_header_then_payload_per_row(self):
        txs = [
            Transaction(5, 2, 1.25, 3, b"abc"),
            Transaction(6, 7, 2.5, 4),  # no data: zero-filled on the wire
            Transaction(7, 2, 3.0, 0),
        ]
        expected = b"".join(
            struct.pack(">QIId", t.tx_id, t.origin, t.size, t.created_at)
            + (t.data or bytes(t.size))
            for t in txs
        )
        assert TxBatch.from_transactions(txs).serialize() == expected
        assert TxBatch.empty().serialize() == b""

    def test_slice_is_zero_copy_and_byte_exact(self):
        b = batch(1, 10, 20, 30, 40)
        piece = b.slice(1, 3)
        assert piece.count == 2
        assert piece.total_bytes == 50
        assert piece.tx_ids.base is not None  # a view, not a copy
        assert b.slice(0, 4) is b  # full-range slice returns self

    def test_concat_keeps_one_origin_scalar_and_mixes_otherwise(self):
        same = TxBatch.concat([batch(1, 10), batch(1, 20, first_id=5)])
        assert same.origin == 1 and same.origins is None and same.total_bytes == 30
        mixed = TxBatch.concat([batch(0, 10, 10), batch(1, 10, first_id=9)])
        assert mixed.origin is None and mixed.origins.tolist() == [0, 0, 1]
        with_data = TxBatch.from_transactions([Transaction(20, 1, 0.0, 2, b"hi")])
        joined = TxBatch.concat([mixed, with_data])
        assert joined.origins.tolist() == [0, 0, 1, 1]
        assert joined.payloads == (b"", b"", b"", b"hi")

    def test_concat_of_empties_is_empty(self):
        assert TxBatch.concat([TxBatch.empty(0), TxBatch.empty(1)]).count == 0


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


class TestTelemetryAnalysis:
    def test_time_weighted_queue_mean(self):
        # Queue 10 held for 1 s then 30 held for 3 s: mean = (10 + 90) / 4.
        rows = [
            sample(0.0, egress_queue=10),
            sample(1.0, egress_queue=30),
            sample(4.0, egress_queue=0),
        ]
        stats = summarise_node_samples(rows)
        assert stats["egress_queue"]["mean"] == pytest.approx(100.0 / 4.0)
        assert stats["egress_queue"]["max"] == 30.0

    def test_utilisation_weighted_by_preceding_interval(self):
        # Util rows describe the interval before them; the t=0 row has none.
        rows = [
            sample(0.0, egress_util=0.9),  # zero-length interval: no weight
            sample(1.0, egress_util=0.5),
            sample(3.0, egress_util=1.0),
        ]
        stats = summarise_node_samples(rows)
        assert stats["egress_util"]["mean"] == pytest.approx((0.5 + 2.0) / 3.0)

    def test_unsorted_samples_rejected(self):
        with pytest.raises(TraceError, match="not sorted"):
            summarise_node_samples([sample(1.0), sample(0.5)])

    def test_single_sample_reports_its_value_not_zero(self):
        """Regression: with one sample every gap weight is zero, and the mean
        used to report 0.0 for every field while max reported the value."""
        stats = summarise_node_samples([sample(2.0, egress_queue=42, ingress_util=0.75)])
        assert stats["egress_queue"]["mean"] == 42.0
        assert stats["egress_queue"]["max"] == 42.0
        assert stats["ingress_util"]["mean"] == pytest.approx(0.75)
        assert stats["samples"] == 1
        assert any("single sample" in warning for warning in stats["warnings"])

    def test_multi_sample_series_has_no_warning_field(self):
        stats = summarise_node_samples([sample(0.0), sample(1.0)])
        assert "warnings" not in stats

    def test_coincident_samples_fall_back_to_unweighted_mean(self):
        """All samples at one instant: no interval to weight, plain mean."""
        stats = summarise_node_samples(
            [sample(1.0, egress_queue=10), sample(1.0, egress_queue=30)]
        )
        assert stats["egress_queue"]["mean"] == pytest.approx(20.0)

    def test_cluster_aggregates_and_meta(self):
        rows = [
            {"kind": "meta", "t": 0.0, "num_nodes": 2, "interval": 1.0},
            sample(0.0, node=0, ingress_queue=4),
            sample(1.0, node=0, ingress_queue=4),
            sample(0.0, node=1, ingress_queue=8),
            sample(1.0, node=1, ingress_queue=8),
        ]
        summary = summarise_telemetry(rows)
        assert summary["num_nodes"] == 2
        assert summary["recorded_nodes"] == 2
        assert summary["interval"] == 1.0
        assert summary["cluster"]["ingress_queue"]["mean"] == pytest.approx(6.0)
        assert summary["cluster"]["ingress_queue"]["max"] == 8.0

    def test_no_samples_rejected(self):
        with pytest.raises(TraceError, match="no sample rows"):
            summarise_telemetry([{"kind": "meta", "t": 0.0}])


class TestSummariseCli:
    def write_jsonl(self, path, rows):
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")

    def run(self, *argv):
        import argparse

        from repro.trace.cli import add_trace_parser, run_trace_command

        parser = argparse.ArgumentParser()
        add_trace_parser(parser.add_subparsers(dest="command", required=True))
        return run_trace_command(parser.parse_args(["trace", *argv]))

    def test_table_and_json_output(self, tmp_path, capsys):
        target = tmp_path / "telemetry.jsonl"
        self.write_jsonl(target, [sample(0.0), sample(1.0, egress_queue=10)])
        assert self.run("summarise", str(target)) == 0
        out = capsys.readouterr().out
        assert "1 node(s)" in out and "cluster" in out
        assert self.run("summarise", str(target), "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["nodes"][0]["samples"] == 2

    def test_missing_file_is_a_one_line_error(self, tmp_path, capsys):
        assert self.run("summarise", str(tmp_path / "nope.jsonl")) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_node_is_a_one_line_error(self, tmp_path, capsys):
        target = tmp_path / "telemetry.jsonl"
        self.write_jsonl(target, [sample(0.0)])
        assert self.run("summarise", str(target), "--node", "5") == 2
        assert "node 5" in capsys.readouterr().err
