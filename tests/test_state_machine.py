"""Tests for the replicated key-value state machine."""

import pytest

from repro.core.block import Transaction
from repro.core.config import NodeConfig
from repro.core.node import DispersedLedgerNode
from repro.core.state_machine import KeyValueStateMachine, decode_operation, encode_operation
from tests.conftest import build_cluster


def tx_with(payload: bytes, tx_id=1, origin=0):
    return Transaction(tx_id=tx_id, origin=origin, created_at=0.0, size=len(payload), data=payload)


class TestEncoding:
    def test_roundtrip(self):
        payload = encode_operation("set", "account", 42)
        assert decode_operation(payload) == {"op": "set", "key": "account", "value": 42}

    def test_malformed_payloads_decode_to_none(self):
        assert decode_operation(b"not json") is None
        assert decode_operation(b"\xff\xfe") is None
        assert decode_operation(b"[1, 2, 3]") is None
        assert decode_operation(b"{\"op\": \"set\"}") is None


class TestApply:
    def test_set_and_delete(self):
        machine = KeyValueStateMachine()
        assert machine.apply(tx_with(encode_operation("set", "x", "1")))
        assert machine.state == {"x": "1"}
        assert machine.apply(tx_with(encode_operation("delete", "x")))
        assert machine.state == {}

    def test_add_increments(self):
        machine = KeyValueStateMachine()
        machine.apply(tx_with(encode_operation("add", "counter", 3)))
        machine.apply(tx_with(encode_operation("add", "counter", 4)))
        assert machine.state["counter"] == 7

    def test_add_to_non_numeric_rejected(self):
        machine = KeyValueStateMachine()
        machine.apply(tx_with(encode_operation("set", "k", "text")))
        assert not machine.apply(tx_with(encode_operation("add", "k", 1)))
        assert machine.rejected_count == 1

    def test_unknown_operation_rejected(self):
        machine = KeyValueStateMachine()
        assert not machine.apply(tx_with(encode_operation("frobnicate", "k", 1)))

    def test_spam_transactions_do_not_corrupt_state(self):
        machine = KeyValueStateMachine()
        machine.apply(tx_with(encode_operation("set", "k", "v")))
        machine.apply(tx_with(b"spam bytes"))
        machine.apply(tx_with(b""))
        assert machine.state == {"k": "v"}
        assert machine.rejected_count == 2

    def test_apply_block_counts(self):
        machine = KeyValueStateMachine()
        txs = (
            tx_with(encode_operation("set", "a", 1), tx_id=1),
            tx_with(b"junk", tx_id=2),
            tx_with(encode_operation("set", "b", 2), tx_id=3),
        )
        assert machine.apply_block(txs) == 2
        assert machine.applied_count == 2


class TestDeterminism:
    def test_replicas_converge_on_same_log(self):
        log = [
            tx_with(encode_operation("set", "a", 1), tx_id=1),
            tx_with(encode_operation("add", "a", 5), tx_id=2),
            tx_with(encode_operation("set", "b", "x"), tx_id=3),
            tx_with(encode_operation("delete", "a"), tx_id=4),
        ]
        first, second = KeyValueStateMachine(), KeyValueStateMachine()
        for tx in log:
            first.apply(tx)
        for tx in log:
            second.apply(tx)
        assert first.snapshot() == second.snapshot() == {"b": "x"}

    def test_order_matters(self):
        # The whole point of total order: different orders may give different
        # states, which is why the ledger's ordering guarantees matter.
        a = tx_with(encode_operation("set", "k", 1), tx_id=1)
        b = tx_with(encode_operation("set", "k", 2), tx_id=2)
        first, second = KeyValueStateMachine(), KeyValueStateMachine()
        first.apply(a), first.apply(b)
        second.apply(b), second.apply(a)
        assert first.state["k"] != second.state["k"]


class TestClientBytesReachTheReplica:
    """``submit_payload`` → mempool → block → delivery → state machine.

    The operations of ``examples/quickstart.py``.  On the virtual plane the
    block object itself is delivered, so the client's bytes have to survive
    the mempool's columns; on the real plane they also cross the wire format.
    """

    @pytest.mark.parametrize("data_plane", ["virtual", "real"])
    def test_quickstart_operations_replicate(self, params4, data_plane):
        network, nodes = build_cluster(
            DispersedLedgerNode, params4, seed=42, config=NodeConfig(data_plane=data_plane)
        )
        submitted = [
            nodes[0].submit_payload(encode_operation("set", "alice", 100)),
            nodes[0].submit_payload(encode_operation("set", "bob", 50)),
            nodes[1].submit_payload(encode_operation("add", "alice", -30)),
            nodes[1].submit_payload(encode_operation("add", "bob", 30)),
            nodes[2].submit_payload(encode_operation("set", "carol", 7)),
            nodes[3].submit_payload(encode_operation("delete", "carol")),
            nodes[3].submit_payload(b"this is spam, not a valid operation"),
        ]
        network.start()
        network.run()
        for node in nodes:
            # Epoch 1 commits all four blocks, proposers in index order.
            assert node.ledger.transactions() == submitted
            machine = KeyValueStateMachine()
            for entry in node.ledger.entries:
                machine.apply_block(entry.block.transactions)
            assert machine.snapshot() == {"alice": 70, "bob": 80}
            assert (machine.applied_count, machine.rejected_count) == (6, 1)
