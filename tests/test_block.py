"""Tests for transactions and blocks."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import BLOCK_OVERHEAD, TX_OVERHEAD, Block, Transaction


def make_tx(tx_id=1, origin=0, size=None, data=b"payload", created_at=1.5):
    return Transaction(
        tx_id=tx_id,
        origin=origin,
        created_at=created_at,
        size=len(data) if size is None else size,
        data=data,
    )


class TestTransaction:
    def test_size_must_match_data(self):
        with pytest.raises(ValueError):
            Transaction(tx_id=1, origin=0, created_at=0.0, size=3, data=b"toolong")

    def test_size_without_data_is_allowed(self):
        tx = Transaction(tx_id=1, origin=0, created_at=0.0, size=250)
        assert tx.size == 250
        assert tx.data == b""

    def test_is_a_value(self):
        """Equality, hashing and pickling go by the five public fields."""
        tx = Transaction(7, 2, 1.5, 3, b"abc")  # positional order is public
        same = Transaction(tx_id=7, origin=2, created_at=1.5, size=3, data=b"abc")
        assert (tx.tx_id, tx.origin, tx.created_at, tx.size, tx.data) == (7, 2, 1.5, 3, b"abc")
        assert tx == same and hash(tx) == hash(same)
        assert len({tx, same}) == 1
        assert tx != Transaction(7, 2, 1.5, 3, b"abd")
        assert tx != (7, 2, 1.5, 3, b"abc")
        assert pickle.loads(pickle.dumps(tx)) == tx
        assert repr(tx) == "Transaction(tx_id=7, origin=2, created_at=1.5, size=3, data=b'abc')"


class TestBlockSizes:
    def test_empty_block(self):
        block = Block(proposer=1, epoch=2)
        assert block.is_empty
        assert block.payload_bytes == 0
        assert block.size == BLOCK_OVERHEAD

    def test_size_accounts_for_transactions_and_v_array(self):
        txs = (make_tx(1, data=b"abc"), make_tx(2, data=b"defgh"))
        block = Block(proposer=0, epoch=1, transactions=txs, v_array=(1, 2, 3, 4))
        assert block.payload_bytes == 8
        assert block.size == BLOCK_OVERHEAD + 4 * 8 + 2 * TX_OVERHEAD + 8

    def test_digest_changes_with_content(self):
        a = Block(proposer=0, epoch=1, transactions=(make_tx(1),))
        b = Block(proposer=0, epoch=1, transactions=(make_tx(2),))
        c = Block(proposer=0, epoch=2, transactions=(make_tx(1),))
        assert a.digest() != b.digest()
        assert a.digest() != c.digest()
        assert a.digest() == Block(proposer=0, epoch=1, transactions=(make_tx(1),)).digest()


class TestSerialization:
    def test_roundtrip(self):
        block = Block(
            proposer=3,
            epoch=7,
            transactions=(make_tx(10, origin=2, data=b"hello"), make_tx(11, data=b"")),
            v_array=(5, 0, 3, 9),
        )
        restored = Block.deserialize(block.serialize())
        assert restored.proposer == 3
        assert restored.epoch == 7
        assert restored.v_array == (5, 0, 3, 9)
        assert [tx.tx_id for tx in restored.transactions] == [10, 11]
        assert restored.transactions[0].data == b"hello"

    def test_roundtrip_empty(self):
        block = Block(proposer=0, epoch=1)
        assert Block.deserialize(block.serialize()).is_empty

    def test_transactions_without_data_roundtrip_by_size(self):
        block = Block(proposer=0, epoch=1, transactions=(make_tx(1, size=100, data=b""),))
        restored = Block.deserialize(block.serialize())
        assert restored.transactions[0].size == 100

    @pytest.mark.parametrize(
        "payload",
        [b"", b"\x00", b"garbage", b"\xff" * 11],
    )
    def test_malformed_payload_raises(self, payload):
        with pytest.raises(ValueError):
            Block.deserialize(payload)

    def test_truncated_payload_raises(self):
        good = Block(proposer=0, epoch=1, transactions=(make_tx(1, data=b"abcdef"),)).serialize()
        with pytest.raises(ValueError):
            Block.deserialize(good[:-3])

    def test_trailing_bytes_raise(self):
        good = Block(proposer=0, epoch=1).serialize()
        with pytest.raises(ValueError):
            Block.deserialize(good + b"\x00")

    @given(
        num_txs=st.integers(min_value=0, max_value=5),
        v_len=st.integers(min_value=0, max_value=8),
        data=st.binary(min_size=0, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, num_txs, v_len, data):
        txs = tuple(make_tx(i, data=data) for i in range(num_txs))
        block = Block(proposer=1, epoch=2, transactions=txs, v_array=tuple(range(v_len)))
        restored = Block.deserialize(block.serialize())
        assert restored.v_array == tuple(range(v_len))
        assert len(restored.transactions) == num_txs
        assert all(tx.data == data for tx in restored.transactions)
        assert restored.size == block.size
