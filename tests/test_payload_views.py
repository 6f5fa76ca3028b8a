"""One copy of a block's bytes: shards, payload and parsed transactions are views.

The Reed-Solomon encoder writes a block into one buffer of ``N`` shard-sized
rows (length header and payload in the first ``k``, parity in place in the
rest) and hands out every shard, and the payload the codec files, as a
read-only ``memoryview`` of it; a parsed block's transaction batch keeps that
payload view itself as its payload buffer (per-row start offsets into it, no
per-row copy).  Every test here compares against the definitions those views
replace — shards as slices of the length-prefixed, zero-padded block, parsed
rows as one ``bytes`` per transaction — and checks that nothing a caller can
observe tells them apart: shard bytes, Merkle roots, pickles, slices,
concatenation, old checkpoints.
Payload lengths run from 0 past several ``k * 4`` bytes, so shards narrower
than the 4-byte length header are covered.
"""

from __future__ import annotations

import gc
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import ProtocolParams
from repro.core.block import Block, Transaction
from repro.core.txbatch import TxBatch
from repro.crypto.merkle import MerkleTree
from repro.erasure.gf256 import GF256
from repro.erasure.rs_code import ReedSolomonCode, shard_size
from repro.vid.codec import RealCodec, _same_bytes

_SIZES = (4, 7, 16)


def _reference_shards(code: ReedSolomonCode, block: bytes) -> list[bytes]:
    """Shards as slices of the length-prefixed, zero-padded block, plus parity."""
    size = shard_size(len(block), code.data_shards)
    padded = (struct.pack(">I", len(block)) + block).ljust(code.data_shards * size, b"\x00")
    data = [padded[i * size : (i + 1) * size] for i in range(code.data_shards)]
    rows = np.frombuffer(padded, dtype=np.uint8).reshape(code.data_shards, size)
    return data + [row.tobytes() for row in GF256.mat_vec_rows(code._parity_matrix, rows)]


def _code(n: int) -> ReedSolomonCode:
    params = ProtocolParams.for_n(n)
    return ReedSolomonCode(params.data_shards, params.total_shards)


@given(n=st.sampled_from(_SIZES), blocks=st.lists(st.binary(max_size=200), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_shards_and_roots_equal_the_padded_slice_definition(n, blocks):
    code = _code(n)
    expected = [_reference_shards(code, block) for block in blocks]
    assert [[bytes(s) for s in code.encode(block)] for block in blocks] == expected
    codec = RealCodec(ProtocolParams.for_n(n))
    for block, shards in zip(blocks, expected):
        bundle = codec.encode(block)
        assert bundle.root == MerkleTree(shards).root
        assert [chunk.data for chunk in bundle.chunks] == shards


@pytest.mark.parametrize("n", _SIZES)
def test_every_shard_and_the_payload_view_one_buffer_of_n_rows(n):
    params = ProtocolParams.for_n(n)
    code = _code(n)
    for length in range(0, 8 * code.data_shards * 4, 3):
        block = bytes(range(256)) * (length // 256) + bytes(range(length % 256))
        size = shard_size(length, code.data_shards)
        codec = RealCodec(params)
        bundle = codec.encode(block)
        payload = codec._roots[bundle.root].payload
        views = [chunk.data for chunk in bundle.chunks] + [payload]
        assert all(type(view) is memoryview and view.readonly for view in views)
        buffer = views[0].obj
        assert all(view.obj is buffer for view in views), length
        assert len(buffer) == n * size
        assert [bytes(chunk.data) for chunk in bundle.chunks] == [
            bytes(buffer[i * size : (i + 1) * size]) for i in range(n)
        ]
        assert bytes(buffer[4 : 4 + length]) == payload == block
        payload_view, shards = code.encode_with_payload(block)
        assert payload_view == block
        assert {id(view.obj) for view in shards} == {id(payload_view.obj)}


@pytest.mark.parametrize("n", _SIZES)
def test_a_decoded_payload_is_a_view_of_one_joined_buffer(n):
    code = _code(n)
    k = code.data_shards
    for length in range(0, 8 * k * 4, 5):
        block = bytes(range(length))
        shards = code.encode(block)
        for indices in (range(k), range(n - k, n)):
            payload = code.decode({i: shards[i] for i in indices})
            assert type(payload) is memoryview and payload.readonly
            assert len(payload.obj) == k * shard_size(length, code.data_shards)
            assert payload == block


@pytest.mark.parametrize("n", _SIZES)
def test_blocks_encoded_in_turn_each_own_a_buffer(n):
    """Every ``encode`` allocates afresh: no block's buffer is reused for a
    later one, so earlier shards keep their bytes and still decode."""
    code = _code(n)
    k = code.data_shards
    blocks = [b"", b"a", b"hello world", bytes(range(256)) * 2, b"x" * 37]
    encoded = [code.encode(block) for block in blocks]
    assert len({id(shards[0].obj) for shards in encoded}) == len(blocks)
    for block, shards in zip(blocks, encoded):
        assert [bytes(shard) for shard in shards] == _reference_shards(code, block)
        assert code.decode({i: shards[i] for i in range(n - k, n)}) == block


def _view(data: bytes) -> memoryview:
    return memoryview(bytearray(data)).toreadonly()


_BLOCK = bytes(range(256)) * 4
_ONE_VIEW = _view(_BLOCK)


@pytest.mark.parametrize(
    "a, b",
    [
        pytest.param(_ONE_VIEW, _ONE_VIEW, id="one-view"),
        pytest.param(_view(_BLOCK), _view(_BLOCK), id="equal-buffers"),
        pytest.param(_view(_BLOCK), _BLOCK, id="view-and-bytes"),
        pytest.param(_view(_BLOCK), _view(_BLOCK[:-1]), id="prefix"),
        pytest.param(_view(_BLOCK), _view(_BLOCK[:-1] + b"\x00"), id="last-byte"),
        pytest.param(_view(_BLOCK), _view(b"\x00" + _BLOCK[1:]), id="first-byte"),
        pytest.param(_view(b""), b"", id="empty"),
    ],
)
def test_same_bytes_is_bytes_equality(a, b):
    """The codec's fast payload compare answers as ``bytes`` equality does,
    for views and for the ``bytes`` a restored checkpoint holds."""
    expected = bytes(a) == bytes(b)
    assert _same_bytes(a, b) == expected
    assert _same_bytes(b, a) == expected


@given(n=st.sampled_from(_SIZES), block=st.binary(min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_a_mutable_input_mutated_after_encode_changes_no_chunk(n, block):
    codec = RealCodec(ProtocolParams.for_n(n))
    buffer = bytearray(block)
    bundle = codec.encode(buffer)
    before = [bytes(chunk.data) for chunk in bundle.chunks]
    buffer[:] = bytes(len(buffer))
    buffer.extend(b"more")
    assert [bytes(chunk.data) for chunk in bundle.chunks] == before
    assert bundle.root == MerkleTree(before).root
    assert codec._roots[bundle.root].payload == block


def test_a_view_holding_chunk_pickles_as_bytes_and_compares_equal():
    bundle = RealCodec(ProtocolParams.for_n(16)).encode(bytes(range(256)) * 8)
    views = [chunk for chunk in bundle.chunks if isinstance(chunk.data, memoryview)]
    assert views
    for chunk in views:
        restored = pickle.loads(pickle.dumps(chunk))
        assert type(restored.data) is bytes
        assert restored == chunk and restored.data == bytes(chunk.data)


def test_a_shared_view_pickles_once_and_restores_as_one_object():
    payload, _ = _code(16).encode_with_payload(bytes(range(256)) * 64)
    data = pickle.dumps([payload, payload, payload])
    assert len(data) < len(payload) + 100
    first, second, third = pickle.loads(data)
    assert type(first) is bytes and first == payload
    assert first is second is third


#: One transaction row: origin, stamp, size, whether it carries data.
_row = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.integers(min_value=0, max_value=64),
    st.booleans(),
)


def _transactions(rows) -> list[Transaction]:
    return [
        Transaction(tx_id, origin, stamp, size, bytes([tx_id % 251 + 1]) * size if data else b"")
        for tx_id, (origin, stamp, size, data) in enumerate(rows, start=1)
    ]


def _wire_view(txs: list[Transaction]) -> list[Transaction]:
    """What a parse must give back: data-less rows carry their wire zeros."""
    return [
        Transaction(tx.tx_id, tx.origin, tx.created_at, tx.size, tx.data or bytes(tx.size))
        for tx in txs
    ]


def _reachable_bytes(root) -> list[bytes]:
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if type(obj) is bytes:
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


@given(rows=st.lists(_row, max_size=12), v_array=st.lists(st.integers(-1, 9), max_size=4))
@settings(max_examples=100, deadline=None)
def test_a_parsed_block_views_the_wire_and_cuts_bytes_only_on_request(rows, v_array):
    txs = _transactions(rows)
    wire = Block(3, 7, transactions=txs, v_array=tuple(v_array)).serialize()
    parsed = Block.deserialize(wire)
    assert parsed.serialize() == wire
    if not txs:
        assert parsed.tx_batch is None
        return
    assert parsed.tx_batch.payloads is wire
    assert _reachable_bytes(parsed) == [wire]  # no per-row copy
    records = parsed.transactions
    assert records == tuple(_wire_view(txs))
    assert all(type(record.data) is bytes for record in records)


def test_a_data_less_row_reads_back_as_its_wire_zeros():
    block = Block(0, 1, tx_batch=TxBatch.uniform(0, np.arange(3, dtype=np.uint64), 0.5, 4))
    parsed = Block.deserialize(block.serialize())
    assert parsed.transactions != block.transactions
    assert [tx.data for tx in parsed.transactions] == [bytes(4)] * 3
    assert [tx.data for tx in block.transactions] == [b""] * 3


def test_a_retrieved_block_references_the_recorded_payload():
    params = ProtocolParams.for_n(7)
    codec = RealCodec(params)
    wire = Block(1, 2, transactions=_transactions([(1, 0.5, 40, True), (1, 0.7, 9, False)])).serialize()
    bundle = codec.encode(wire)
    chunks = {chunk.index: chunk for chunk in bundle.chunks[: params.data_shards]}
    payload = codec.decode(bundle.root, chunks)
    block = codec.parse_shared(payload, Block.deserialize)
    assert block.tx_batch.payloads is payload
    assert codec.parse_shared(codec.decode(bundle.root, chunks), Block.deserialize) is block


@given(
    rows=st.lists(_row, min_size=1, max_size=10),
    extra=st.lists(_row, max_size=4),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_a_parsed_batch_survives_slice_concat_and_pickle(rows, extra, data):
    txs = _transactions(rows)
    parsed = Block.deserialize(Block(0, 0, transactions=txs).serialize()).tx_batch
    expected = _wire_view(txs)
    start = data.draw(st.integers(0, len(txs)))
    stop = data.draw(st.integers(start, len(txs)))
    piece = parsed.slice(start, stop)
    assert piece.payloads is parsed.payloads
    assert piece.as_transactions() == expected[start:stop]
    others = _transactions(extra)
    tail = TxBatch.from_transactions(others)
    joined = TxBatch.concat([piece, tail])
    assert joined.as_transactions() == expected[start:stop] + others
    assert joined.serialize() == piece.serialize() + tail.serialize()
    restored = pickle.loads(pickle.dumps(parsed))
    assert restored.as_transactions() == expected
    assert not restored.payload_starts.flags.writeable


def test_a_payload_longer_than_its_row_is_rejected():
    """It would overwrite the next row's header on the wire."""
    with pytest.raises(ValueError, match="declares size 3 but carries 4 bytes"):
        Transaction(1, 0, 0.0, 3, b"abcd")
    with pytest.raises(ValueError, match="declares size 2 but carries 1 bytes"):
        Transaction(2, 0, 0.0, 2, b"x")
    batch = TxBatch.from_transactions([Transaction(1, 0, 0.0, 3, b"abc"), Transaction(2, 0, 0.0, 2)])
    assert Block.deserialize(Block(0, 1, tx_batch=batch).serialize()).tx_batch.tx_ids.tolist() == [1, 2]
