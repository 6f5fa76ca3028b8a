"""Tests for the AVID-M codecs (real erasure-coded bytes and virtual sizes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import ProtocolParams
from repro.crypto.merkle import MerkleTree
from repro.vid.codec import (
    BAD_UPLOADER,
    Chunk,
    RealCodec,
    VirtualCodec,
    VirtualPayload,
)


@pytest.fixture
def codec():
    return RealCodec(ProtocolParams.for_n(4))


class TestRealCodec:
    def test_encode_many_matches_individual_encodes(self, codec):
        payloads = [b"", b"first", b"second payload" * 5, bytes(range(200))]
        bundles = codec.encode_many(payloads)
        for payload, bundle in zip(payloads, bundles):
            single = codec.encode(payload)
            assert bundle.root == single.root
            assert bundle.payload_size == single.payload_size
            assert bundle.chunks == single.chunks

    def test_encode_many_empty(self, codec):
        assert codec.encode_many([]) == []

    def test_encode_produces_n_chunks_with_valid_proofs(self, codec):
        bundle = codec.encode(b"payload bytes")
        assert len(bundle.chunks) == 4
        for chunk in bundle.chunks:
            assert codec.verify_chunk(bundle.root, chunk)

    def test_verify_rejects_wrong_root(self, codec):
        bundle_a = codec.encode(b"payload a")
        bundle_b = codec.encode(b"payload b")
        assert not codec.verify_chunk(bundle_b.root, bundle_a.chunks[0])

    def test_verify_rejects_index_mismatch(self, codec):
        bundle = codec.encode(b"payload")
        chunk = bundle.chunks[1]
        forged = Chunk(index=2, size=chunk.size, data=chunk.data, proof=chunk.proof)
        assert not codec.verify_chunk(bundle.root, forged)

    def test_verify_rejects_understated_size(self, codec):
        """``size`` is what the wire bills: a full chunk declared as one byte is refused."""
        bundle = codec.encode(b"x" * 1000)
        chunk = bundle.chunks[0]
        forged = Chunk(index=0, size=1, data=chunk.data, proof=chunk.proof)
        assert forged.wire_size < chunk.wire_size
        assert not codec.verify_chunk(bundle.root, forged)
        overstated = Chunk(index=0, size=chunk.size + 1, data=chunk.data, proof=chunk.proof)
        assert not codec.verify_chunk(bundle.root, overstated)
        assert all(codec.verify_chunk(bundle.root, c) for c in bundle.chunks)

    def test_verify_rejects_padding_leaf_as_chunk(self):
        """Positions N..width-1 of the padded Merkle tree are not chunks."""
        codec = RealCodec(ProtocolParams.for_n(5))
        bundle = codec.encode(b"five servers, eight leaves")
        padding = b"\x00merkle-padding"
        padded = MerkleTree([c.data for c in bundle.chunks] + [padding] * 3)
        assert padded.root == bundle.root
        forged = Chunk(index=5, size=len(padding), data=padding, proof=padded.proof(5))
        assert not codec.verify_chunk(bundle.root, forged)

    def test_decode_roundtrip_from_any_quorum(self, codec):
        payload = b"dispersed ledger codec roundtrip" * 3
        bundle = codec.encode(payload)
        chunks = {c.index: c for c in bundle.chunks[:2]}
        assert codec.decode(bundle.root, chunks) == payload
        chunks = {c.index: c for c in bundle.chunks[2:]}
        assert codec.decode(bundle.root, chunks) == payload

    def test_decode_detects_inconsistent_encoding(self, codec):
        # Mix chunks from two different payloads under a fresh Merkle root:
        # the re-encode check must flag the dispersal as inconsistent.
        bundle_a = codec.encode(b"a" * 50)
        bundle_b = codec.encode(b"b" * 50)
        mixed = [
            bundle_a.chunks[0].data,
            bundle_a.chunks[1].data,
            bundle_b.chunks[2].data,
            bundle_b.chunks[3].data,
        ]
        tree = MerkleTree(mixed)
        chunks = {
            i: Chunk(index=i, size=len(mixed[i]), data=mixed[i], proof=tree.proof(i))
            for i in (1, 2)
        }
        assert codec.decode(tree.root, chunks) == BAD_UPLOADER

    def test_chunk_sizes_match_declared(self, codec):
        payload = b"x" * 1000
        bundle = codec.encode(payload)
        expected = codec.chunk_payload_size(len(payload))
        for chunk in bundle.chunks:
            assert chunk.size == expected
            assert len(chunk.data) == expected

    def test_chunk_wire_size_includes_proof(self, codec):
        assert codec.chunk_wire_size(1000) > codec.chunk_payload_size(1000)

    @given(payload=st.binary(min_size=0, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, payload):
        codec = RealCodec(ProtocolParams.for_n(7))
        bundle = codec.encode(payload)
        chunks = {c.index: c for c in bundle.chunks if c.index % 2 == 0}
        assert len(chunks) >= codec.params.data_shards
        assert codec.decode(bundle.root, chunks) == payload


class TestVirtualCodec:
    def test_payload_roundtrip(self):
        codec = VirtualCodec(ProtocolParams.for_n(4))
        payload = VirtualPayload.create(size=10_000, label="block")
        bundle = codec.encode(payload)
        assert bundle.payload_size == 10_000
        decoded = codec.decode(bundle.root, {c.index: c for c in bundle.chunks[:2]})
        assert decoded is payload

    def test_chunk_sizes_match_real_codec(self):
        params = ProtocolParams.for_n(16)
        real, virtual = RealCodec(params), VirtualCodec(params)
        for size in (1, 100, 150_000, 1_000_000):
            assert virtual.chunk_payload_size(size) == real.chunk_payload_size(size)
            assert virtual.chunk_wire_size(size) == real.chunk_wire_size(size)

    def test_distinct_payloads_distinct_roots(self):
        codec = VirtualCodec(ProtocolParams.for_n(4))
        a = codec.encode(VirtualPayload.create(size=100))
        b = codec.encode(VirtualPayload.create(size=100))
        assert a.root != b.root

    def test_payload_size_helper(self):
        codec = VirtualCodec(ProtocolParams.for_n(4))
        assert codec.payload_size(VirtualPayload.create(size=42)) == 42
        assert codec.payload_size(b"abc") == 3
