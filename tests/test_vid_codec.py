"""Tests for the AVID-M codecs (real erasure-coded bytes and virtual sizes)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.equivocator import send_virtual_inconsistent_dispersal
from repro.common.ids import VIDInstanceId
from repro.common.params import ProtocolParams
from repro.crypto.merkle import MerkleTree
from repro.erasure.rs_code import shard_size
from repro.vid.messages import ChunkMsg, ReturnChunkMsg
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
        expected = shard_size(len(payload), codec.params.data_shards)
        for chunk in bundle.chunks:
            assert chunk.size == expected
            assert len(chunk.data) == expected

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
        payload = VirtualPayload(payload_id=0, size=10_000, label="block")
        bundle = codec.encode(payload)
        assert bundle.payload_size == 10_000
        decoded = codec.decode(bundle.root, {c.index: c for c in bundle.chunks[:2]})
        assert decoded is payload

    @pytest.mark.parametrize("n", (4, 7, 10, 16, 64))
    @pytest.mark.parametrize("size", (0, 1, 100, 150_000, 1_000_000))
    def test_chunk_sizes_match_real_codec(self, n, size):
        """A virtual chunk, and each message that carries it, is billed
        exactly what the real one is: shard bytes plus a proof of
        ``ceil(log2 N)`` siblings."""
        params = ProtocolParams.for_n(n)
        instance = VIDInstanceId(epoch=1, proposer=0)
        real = RealCodec(params).encode(bytes(size))
        virtual = VirtualCodec(params).encode(VirtualPayload(payload_id=size, size=size))
        for real_chunk, virtual_chunk in zip(real.chunks, virtual.chunks, strict=True):
            assert virtual_chunk.size == len(real_chunk.data)
            assert virtual_chunk.proof.index == real_chunk.proof.index
            assert virtual_chunk.wire_size == real_chunk.wire_size
            for cls in (ChunkMsg, ReturnChunkMsg):
                assert (
                    cls(instance=instance, root=virtual.root, chunk=virtual_chunk).wire_size
                    == cls(instance=instance, root=real.root, chunk=real_chunk).wire_size
                )

    def test_a_virtual_chunk_is_refused_by_the_real_codec(self):
        params = ProtocolParams.for_n(4)
        bundle = VirtualCodec(params).encode(VirtualPayload(payload_id=0, size=100))
        assert not RealCodec(params).verify_chunk(bundle.root, bundle.chunks[0])

    def test_distinct_payloads_distinct_roots(self):
        codec = VirtualCodec(ProtocolParams.for_n(4))
        a = codec.encode(VirtualPayload(payload_id=0, size=100))
        b = codec.encode(VirtualPayload(payload_id=1, size=100))
        assert a.root != b.root

    def test_an_equivocation_is_named_after_its_instance(self):
        """The same root in any process, run or resumed run; no id counter."""
        codec = VirtualCodec(ProtocolParams.for_n(4))
        sent = []

        class Ctx:
            def send(self, _dst, msg):
                sent.append(msg)

        first, again, other = (
            send_virtual_inconsistent_dispersal(codec, Ctx(), VIDInstanceId(epoch, 1), 1_000)
            for epoch in (3, 3, 4)
        )
        assert first == again != other
        assert all(msg.chunk.payload_ref.payload_id == VIDInstanceId(3, 1) for msg in sent[:4])
        assert codec.decode(first, {m.chunk.index: m.chunk for m in sent[:2]}) == BAD_UPLOADER
