"""The shared retrieval record must be invisible except in host time.

Every retriever checks its own proofs and decodes its own chunks; what
``RealCodec`` shares per Merkle root is the re-encode verdict for a decoded
payload, the payload object itself, and the fact that a given chunk object
already passed its proof (``vid/codec.py``).  Two layers of evidence that this
changes nothing simulated:

* codec-level properties — every ``k``-subset of proof-valid chunks under one
  root gives the same outcome, warm == cold, the verdict is shared by payload
  *content* and can be neither read wrongly nor poisoned, the proof shortcut is
  gated by chunk *identity*, eviction only loses sharing;
* end-to-end neutrality — real-plane scenarios give byte-identical summaries
  with a cold record, a warm one, windowed, and across checkpoint →
  fresh-process resume; the record never reaches a checkpoint.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_cluster, build_scenario_state, submit_texts
from test_snapshot_properties import _resume_in_fresh_process
from repro.common.params import ProtocolParams
from repro.core.node import DispersedLedgerNode
from repro.crypto.merkle import MerkleTree
from repro.erasure.rs_code import ReedSolomonCode
from repro.experiments import apply_overrides, get_scenario
from repro.experiments.engine import run_scenario, sweep
from repro.experiments.options import ExecutionOptions
from repro.experiments.scenario import ScenarioSpec
from repro.sim.snapshot import load_checkpoint, read_snapshot_header, save_checkpoint
from repro.vid import codec as codec_module
from repro.vid.codec import (
    BAD_UPLOADER,
    Chunk,
    RealCodec,
    clear_retrieval_record,
    retrieval_record_info,
)


@pytest.fixture(autouse=True)
def _cold_record():
    clear_retrieval_record()
    yield
    clear_retrieval_record()


def _mixed_bundle(params: ProtocolParams, payload_a: bytes, payload_b: bytes, split: int):
    """``send_inconsistent_dispersal``'s chunks: two encodings under one tree."""
    rs = ReedSolomonCode(params.data_shards, params.total_shards)
    shards_a, shards_b = rs.encode(payload_a), rs.encode(payload_b)
    mixed = [shards_a[i] if i < split else shards_b[i] for i in range(params.n)]
    tree = MerkleTree(mixed)
    chunks = tuple(
        Chunk(index=i, size=len(mixed[i]), data=mixed[i], proof=tree.proof(i))
        for i in range(params.n)
    )
    if mixed == shards_a:
        expected = payload_a
    elif mixed == shards_b:
        expected = payload_b
    else:
        expected = BAD_UPLOADER
    return tree.root, chunks, expected


@st.composite
def _bundles(draw):
    """(codec, root, chunks, expected outcome) for an honest or a mixed dispersal."""
    n = draw(st.sampled_from((4, 5, 7, 10, 16)))
    params = ProtocolParams.for_n(n)
    codec = RealCodec(params)
    payload = draw(st.binary(min_size=0, max_size=400))
    if draw(st.booleans()):
        bundle = codec.encode(payload)
        return codec, bundle.root, bundle.chunks, payload
    decoy = draw(st.binary(min_size=len(payload), max_size=len(payload)))
    split = draw(st.integers(min_value=1, max_value=n - 1))
    root, chunks, expected = _mixed_bundle(params, payload, decoy, split)
    return codec, root, chunks, expected


def _k_subsets(draw, n: int, k: int, count: int) -> list[tuple[int, ...]]:
    subset = st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=k, max_size=k, unique=True
    )
    return [tuple(sorted(draw(subset))) for _ in range(count)]


def _verified(codec: RealCodec, root: bytes, chunks, indices) -> dict[int, Chunk]:
    for index in indices:
        assert codec.verify_chunk(root, chunks[index])
    return {index: chunks[index] for index in indices}


class TestOutcomeIsAFunctionOfTheRoot:
    @given(bundle=_bundles(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_k_subset_gives_the_same_outcome_cold(self, bundle, data):
        """What lets retrievers share a payload, checked with the record out of play."""
        codec, root, chunks, expected = bundle
        n, k = codec.params.n, codec.params.data_shards
        for indices in _k_subsets(data.draw, n, k, count=5):
            clear_retrieval_record()
            outcome = codec.decode(root, _verified(codec, root, chunks, indices))
            assert outcome == expected
            assert retrieval_record_info()["served"] == 0

    @given(bundle=_bundles(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_warm_equals_cold_and_payloads_are_one_object(self, bundle, data):
        codec, root, chunks, expected = bundle
        n, k = codec.params.n, codec.params.data_shards
        clear_retrieval_record()
        first, *rest = _k_subsets(data.draw, n, k, count=4)
        cold = codec.decode(root, _verified(codec, root, chunks, first))
        assert cold == expected
        for indices in rest:
            warm = codec.decode(root, _verified(codec, root, chunks, indices))
            assert warm == cold
            if isinstance(cold, bytes):
                assert warm is cold
        info = retrieval_record_info()
        if isinstance(cold, bytes):
            assert info == {"roots": 1, "served": 3, "computed": 1}
        else:
            # A failed check is never recorded, so nothing is ever served.
            assert info["served"] == 0


class TestVerdictIsSharedByPayloadContent:
    def _recorded(self, n: int = 7):
        codec = RealCodec(ProtocolParams.for_n(n))
        payload = bytes(range(200))
        bundle = codec.encode(payload)
        k = codec.params.data_shards
        chunks = _verified(codec, bundle.root, bundle.chunks, range(k))
        recorded = codec.decode(bundle.root, chunks)
        assert recorded == payload
        return codec, bundle, chunks, recorded

    def test_every_retriever_still_decodes_its_own_chunks(self, monkeypatch):
        codec, bundle, chunks, recorded = self._recorded()
        decodes, encodes = [], []
        rs_decode, rs_encode = codec._rs.decode, codec._rs.encode
        monkeypatch.setattr(codec._rs, "decode", lambda s: decodes.append(1) or rs_decode(s))
        monkeypatch.setattr(codec._rs, "encode", lambda b: encodes.append(1) or rs_encode(b))
        others = _verified(codec, bundle.root, bundle.chunks, range(1, len(chunks) + 1))
        assert codec.decode(bundle.root, others) is recorded
        assert (len(decodes), len(encodes)) == (1, 0)

    def test_equal_but_distinct_chunks_decode_to_the_recorded_payload(self):
        """The verdict belongs to the payload bytes, whoever produced them."""
        codec, bundle, chunks, recorded = self._recorded()
        copies = {i: dataclasses.replace(chunk) for i, chunk in chunks.items()}
        assert all(copies[i] == chunks[i] and copies[i] is not chunks[i] for i in chunks)
        assert codec.decode(bundle.root, copies) is recorded
        assert retrieval_record_info()["served"] == 1

    def test_unverified_chunks_record_a_true_verdict_too(self):
        """Writing needs the full check, not verified inputs, so anyone may write."""
        codec = RealCodec(ProtocolParams.for_n(7))
        bundle = codec.encode(b"never proof-checked" * 9)
        k = codec.params.data_shards
        first = codec.decode(bundle.root, {i: bundle.chunks[i] for i in range(k)})
        assert first == b"never proof-checked" * 9
        assert codec.decode(bundle.root, {i: bundle.chunks[i] for i in range(1, k + 1)}) is first
        assert retrieval_record_info() == {"roots": 1, "served": 1, "computed": 1}

    def test_tampered_chunks_neither_read_nor_poison_the_record(self):
        codec, bundle, chunks, recorded = self._recorded()
        tampered = dict(chunks)
        victim = chunks[1]
        flipped = bytes([victim.data[0] ^ 0xFF]) + victim.data[1:]
        tampered[1] = dataclasses.replace(victim, data=flipped)
        assert not codec.verify_chunk(bundle.root, tampered[1])
        assert codec.decode(bundle.root, tampered) == BAD_UPLOADER
        assert retrieval_record_info()["served"] == 0
        # The honest retrievers that follow still get the recorded payload.
        assert codec.decode(bundle.root, chunks) is recorded

    def test_a_valid_payload_under_the_wrong_root_is_refused_and_not_recorded(self):
        codec, bundle, chunks, recorded = self._recorded()
        other = codec.encode(b"another block entirely")
        assert codec.decode(other.root, chunks) == BAD_UPLOADER
        assert retrieval_record_info()["roots"] == 1
        k = codec.params.data_shards
        own = codec.decode(other.root, {i: other.chunks[i] for i in range(k)})
        assert own == b"another block entirely"
        assert codec.decode(bundle.root, chunks) is recorded

    def test_misfiled_chunks_compute_as_before(self):
        """``decode`` trusts the dict key as the shard position; the result is garbage."""
        codec, bundle, chunks, recorded = self._recorded()
        k = codec.params.data_shards
        shifted = {index + 1: chunk for index, chunk in chunks.items()}
        assert len(shifted) == k
        assert codec.decode(bundle.root, shifted) == BAD_UPLOADER
        assert codec.decode(bundle.root, chunks) is recorded

    def test_too_few_chunks_stay_bad_uploader(self):
        codec, bundle, chunks, recorded = self._recorded()
        few = dict(itertools.islice(chunks.items(), len(chunks) - 1))
        assert codec.decode(bundle.root, few) == BAD_UPLOADER
        assert codec.decode(bundle.root, chunks) is recorded


class TestIdentityGatesTheProofShortcut:
    def _verified_bundle(self, n: int = 7):
        codec = RealCodec(ProtocolParams.for_n(n))
        bundle = codec.encode(bytes(range(200)))
        assert all(codec.verify_chunk(bundle.root, chunk) for chunk in bundle.chunks)
        return codec, bundle

    def test_verified_chunk_is_not_hashed_again(self, monkeypatch):
        codec, bundle = self._verified_bundle()

        def no_hashing(*_args):
            raise AssertionError("a verified chunk object was hashed again")

        monkeypatch.setattr(codec_module, "verify_proof", no_hashing)
        assert all(codec.verify_chunk(bundle.root, chunk) for chunk in bundle.chunks)
        with pytest.raises(AssertionError):
            codec.verify_chunk(bundle.root, dataclasses.replace(bundle.chunks[0]))

    def test_a_chunk_verified_under_one_root_is_checked_under_another(self):
        codec, bundle = self._verified_bundle()
        other = codec.encode(b"another block entirely")
        assert not codec.verify_chunk(other.root, bundle.chunks[0])

    def test_notes_do_not_keep_chunks_alive(self):
        codec = RealCodec(ProtocolParams.for_n(4))
        bundle = codec.encode(b"short-lived")
        assert codec.verify_chunk(bundle.root, bundle.chunks[0])
        record = codec_module._RECORD.roots.get(codec._record_key(bundle.root))
        assert len(record.verified) == 1
        del bundle
        assert len(record.verified) == 0


class TestEviction:
    def test_recomputed_answer_is_unchanged_after_eviction(self, monkeypatch):
        monkeypatch.setattr(codec_module, "RETRIEVAL_RECORD_ROOTS", 2)
        codec = RealCodec(ProtocolParams.for_n(4))
        k = codec.params.data_shards
        payloads = [bytes([i]) * (50 + i) for i in range(3)]
        bundles = [codec.encode(payload) for payload in payloads]
        held = []
        for bundle, payload in zip(bundles, payloads):
            chunks = _verified(codec, bundle.root, bundle.chunks, range(k))
            assert codec.decode(bundle.root, chunks) == payload
            held.append(chunks)
        assert retrieval_record_info()["roots"] == 2
        # The first root is gone: its next retriever runs the check itself...
        before = retrieval_record_info()
        first = codec.decode(bundles[0].root, held[0])
        assert first == payloads[0]
        after = retrieval_record_info()
        assert (after["served"], after["computed"]) == (before["served"], before["computed"] + 1)
        # ...which files the root again (evicting the next oldest), and sharing resumes.
        assert codec.decode(bundles[0].root, held[0]) is first
        assert retrieval_record_info()["served"] == after["served"] + 1
        assert retrieval_record_info()["roots"] == 2


class TestSharedBlock:
    def test_nodes_share_one_frozen_block_per_root(self, params4):
        network, nodes = build_cluster(DispersedLedgerNode, params4, seed=3, max_epochs=2)
        for node in nodes:
            submit_texts(node, [f"tx-{node.node_id}-{i}" for i in range(3)])
            node.start()
        network.run()
        assert all(node.delivered_epoch == 2 for node in nodes)
        carried = retrieved = 0
        for epoch in (1, 2):
            for slot, block in nodes[0].epoch_state(epoch).retrieved.items():
                assert block is not None and block.proposer == slot
                retrieved += 1
                for other in nodes[1:]:
                    assert other.epoch_state(epoch).retrieved[slot] is block
                # Sharing is safe because nothing of the block can be written:
                # the dataclass is frozen, its columns are read-only, and
                # ``transactions`` builds fresh records on every read.
                with pytest.raises(dataclasses.FrozenInstanceError):
                    block.epoch = 99
                if not block.is_empty:
                    with pytest.raises(ValueError, match="read-only"):
                        block.tx_batch.sizes[0] = 0
                for tx in block.transactions:
                    carried += 1
                    tx.size = 0
                assert all(tx.size > 0 for tx in block.transactions)
        assert carried == 12
        assert [n.ledger.sequence() for n in nodes] == [nodes[0].ledger.sequence()] * 4
        # One re-encode check per committed root; the other three nodes are served.
        info = retrieval_record_info()
        assert retrieved >= 6
        assert (info["computed"], info["served"]) == (retrieved, 3 * retrieved)


# ----------------------------------------------------------------------
# End-to-end neutrality on the real data plane
# ----------------------------------------------------------------------


def _real_plane_specs() -> list[ScenarioSpec]:
    base = get_scenario("equivocate-split").base
    specs = [
        apply_overrides(base, {"adversary.split": split, "duration": 6.0})
        for split in (1, 2, 3)
    ]
    specs.append(
        apply_overrides(
            base,
            {
                "adversary.kind": "none",
                "adversary.count": 0,
                "topology.num_nodes": 7,
                "duration": 5.0,
            },
        )
    )
    return specs


def _canon(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True)


@pytest.mark.parametrize(
    "spec", _real_plane_specs(), ids=("split1", "split2", "split3", "honest-n7")
)
def test_summaries_identical_cold_warm_windowed_and_resumed(spec: ScenarioSpec, tmp_path):
    clear_retrieval_record()
    cold = _canon(run_scenario(spec).summary())
    assert retrieval_record_info()["served"] > 0
    warm = _canon(run_scenario(spec).summary())
    assert warm == cold

    windowed = sweep(spec, None, options=ExecutionOptions(parallel=False, windows=3))
    assert _canon(windowed.points[0].summary()) == cold

    clear_retrieval_record()
    state = build_scenario_state(spec)
    state.sim.run(until=spec.duration * 0.45)
    checkpoint = tmp_path / "mid.ckpt"
    save_checkpoint(checkpoint, state)
    assert _canon(_resume_in_fresh_process(checkpoint)) == cold


def test_record_never_reaches_a_checkpoint(tmp_path):
    spec = _real_plane_specs()[-1]
    sizes = []
    for attempt in ("cold", "warm"):
        state = build_scenario_state(spec)
        state.sim.run(until=spec.duration * 0.6)
        path = tmp_path / f"{attempt}.ckpt"
        save_checkpoint(path, state)
        sizes.append(read_snapshot_header(path)["payload_bytes"])
    assert retrieval_record_info()["roots"] > 0
    # A warm record serves verdicts and payloads of an earlier run; the
    # checkpoint holds byte for byte what a cold run's does.
    assert sizes[0] == sizes[1]
    clear_retrieval_record()
    load_checkpoint(tmp_path / "warm.ckpt")
    assert retrieval_record_info() == {"roots": 0, "served": 0, "computed": 0}
