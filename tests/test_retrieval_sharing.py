"""The retrieval record must be invisible except in host time, and belong to the run.

Every retriever checks its own proofs; what a run's one ``RealCodec`` shares
per Merkle root is the re-encode verdict for a payload, the payload object
itself, the fact that a given chunk object already passed its proof, and the
fact that it is the encoder's own chunk of the filed payload — which lets a
retriever holding only such objects skip its decode (``vid/codec.py``).  The
encoder is the one writer of that mark, so an honest retrieval decodes
nothing; the full check runs for unfiled roots (a restore, an adversary's
hand-built tree).  A fresh codec is a cold record.  Three layers of evidence:

* codec-level properties — every ``k``-subset of proof-valid chunks under one
  root gives the same outcome, warm == cold, the verdict is shared by payload
  *content* and can be neither read wrongly nor poisoned, the proof shortcut
  and the decode shortcut are gated by chunk *identity*, the check marks
  nothing;
* end-to-end neutrality — real-plane scenarios give byte-identical summaries
  run twice in one process and across checkpoint → fresh-process resume;
  every honest retriever of a slot ends with one payload object or one ⊥;
  an honest run makes no Reed-Solomon decode, and an unfiled root is checked
  once;
* hermeticity — a run's codec counters do not depend on what ran before it
  in the process, and a checkpoint holds no record.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import build_cluster, build_scenario_state, submit_texts
from test_snapshot_properties import _resume_in_fresh_process
from repro.adversary.equivocator import send_inconsistent_dispersal
from repro.common.ids import VIDInstanceId
from repro.common.params import ProtocolParams
from repro.core.node import DispersedLedgerNode
from repro.crypto.merkle import MerkleTree
from repro.erasure.rs_code import ReedSolomonCode
from repro.experiments import apply_overrides, get_scenario
from repro.experiments.runner import Stop, execute
from repro.experiments.engine import run_scenario
from repro.experiments.scenario import ScenarioSpec
from repro.sim.snapshot import load_checkpoint, save_checkpoint
from repro.vid import codec as codec_module
from repro.vid.avid_m import AvidMInstance
from repro.vid.codec import BAD_UPLOADER, Chunk, RealCodec


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


def _count_decodes(monkeypatch, codec: RealCodec) -> list[int]:
    """Patch ``codec``'s Reed-Solomon decode to append to the returned list."""
    decodes: list[int] = []
    rs_decode = codec._rs.decode
    monkeypatch.setattr(codec._rs, "decode", lambda s: decodes.append(1) or rs_decode(s))
    return decodes


def _consistent(codec: RealCodec, root: bytes) -> list[Chunk]:
    return list(codec._roots[root].consistent.values())


class TestOutcomeIsAFunctionOfTheRoot:
    @given(bundle=_bundles(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_k_subset_gives_the_same_outcome_cold(self, bundle, data):
        """What lets retrievers share a payload, checked with fresh codecs and
        with the encoder's."""
        codec, root, chunks, expected = bundle
        n, k = codec.params.n, codec.params.data_shards
        for indices in _k_subsets(data.draw, n, k, count=5):
            cold = RealCodec(codec.params)
            assert cold.decode(root, _verified(cold, root, chunks, indices)) == expected
            assert cold.counters()["served"] == 0
            assert codec.decode(root, {i: chunks[i] for i in indices}) == expected

    @given(bundle=_bundles(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_warm_equals_cold_and_payloads_are_one_object(self, bundle, data):
        codec, root, chunks, expected = bundle
        params = codec.params
        n, k = params.n, params.data_shards
        codec = RealCodec(params)
        first, *rest = _k_subsets(data.draw, n, k, count=4)
        cold = codec.decode(root, _verified(codec, root, chunks, first))
        assert cold == expected
        for indices in rest:
            warm = codec.decode(root, _verified(codec, root, chunks, indices))
            assert warm == cold
            if cold != BAD_UPLOADER:
                assert warm is cold
        counters = codec.counters()
        if cold != BAD_UPLOADER:
            assert counters == {"roots": 1, "served": 3, "computed": 1}
        else:
            # A failed check is never recorded, so nothing is ever served.
            assert counters["served"] == 0

        # Every chunk verified before the check: each subset decoded warm
        # gives what it gives cold.
        subsets = list(itertools.combinations(range(n), k))
        if len(subsets) > 35:
            subsets = _k_subsets(data.draw, n, k, count=8)
        cold_outcomes = [
            RealCodec(params).decode(root, {i: chunks[i] for i in indices}) for indices in subsets
        ]
        codec = RealCodec(params)
        everything = _verified(codec, root, chunks, range(n))
        recorded = codec.decode(root, everything)
        for indices, cold_outcome in zip(subsets, cold_outcomes):
            warm = codec.decode(root, {i: everything[i] for i in indices})
            assert warm == cold_outcome
            if warm != BAD_UPLOADER:
                assert warm is recorded


class TestVerdictIsSharedByPayloadContent:
    def _recorded(self, n: int = 7):
        params = ProtocolParams.for_n(n)
        payload = bytes(range(200))
        bundle = RealCodec(params).encode(payload)
        codec = RealCodec(params)  # unfiled, as after a restore: the cold check runs
        k = codec.params.data_shards
        chunks = _verified(codec, bundle.root, bundle.chunks, range(k))
        recorded = codec.decode(bundle.root, chunks)
        assert recorded == payload
        return codec, bundle, chunks, recorded

    def test_the_check_marks_nothing(self, monkeypatch):
        """Only the encoder marks chunks consistent: after a cold check, a
        retriever holding chunks verified before it still decodes, and is
        served the filed payload without re-encoding."""
        params = ProtocolParams.for_n(7)
        bundle = RealCodec(params).encode(bytes(range(200)))
        codec = RealCodec(params)
        k = params.data_shards
        verified = _verified(codec, bundle.root, bundle.chunks, range(params.n))
        recorded = codec.decode(bundle.root, {i: verified[i] for i in range(k)})
        assert not _consistent(codec, bundle.root)
        decodes, encodes = _count_decodes(monkeypatch, codec), []
        rs_encode = codec._rs.encode
        monkeypatch.setattr(codec._rs, "encode", lambda b: encodes.append(1) or rs_encode(b))
        assert codec.decode(bundle.root, {i: verified[i] for i in range(1, k + 1)}) is recorded
        assert (len(decodes), len(encodes)) == (1, 0)
        assert codec.counters() == {"roots": 1, "served": 1, "computed": 1}

    def test_equal_but_distinct_chunks_decode_to_the_recorded_payload(self, monkeypatch):
        """The verdict belongs to the payload bytes, whoever produced them."""
        codec, bundle, chunks, recorded = self._recorded()
        decodes = _count_decodes(monkeypatch, codec)
        copies = {i: dataclasses.replace(chunk) for i, chunk in chunks.items()}
        assert all(copies[i] == chunks[i] and copies[i] is not chunks[i] for i in chunks)
        assert codec.decode(bundle.root, copies) is recorded
        assert len(decodes) == 1
        assert codec.counters()["served"] == 1

    def test_unverified_chunks_record_a_true_verdict_too(self):
        """Writing needs the full check, not verified inputs, so anyone may write."""
        params = ProtocolParams.for_n(7)
        bundle = RealCodec(params).encode(b"never proof-checked" * 9)
        codec = RealCodec(params)
        k = codec.params.data_shards
        first = codec.decode(bundle.root, {i: bundle.chunks[i] for i in range(k)})
        assert first == b"never proof-checked" * 9
        assert codec.decode(bundle.root, {i: bundle.chunks[i] for i in range(1, k + 1)}) is first
        assert codec.counters() == {"roots": 1, "served": 1, "computed": 1}

    def test_tampered_chunks_neither_read_nor_poison_the_record(self):
        codec, bundle, chunks, recorded = self._recorded()
        tampered = dict(chunks)
        victim = chunks[1]
        flipped = bytes([victim.data[0] ^ 0xFF]) + victim.data[1:]
        tampered[1] = dataclasses.replace(victim, data=flipped)
        assert not codec.verify_chunk(bundle.root, tampered[1])
        assert codec.decode(bundle.root, tampered) == BAD_UPLOADER
        assert codec.counters()["served"] == 0
        # The honest retrievers that follow still get the recorded payload.
        assert codec.decode(bundle.root, chunks) is recorded

    def test_a_valid_payload_under_the_wrong_root_is_refused_and_not_recorded(self):
        other = RealCodec(ProtocolParams.for_n(7)).encode(b"another block entirely")
        codec, bundle, chunks, recorded = self._recorded()
        assert codec.decode(other.root, chunks) == BAD_UPLOADER
        assert codec.counters()["roots"] == 1
        k = codec.params.data_shards
        own = codec.decode(other.root, {i: other.chunks[i] for i in range(k)})
        assert own == b"another block entirely"
        assert codec.decode(bundle.root, chunks) is recorded

    def test_a_verified_chunk_unlike_the_reencoding_is_never_marked(self, monkeypatch):
        """A proof-accepted chunk whose bytes are not the encoding keeps every
        subset holding it on the full path (such a chunk needs a hash
        collision, so it is filed as verified by hand)."""
        codec = RealCodec(ProtocolParams.for_n(7))
        n, k = codec.params.n, codec.params.data_shards
        bundle = codec.encode(bytes(range(200)))
        verified = _verified(codec, bundle.root, bundle.chunks, range(n))
        honest = verified[2]
        forged = dataclasses.replace(honest, data=bytes([honest.data[0] ^ 0xFF]) + honest.data[1:])
        codec._roots[bundle.root].verified[id(forged)] = forged
        assert codec.decode(bundle.root, {i: verified[i] for i in range(k)}) == bytes(range(200))
        marked = _consistent(codec, bundle.root)
        assert all(chunk is not forged for chunk in marked)
        assert len(marked) == n
        decodes = _count_decodes(monkeypatch, codec)
        holding = [s for s in itertools.combinations(range(n), k) if 2 in s]
        for indices in holding:
            chunks = {i: verified[i] for i in indices} | {2: forged}
            assert codec.decode(bundle.root, chunks) == BAD_UPLOADER
        assert len(decodes) == len(holding)

    def test_marked_chunks_under_the_wrong_key_take_the_full_path(self, monkeypatch):
        codec = RealCodec(ProtocolParams.for_n(7))
        n, k = codec.params.n, codec.params.data_shards
        bundle = codec.encode(bytes(range(200)))
        verified = _verified(codec, bundle.root, bundle.chunks, range(n))
        recorded = codec.decode(bundle.root, verified)
        assert len(_consistent(codec, bundle.root)) == n
        decodes = _count_decodes(monkeypatch, codec)
        swapped = {i: verified[i] for i in range(k)} | {0: verified[1], 1: verified[0]}
        assert codec.decode(bundle.root, swapped) == BAD_UPLOADER
        assert len(decodes) == 1
        assert codec.decode(bundle.root, verified) is recorded
        assert len(decodes) == 1

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


def _equal_length_pair():
    return st.binary(min_size=1, max_size=300).flatmap(
        lambda a: st.tuples(st.just(a), st.binary(min_size=len(a), max_size=len(a)))
    )


class TestTheEncoderFilesItsEncoding:
    """``RealCodec.encode`` files the payload and marks its own chunks; these
    hold with the record warm from honest ``encode`` calls."""

    @given(
        n=st.sampled_from((4, 5, 7, 10)),
        pair=_equal_length_pair(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_an_inconsistent_dispersal_of_filed_payloads_is_never_served(self, n, pair, data):
        payload_a, payload_b = pair
        params = ProtocolParams.for_n(n)
        codec = RealCodec(params)
        k = params.data_shards
        codec.encode(payload_a)
        codec.encode(payload_b)
        split = data.draw(st.integers(min_value=1, max_value=n - 1))
        mixed_root, _chunks, expected = _mixed_bundle(params, payload_a, payload_b, split)
        assume(expected == BAD_UPLOADER)
        sent = []
        ctx = SimpleNamespace(send=lambda _dst, msg: sent.append(msg))
        root = send_inconsistent_dispersal(
            params, ctx, VIDInstanceId(epoch=1, proposer=0), payload_a, payload_b, split
        )
        assert root == mixed_root
        chunks = [msg.chunk for msg in sent]
        _verified(codec, root, chunks, range(n))
        subsets = list(itertools.combinations(range(n), k))
        if len(subsets) > 35:
            subsets = _k_subsets(data.draw, n, k, count=8)
        for indices in subsets:
            assert codec.decode(root, {i: chunks[i] for i in indices}) == BAD_UPLOADER
        assert codec.counters()["served"] == 0
        assert codec._roots[root].payload is None

    def test_chunks_of_two_filed_encodes_mixed_under_one_root_take_the_full_path(
        self, monkeypatch
    ):
        codec = RealCodec(ProtocolParams.for_n(7))
        k = codec.params.data_shards
        first, second = codec.encode(bytes(range(200))), codec.encode(bytes(range(1, 201)))
        decodes = _count_decodes(monkeypatch, codec)
        mixed = {i: (first if i % 2 else second).chunks[i] for i in range(k)}
        outcome = codec.decode(first.root, mixed)
        assert len(decodes) == 1
        assert codec.counters()["served"] == 0
        assert outcome == RealCodec(codec.params).decode(first.root, mixed) == BAD_UPLOADER

    def test_a_copy_of_a_filed_chunk_costs_one_decode(self, monkeypatch):
        codec = RealCodec(ProtocolParams.for_n(7))
        k = codec.params.data_shards
        bundle = codec.encode(bytes(range(200)))
        payload = codec._roots[bundle.root].payload
        decodes = _count_decodes(monkeypatch, codec)
        chunks = dict(enumerate(bundle.chunks[:k]))
        assert codec.decode(bundle.root, chunks) is payload
        assert len(decodes) == 0
        chunks[0] = dataclasses.replace(chunks[0])
        assert codec.decode(bundle.root, chunks) is payload
        assert len(decodes) == 1
        assert codec.counters() == {"roots": 1, "served": 2, "computed": 0}

    @given(payload=st.binary(min_size=1, max_size=300), n=st.sampled_from((4, 7, 10)))
    @settings(max_examples=30, deadline=None)
    def test_reencoding_an_equal_payload_keeps_the_first_object(self, payload, n):
        codec = RealCodec(ProtocolParams.for_n(n))
        k = codec.params.data_shards
        first = codec.encode(payload)
        filed = codec._roots[first.root].payload
        second = codec.encode(payload)
        assert second.root == first.root
        assert codec._roots[first.root].payload is filed
        marked = {id(chunk) for chunk in _consistent(codec, first.root)}
        assert marked == {id(c) for c in first.chunks} | {id(c) for c in second.chunks}
        chunks = dict(enumerate(second.chunks[n - k :], start=n - k))
        assert codec.decode(first.root, chunks) is filed
        assert codec.counters() == {"roots": 1, "served": 1, "computed": 0}

    def test_an_unequal_payload_under_a_filed_root_is_left_alone(self):
        """Only a hash collision gets here, so it is filed by hand."""
        codec = RealCodec(ProtocolParams.for_n(4))
        bundle = codec.encode(bytes(range(200)))
        payload = codec._roots[bundle.root].payload
        impostor = codec.encode(b"another block entirely")
        codec.file_encoding(bundle.root, b"another block entirely", impostor.chunks)
        assert codec._roots[bundle.root].payload is payload
        marked = {id(chunk) for chunk in _consistent(codec, bundle.root)}
        assert marked == {id(chunk) for chunk in bundle.chunks}


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
        record = codec._roots[bundle.root]
        assert len(record.verified) == 1
        del bundle
        assert len(record.verified) == 0


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
        # The nodes share one codec, and each disperser filed its own
        # encoding in it: no node runs the check, all four are served.
        assert all(node.codec is nodes[0].codec for node in nodes)
        counters = nodes[0].codec.counters()
        assert retrieved >= 6
        assert (counters["computed"], counters["served"]) == (0, 4 * retrieved)


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


def _count_coding(monkeypatch) -> dict[str, list]:
    """Patch RS encode and decode, ``RealCodec.decode`` and ``AvidMInstance.disperse``
    to log the first argument of each call (for ``RealCodec.decode``, the root)."""
    calls: dict[str, list] = {}

    def log_calls(owner, name: str, log: str) -> None:
        original = getattr(owner, name)
        calls[log] = []

        def logged(self, first, *rest):
            calls[log].append(first)
            return original(self, first, *rest)

        monkeypatch.setattr(owner, name, logged)

    log_calls(ReedSolomonCode, "encode_with_payload", "rs_encode")
    log_calls(ReedSolomonCode, "decode", "rs_decode")
    log_calls(RealCodec, "decode", "retrievals")
    log_calls(AvidMInstance, "disperse", "dispersals")
    return calls


def _counters_after(spec: ScenarioSpec) -> dict[str, int]:
    """Run ``spec`` to its horizon; the counters of the one codec its nodes share."""
    state = build_scenario_state(spec)
    execute(state, [Stop(spec.duration)])
    (codec,) = {id(node.codec): node.codec for node in state.nodes}.values()
    return codec.counters()


def test_an_honest_run_makes_no_reed_solomon_decode(monkeypatch):
    """Every disperser files its own encoding, so every retriever holds chunks
    already known to be it: one RS encode per dispersal, no decode, no re-encode."""
    calls = _count_coding(monkeypatch)
    counters = _counters_after(_real_plane_specs()[-1])
    retrievals = calls["retrievals"]
    assert len(retrievals) > len(set(retrievals)) > 0
    assert len(calls["rs_decode"]) == 0
    assert len(calls["rs_encode"]) == len(calls["dispersals"]) > 0
    assert counters["computed"] == 0


def test_a_warm_rerun_decodes_nothing(monkeypatch):
    """A second identical run in one process builds its own codec, files every
    root it disperses there, and again decodes nothing."""
    calls = _count_coding(monkeypatch)
    spec = _real_plane_specs()[-1]
    summaries = []
    for _run in ("cold", "warm"):
        calls["rs_decode"].clear()
        summaries.append(_canon(run_scenario(spec).summary()))
        assert len(calls["rs_decode"]) == 0
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("n", (4, 7, 16))
def test_a_cold_root_is_checked_once(monkeypatch, n):
    """Unfiled (as after a restore), a root costs one re-encode check: every
    retriever decodes, and every one after the first is served its payload."""
    params = ProtocolParams.for_n(n)
    k = params.data_shards
    payload = bytes(range(256)) * 3
    bundle = RealCodec(params).encode(payload)
    codec = RealCodec(params)
    verified = _verified(codec, bundle.root, bundle.chunks, range(n))
    decodes = _count_decodes(monkeypatch, codec)
    outcomes = [
        codec.decode(bundle.root, {(r + j) % n: verified[(r + j) % n] for j in range(k)})
        for r in range(n)
    ]
    assert outcomes[0] == payload
    assert all(outcome is outcomes[0] for outcome in outcomes)
    assert len(decodes) == n
    assert codec.counters() == {"roots": 1, "served": n - 1, "computed": 1}


@pytest.mark.parametrize("split", (1, 2, 3), ids=("split1", "split2", "split3"))
def test_honest_retrievers_of_a_slot_agree(split):
    """AVID-M retrieval consistency: one payload object or one ⊥ per slot."""
    spec = _real_plane_specs()[split - 1]
    state = build_scenario_state(spec)
    execute(state, [Stop(spec.duration)])
    slots: dict[tuple[int, int], list] = {}
    for node in state.nodes:
        if node.node_id not in state.placement:
            for epoch, epoch_state in node._epochs.items():
                for slot, block in epoch_state.retrieved.items():
                    slots.setdefault((epoch, slot), []).append(block)
    for key, blocks in slots.items():
        assert all(block is blocks[0] for block in blocks), key
    # Each split leaves both outcomes: honest slots and the equivocator's ⊥.
    assert {blocks[0] is None for blocks in slots.values()} == {True, False}


@pytest.mark.parametrize(
    "spec", _real_plane_specs(), ids=("split1", "split2", "split3", "honest-n7")
)
def test_summaries_identical_rerun_and_resumed(spec: ScenarioSpec, tmp_path):
    first = _canon(run_scenario(spec).summary())
    assert _canon(run_scenario(spec).summary()) == first
    state = build_scenario_state(spec)
    state.sim.run(until=spec.duration * 0.45)
    checkpoint = tmp_path / "mid.ckpt"
    save_checkpoint(checkpoint, state)
    assert _canon(_resume_in_fresh_process(checkpoint)) == first


def test_a_run_counts_the_same_first_or_second_in_a_process():
    spec = _real_plane_specs()[-1]
    first = _counters_after(spec)
    assert first["served"] > 0
    assert _counters_after(spec) == first


def test_a_point_after_another_point_counts_the_same():
    """What a pool worker does: execute one point, then another, in one process."""
    split, honest = _real_plane_specs()[0], _real_plane_specs()[-1]
    alone = _counters_after(split)
    assert alone["computed"] > 0
    run_scenario(honest)
    assert _counters_after(split) == alone


def test_a_checkpoint_holds_no_record(tmp_path):
    """A state's checkpoint bytes are equal with its record full and emptied,
    and the restored nodes share one codec with an empty record."""
    spec = _real_plane_specs()[-1]
    state = build_scenario_state(spec)
    state.sim.run(until=spec.duration * 0.6)
    codec = state.nodes[0].codec
    assert codec.counters()["roots"] > 0
    full = save_checkpoint(tmp_path / "full.ckpt", state).read_bytes()
    codec.__init__(codec.params)
    assert codec.counters() == {"roots": 0, "served": 0, "computed": 0}
    assert save_checkpoint(tmp_path / "emptied.ckpt", state).read_bytes() == full
    restored = load_checkpoint(tmp_path / "full.ckpt")
    (codec,) = {id(node.codec): node.codec for node in restored.nodes}.values()
    assert codec.counters() == {"roots": 0, "served": 0, "computed": 0}
