"""Tests for the AVID-M verifiable information dispersal protocol.

These exercise the four properties of S3.1 (Termination, Agreement,
Availability, Correctness) on the instant router, including under message
reordering, crash faults and an equivocating (inconsistent-encoding)
disperser.
"""

import pytest

from repro.adversary.equivocator import send_inconsistent_dispersal
from repro.adversary.filters import drop_messages_from
from repro.common.errors import DispersalError
from repro.common.ids import VIDInstanceId
from repro.common.params import ProtocolParams
from repro.sim.context import NodeContext
from repro.sim.instant import InstantNetwork
from repro.vid.avid_m import AvidMInstance
from repro.vid.codec import BAD_UPLOADER, RealCodec


class VidHarness:
    """N servers each hosting one AVID-M instance for the same instance id."""

    def __init__(self, n: int, seed: int | None = None, allowed_disperser: int | None = 0):
        self.params = ProtocolParams.for_n(n)
        self.network = InstantNetwork(n, seed=seed)
        self.codec = RealCodec(self.params)
        self.instance_id = VIDInstanceId(epoch=1, proposer=0)
        self.completed: list[int] = []
        self.instances: list[AvidMInstance] = []
        for node_id in range(n):
            ctx = NodeContext(node_id, self.network, self.network)
            instance = AvidMInstance(
                params=self.params,
                instance=self.instance_id,
                ctx=ctx,
                codec=self.codec,
                on_complete=lambda _id, node_id=node_id: self.completed.append(node_id),
                allowed_disperser=allowed_disperser,
            )
            self.network.attach(node_id, _Adapter(instance))
            self.instances.append(instance)

    def disperse(self, payload: bytes, from_node: int = 0) -> bytes:
        return self.instances[from_node].disperse(payload)

    def run(self):
        self.network.run()

    def retrieve_all(self):
        results = {}
        for node_id, instance in enumerate(self.instances):
            instance.retrieve(lambda res, node_id=node_id: results.__setitem__(node_id, res))
        self.network.run()
        return results


class _Adapter:
    def __init__(self, instance):
        self.instance = instance

    def start(self):
        return

    def on_message(self, src, msg):
        self.instance.handle(src, msg)


class TestTermination:
    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_all_correct_servers_complete(self, n):
        harness = VidHarness(n)
        harness.disperse(b"hello dispersal")
        harness.run()
        assert sorted(harness.completed) == list(range(n))

    def test_completes_under_random_message_order(self):
        for seed in range(5):
            harness = VidHarness(7, seed=seed)
            harness.disperse(b"reordered")
            harness.run()
            assert len(harness.completed) == 7

    def test_completes_with_f_crashed_servers(self):
        harness = VidHarness(7)
        crashed = {5, 6}
        harness.network.delivery_filter = drop_messages_from(crashed)
        harness.disperse(b"with crashes")
        harness.run()
        completed_correct = set(harness.completed) - crashed
        assert completed_correct == {0, 1, 2, 3, 4}


class TestAgreementAndAvailability:
    def test_all_servers_agree_on_chunk_root(self):
        harness = VidHarness(7)
        root = harness.disperse(b"agree on me")
        harness.run()
        assert all(instance.chunk_root == root for instance in harness.instances)

    def test_retrieval_returns_dispersed_block(self):
        payload = b"the exact dispersed block" * 5
        harness = VidHarness(7)
        harness.disperse(payload)
        harness.run()
        results = harness.retrieve_all()
        assert len(results) == 7
        for result in results.values():
            assert result.ok
            assert result.payload == payload

    def test_retrieval_with_f_silent_servers(self):
        payload = b"still available"
        harness = VidHarness(7)
        harness.disperse(payload)
        harness.run()
        harness.network.delivery_filter = drop_messages_from({5, 6})
        results = {}
        for node_id in range(5):
            harness.instances[node_id].retrieve(
                lambda res, node_id=node_id: results.__setitem__(node_id, res)
            )
        harness.run()
        assert all(results[i].payload == payload for i in range(5))

    def test_retrieve_before_completion_is_answered_later(self):
        # A client that asks before servers have completed must still get the
        # block once dispersal finishes (servers defer, then answer).
        harness = VidHarness(4)
        results = {}
        harness.instances[3].retrieve(lambda res: results.__setitem__(3, res))
        harness.run()
        assert 3 not in results
        harness.disperse(b"late dispersal")
        harness.run()
        assert results[3].payload == b"late dispersal"

    def test_retrieve_twice_returns_same_payload(self):
        harness = VidHarness(4)
        harness.disperse(b"idempotent")
        harness.run()
        seen = []
        harness.instances[1].retrieve(lambda res: seen.append(res.payload))
        harness.run()
        harness.instances[1].retrieve(lambda res: seen.append(res.payload))
        harness.run()
        assert seen == [b"idempotent", b"idempotent"]


class TestCorrectness:
    def test_equivocating_disperser_yields_bad_uploader_everywhere(self):
        harness = VidHarness(7, allowed_disperser=0)
        ctx = NodeContext(0, harness.network, harness.network)
        send_inconsistent_dispersal(
            harness.params,
            ctx,
            harness.instance_id,
            b"a" * 700,
            b"z" * 700,
        )
        harness.run()
        # Dispersal still terminates (the chunks all verify against the root).
        assert len(harness.completed) == 7
        results = harness.retrieve_all()
        for result in results.values():
            assert not result.ok
            assert result.payload == BAD_UPLOADER

    def test_wrong_disperser_is_ignored(self):
        # A Byzantine node (2) tries to disperse into node 0's slot: servers
        # must drop its Chunk messages, so the dispersal never completes.
        harness = VidHarness(4, allowed_disperser=0)
        from repro.vid.messages import ChunkMsg

        bundle = harness.codec.encode(b"impostor")
        for server in range(4):
            harness.network.send(
                2,
                server,
                ChunkMsg(instance=harness.instance_id, root=bundle.root, chunk=bundle.chunks[server]),
            )
        harness.run()
        assert harness.completed == []

    def test_chunks_with_invalid_proofs_are_ignored(self):
        harness = VidHarness(4)
        codec = harness.codec
        bundle_a = codec.encode(b"real payload")
        bundle_b = codec.encode(b"other payload")
        from repro.vid.messages import ChunkMsg

        # Send chunks from bundle B claiming to belong to bundle A's root.
        for server in range(4):
            harness.network.send(
                0,
                server,
                ChunkMsg(
                    instance=harness.instance_id,
                    root=bundle_a.root,
                    chunk=bundle_b.chunks[server],
                ),
            )
        harness.run()
        assert harness.completed == []

    def test_duplicate_votes_do_not_double_count(self):
        harness = VidHarness(4)
        from repro.vid.messages import GotChunkMsg

        root = b"\x01" * 32
        # A single server repeating GotChunk must not push others to Ready.
        for _ in range(10):
            harness.network.send(3, 0, GotChunkMsg(instance=harness.instance_id, root=root))
        harness.run()
        assert not harness.instances[0]._sent_ready_roots


class TestDispersalRestrictions:
    def test_disperse_from_disallowed_node_raises(self):
        harness = VidHarness(4, allowed_disperser=1)
        with pytest.raises(Exception):
            harness.instances[0].disperse(b"not mine")

    def test_a_disallowed_disperser_raises_before_encoding_or_sending(self):
        harness = VidHarness(4, allowed_disperser=1)
        with pytest.raises(DispersalError):
            harness.instances[0].disperse(b"not mine")
        harness.run()
        assert harness.network.messages_delivered == 0
        assert harness.codec.counters()["roots"] == 0
        assert harness.completed == []

    def test_anyone_may_disperse_when_unrestricted(self):
        harness = VidHarness(4, allowed_disperser=None)
        harness.disperse(b"open slot", from_node=2)
        harness.run()
        assert len(harness.completed) == 4


