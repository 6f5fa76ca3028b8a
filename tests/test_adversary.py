"""Tests for the adversary toolkit itself."""

import dataclasses

import pytest

from repro.adversary.censor import CensoringNode
from repro.adversary.crash import CrashAfterNode, CrashedNode
from repro.adversary.equivocator import EquivocatingDisperserNode, send_inconsistent_dispersal
from repro.adversary.filters import compose_filters, drop_messages_between, drop_messages_from
from repro.adversary.registry import AdversarySpec, get_adversary, rebuild_node
from repro.common.errors import ConfigurationError
from repro.common.ids import VIDInstanceId
from repro.common.params import ProtocolParams
from repro.core.block import Block, Transaction
from repro.core.node import DispersedLedgerNode
from repro.sim.context import NodeContext
from repro.sim.instant import InstantNetwork
from repro.sim.messages import Message
from tests.conftest import build_cluster


class TestCrashedNode:
    def test_ignores_everything(self):
        node = CrashedNode(0)
        node.start()
        node.on_message(1, Message())
        assert node.messages_ignored == 1


class TestCrashAfterNode:
    def test_forwards_before_crash_and_drops_after(self, params4):
        network, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=1)
        inner = nodes[0]
        wrapper = CrashAfterNode(inner, network, crash_time=5.0)
        assert not wrapper.crashed
        wrapper.on_message(1, Message())
        assert wrapper.messages_ignored == 0
        # Advance the router's clock past the crash time via a timer.
        network.schedule(10.0, lambda: None)
        network.run()
        assert wrapper.crashed
        wrapper.on_message(1, Message())
        assert wrapper.messages_ignored == 1

    def test_rejects_negative_crash_time(self):
        import pytest

        with pytest.raises(ValueError):
            CrashAfterNode(CrashedNode(0), InstantNetwork(1), crash_time=-1.0)


class TestFilters:
    def test_drop_messages_from(self):
        predicate = drop_messages_from({2, 3})
        assert predicate(0, 1, Message())
        assert not predicate(2, 1, Message())

    def test_drop_messages_between(self):
        predicate = drop_messages_between({0, 1}, {2, 3})
        assert not predicate(0, 2, Message())
        assert not predicate(3, 1, Message())
        assert predicate(0, 1, Message())
        assert predicate(2, 3, Message())

    def test_compose_filters(self):
        predicate = compose_filters(drop_messages_from({0}), drop_messages_from({1}))
        assert not predicate(0, 2, Message())
        assert not predicate(1, 2, Message())
        assert predicate(2, 3, Message())


class TestEquivocator:
    def test_inconsistent_dispersal_commits_to_one_root(self):
        params = ProtocolParams.for_n(4)
        network = InstantNetwork(4)
        received_roots = []

        class RootRecorder:
            def start(self):
                return

            def on_message(self, src, msg):
                received_roots.append(msg.root)

        for i in range(4):
            network.attach(i, RootRecorder())
        ctx = NodeContext(0, network, network)
        root = send_inconsistent_dispersal(
            params, ctx, VIDInstanceId(epoch=1, proposer=0), b"x" * 64, b"y" * 64
        )
        network.run()
        assert len(received_roots) == 4
        assert set(received_roots) == {root}

    def test_requires_equal_shard_sizes(self):
        params = ProtocolParams.for_n(4)
        network = InstantNetwork(4)
        ctx = NodeContext(0, network, network)
        with pytest.raises(ValueError):
            send_inconsistent_dispersal(
                params, ctx, VIDInstanceId(epoch=1, proposer=0), b"short", b"much longer payload" * 10
            )


class TestNodeClassFactories:
    """The registry factories that rebuild honest nodes as Byzantine classes."""

    def test_rebuild_node_preserves_identity_and_wiring(self, params4):
        _, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=2)
        honest = nodes[1]
        rebuilt = rebuild_node(CensoringNode, honest, victim=0)
        assert isinstance(rebuilt, CensoringNode)
        assert rebuilt.node_id == honest.node_id
        assert rebuilt.params is honest.params
        assert rebuilt.ctx is honest.ctx
        assert rebuilt.config is honest.config
        assert rebuilt.coin is honest.coin
        assert rebuilt.max_epochs == honest.max_epochs
        assert rebuilt.victim == 0

    def test_censor_factory_builds_censoring_node(self, params4):
        _, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=2)
        spec = AdversarySpec(kind="censor", count=1, victim=1)
        replacement = get_adversary("censor")(nodes[3], None, spec)
        assert isinstance(replacement, CensoringNode)
        assert replacement.victim == 1

    def test_censor_factory_rejects_bad_victims(self, params4):
        _, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=2)
        factory = get_adversary("censor")
        with pytest.raises(ConfigurationError):
            factory(nodes[3], None, AdversarySpec(kind="censor", count=1, victim=9))
        # the victim may not be one of the adversarial nodes themselves
        with pytest.raises(ConfigurationError):
            factory(nodes[3], None, AdversarySpec(kind="censor", count=1, victim=3))

    def test_equivocate_factory_builds_equivocator(self, params4):
        _, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=2)
        spec = AdversarySpec(kind="equivocate", count=1, split=2)
        replacement = get_adversary("equivocate")(nodes[3], None, spec)
        assert isinstance(replacement, EquivocatingDisperserNode)
        assert replacement.split == 2

    def test_equivocate_factory_rejects_out_of_range_split(self, params4):
        _, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=2)
        factory = get_adversary("equivocate")
        with pytest.raises(ConfigurationError):
            factory(nodes[3], None, AdversarySpec(kind="equivocate", count=1, split=4))

    def test_censoring_node_rejects_out_of_range_victim(self, params4):
        _, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=2)
        with pytest.raises(ConfigurationError):
            rebuild_node(CensoringNode, nodes[1], victim=7)

    def test_censored_block_keeps_every_field_but_v_array(self, params4, monkeypatch):
        """The censor only rewrites its observation of the victim.

        Regression: the block was rebuilt field by field and lost what the
        rebuild did not name — a censoring node's transactions left its
        mempool and were never proposed.
        """
        _, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=2)
        censor = rebuild_node(CensoringNode, nodes[1], victim=0)
        honest = Block(
            proposer=1,
            epoch=1,
            transactions=[Transaction(9, 1, 0.5, 3, b"abc")],
            v_array=(3, 3, 3, 3),
            label="marked",
        )
        with monkeypatch.context() as patched:
            patched.setattr(DispersedLedgerNode, "_make_block", lambda node, epoch: honest)
            block = censor._make_block(1)
        assert block.v_array == (0, 3, 3, 3)
        for field in dataclasses.fields(Block):
            if field.name != "v_array":
                value = getattr(honest, field.name)
                assert value and getattr(block, field.name) is value, field.name
        # And from a real mempool: what the censor takes, it proposes.
        censor.submit_payload(b"from the censor")
        proposed = censor._make_block(1)
        assert [tx.data for tx in proposed.transactions] == [b"from the censor"]
        assert censor.mempool.total_proposed == proposed.num_transactions == 1

    def test_all_four_kinds_registered(self):
        for kind in ("crash", "crash-after", "censor", "equivocate"):
            assert callable(get_adversary(kind))
        with pytest.raises(ConfigurationError):
            get_adversary("gremlin")
