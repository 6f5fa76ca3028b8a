"""Integration tests for the HoneyBadger and HB-Link baselines."""

import dataclasses

import pytest

from repro.core.config import NodeConfig
from repro.honeybadger.node import HoneyBadgerLinkNode, HoneyBadgerNode
from tests.conftest import build_cluster, submit_texts
from tests.test_dl_node import _crashed_factory, assert_identical_ledgers


class TestHoneyBadger:
    def test_agreement_and_total_order(self, params4):
        network, nodes = build_cluster(HoneyBadgerNode, params4, max_epochs=3)
        for i, node in enumerate(nodes):
            submit_texts(node, [f"hb-{i}-{k}" for k in range(3)])
        network.start()
        network.run()
        assert_identical_ledgers(nodes)
        assert all(node.delivered_epoch == 3 for node in nodes)

    def test_linking_disabled_by_class(self, params4):
        _, nodes = build_cluster(HoneyBadgerNode, params4, max_epochs=1)
        assert all(not node.config.linking for node in nodes)
        _, link_nodes = build_cluster(HoneyBadgerLinkNode, params4, max_epochs=1)
        assert all(node.config.linking for node in link_nodes)

    def test_all_transactions_delivered_with_all_correct_nodes(self, params4):
        network, nodes = build_cluster(HoneyBadgerNode, params4, max_epochs=4)
        submitted = []
        for i, node in enumerate(nodes):
            submitted += [tx.tx_id for tx in submit_texts(node, [f"t-{i}-{k}" for k in range(2)])]
        network.start()
        network.run()
        delivered = {tx.tx_id for tx in nodes[0].ledger.transactions()}
        assert set(submitted) <= delivered

    def test_lockstep_epochs_never_run_ahead_of_delivery(self, params4):
        network, nodes = build_cluster(HoneyBadgerNode, params4, max_epochs=3)
        network.start()
        network.run()
        for node in nodes:
            # HoneyBadger proposes epoch e+1 only after delivering epoch e, so
            # the dispersal frontier can lead the delivery frontier by at most 1.
            assert node.current_epoch - node.delivered_epoch <= 1

    def test_progress_with_crashed_node(self, params4):
        network, nodes = build_cluster(
            HoneyBadgerNode, params4, max_epochs=3, node_classes={3: _crashed_factory()}
        )
        for i in range(3):
            submit_texts(nodes[i], [f"hbcrash-{i}"])
        network.start()
        network.run()
        correct = [0, 1, 2]
        assert_identical_ledgers(nodes, correct)
        assert all(nodes[i].delivered_epoch == 3 for i in correct)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_agreement_under_random_delivery_order(self, params7, seed):
        network, nodes = build_cluster(HoneyBadgerNode, params7, seed=seed, max_epochs=2)
        for i, node in enumerate(nodes):
            submit_texts(node, [f"r-{i}"])
        network.start()
        network.run()
        assert_identical_ledgers(nodes)


class TestHoneyBadgerLink:
    def test_agreement_with_linking(self, params4):
        network, nodes = build_cluster(HoneyBadgerLinkNode, params4, max_epochs=3)
        for i, node in enumerate(nodes):
            submit_texts(node, [f"hbl-{i}-{k}" for k in range(2)])
        network.start()
        network.run()
        assert_identical_ledgers(nodes)

    def test_link_blocks_carry_v_arrays(self, params4):
        network, nodes = build_cluster(HoneyBadgerLinkNode, params4, max_epochs=2)
        network.start()
        network.run()
        late_blocks = [e.block for e in nodes[0].ledger.entries if e.epoch == 2]
        assert late_blocks and all(len(b.v_array) == 4 for b in late_blocks)

    def test_progress_with_crashed_node(self, params4):
        network, nodes = build_cluster(
            HoneyBadgerLinkNode, params4, max_epochs=2, node_classes={0: _crashed_factory()}
        )
        submit_texts(nodes[1], ["survives"])
        network.start()
        network.run()
        assert_identical_ledgers(nodes, [1, 2, 3])
        delivered = {tx.data for tx in nodes[1].ledger.transactions()}
        assert b"survives" in delivered


class TestCrossProtocolEquivalence:
    def test_dl_and_hb_deliver_same_transaction_set(self, params4):
        """Both protocol families must deliver the same transactions (though
        possibly in different orders), given identical submissions."""
        from repro.core.node import DispersedLedgerNode

        outcomes = {}
        for name, cls in (("dl", DispersedLedgerNode), ("hb", HoneyBadgerNode)):
            network, nodes = build_cluster(cls, params4, max_epochs=3)
            for i, node in enumerate(nodes):
                node.submit_payload(f"shared-{i}".encode())
            network.start()
            network.run()
            outcomes[name] = {tx.data for tx in nodes[0].ledger.transactions()}
        assert outcomes["dl"] == outcomes["hb"]

    def test_config_override_is_respected(self, params4):
        config = NodeConfig(data_plane="real", linking=True)
        _, nodes = build_cluster(HoneyBadgerNode, params4, config=config, max_epochs=1)
        # The HoneyBadger class forces linking off regardless of the supplied config.
        assert all(not node.config.linking for node in nodes)

    @pytest.mark.parametrize("node_class", [HoneyBadgerNode, HoneyBadgerLinkNode])
    def test_every_config_field_but_linking_survives(self, params4, node_class):
        """The class forces ``linking`` and nothing else — whatever fields
        ``NodeConfig`` grows.  Every field is set off its default, so one
        dropped on the way (as ``mempool`` and ``retrieve_blocks`` once
        were) reads back as the default and fails here."""
        non_default = {
            "data_plane": "real",
            "nagle_delay": 0.25,
            "nagle_size": 77_000,
            "max_block_size": 123_456,
            "retrieve_blocks": False,
            "mempool": "columnar",
        }
        carried = [f.name for f in dataclasses.fields(NodeConfig) if f.name != "linking"]
        assert sorted(carried) == sorted(non_default)  # a new field needs a value here
        for linking in (False, True):
            config = NodeConfig(linking=linking, **non_default)
            assert all(getattr(config, name) != getattr(NodeConfig(), name) for name in carried)
            _, nodes = build_cluster(node_class, params4, config=config, max_epochs=1)
            for node in nodes:
                assert node.config.linking is node_class.LINKING
                for name in carried:
                    assert getattr(node.config, name) == non_default[name], name
