"""Integration tests for DispersedLedger nodes on the instant router.

These check the BFT properties of S2.1 — Agreement, Total Order, Validity —
end to end, with real erasure-coded blocks, under message reordering and in
the presence of crashed, equivocating and censoring nodes.
"""

import dataclasses

import pytest

from repro.adversary.censor import CensoringNode
from repro.adversary.crash import CrashedNode
from repro.adversary.equivocator import EquivocatingDisperserNode
from repro.core.config import NodeConfig
from repro.core.node import DLCoupledNode, DispersedLedgerNode
from tests.conftest import build_cluster, submit_texts


def assert_identical_ledgers(nodes, ids=None):
    """All listed nodes must have byte-identical delivery sequences."""
    ids = ids if ids is not None else range(len(nodes))
    digests = [tuple(nodes[i].ledger.digest_sequence()) for i in ids]
    assert len(set(digests)) == 1, "correct nodes delivered different sequences"


class TestHappyPath:
    def test_agreement_and_total_order(self, params4):
        network, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=3)
        for i, node in enumerate(nodes):
            submit_texts(node, [f"tx-{i}-{k}" for k in range(4)])
        network.start()
        network.run()
        assert_identical_ledgers(nodes)
        assert all(node.delivered_epoch == 3 for node in nodes)

    def test_validity_all_submitted_transactions_delivered(self, params4):
        network, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=3)
        submitted = []
        for i, node in enumerate(nodes):
            submitted += [tx.tx_id for tx in submit_texts(node, [f"v-{i}-{k}" for k in range(3)])]
        network.start()
        network.run()
        delivered_ids = {tx.tx_id for tx in nodes[0].ledger.transactions()}
        assert set(submitted) <= delivered_ids

    def test_no_transaction_delivered_twice(self, params4):
        network, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=4)
        for i, node in enumerate(nodes):
            submit_texts(node, [f"once-{i}-{k}" for k in range(3)])
        network.start()
        network.run()
        ids = [tx.tx_id for tx in nodes[0].ledger.transactions()]
        assert len(ids) == len(set(ids))

    def test_empty_epochs_still_advance(self, params4):
        network, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=2)
        network.start()
        network.run()
        assert all(node.delivered_epoch == 2 for node in nodes)
        assert all(entry.block.is_empty for entry in nodes[0].ledger.entries)

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_agreement_under_random_delivery_order(self, params4, seed):
        network, nodes = build_cluster(DispersedLedgerNode, params4, seed=seed, max_epochs=3)
        for i, node in enumerate(nodes):
            submit_texts(node, [f"rnd-{i}-{k}" for k in range(2)])
        network.start()
        network.run()
        assert_identical_ledgers(nodes)

    def test_seven_node_cluster(self, params7):
        network, nodes = build_cluster(DispersedLedgerNode, params7, max_epochs=2)
        for i, node in enumerate(nodes):
            submit_texts(node, [f"seven-{i}"])
        network.start()
        network.run()
        assert_identical_ledgers(nodes)
        assert nodes[0].ledger.num_transactions == 7

    def test_observation_arrays_track_completion(self, params4):
        network, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=2)
        network.start()
        network.run()
        for node in nodes:
            assert node.observation_array() == (2, 2, 2, 2)


class TestVArraysAndLinking:
    def test_blocks_carry_v_arrays_when_linking(self, params4):
        network, nodes = build_cluster(DispersedLedgerNode, params4, max_epochs=2)
        network.start()
        network.run()
        second_epoch_blocks = [
            entry.block for entry in nodes[0].ledger.entries if entry.epoch == 2
        ]
        assert second_epoch_blocks
        assert all(len(block.v_array) == 4 for block in second_epoch_blocks)

    def test_no_v_arrays_without_linking(self, params4):
        config = NodeConfig(data_plane="real", linking=False)
        network, nodes = build_cluster(
            DispersedLedgerNode, params4, config=config, max_epochs=2
        )
        network.start()
        network.run()
        assert all(block.v_array == () for entry in nodes[0].ledger.entries for block in [entry.block])


class TestCrashFaults:
    def test_progress_with_f_crashed_nodes(self, params4):
        network, nodes = build_cluster(
            DispersedLedgerNode, params4, max_epochs=3, node_classes={3: _crashed_factory()}
        )
        for i in range(3):
            submit_texts(nodes[i], [f"crash-{i}-{k}" for k in range(3)])
        network.start()
        network.run()
        correct = [0, 1, 2]
        assert_identical_ledgers(nodes, correct)
        assert all(nodes[i].delivered_epoch == 3 for i in correct)
        # The crashed node's slot is never committed.
        proposers = {entry.proposer for entry in nodes[0].ledger.entries}
        assert 3 not in proposers

    def test_correct_transactions_survive_crash(self, params7):
        network, nodes = build_cluster(
            DispersedLedgerNode,
            params7,
            max_epochs=3,
            node_classes={5: _crashed_factory(), 6: _crashed_factory()},
        )
        submitted = [tx.tx_id for tx in submit_texts(nodes[0], ["a", "b", "c"])]
        network.start()
        network.run()
        delivered = {tx.tx_id for tx in nodes[1].ledger.transactions()}
        assert set(submitted) <= delivered


class TestByzantineFaults:
    def test_equivocating_disperser_is_neutralised(self, params4):
        network, nodes = build_cluster(
            DispersedLedgerNode,
            params4,
            max_epochs=3,
            node_classes={2: EquivocatingDisperserNode},
        )
        for i in (0, 1, 3):
            submit_texts(nodes[i], [f"eq-{i}-{k}" for k in range(2)])
        network.start()
        network.run()
        correct = [0, 1, 3]
        assert_identical_ledgers(nodes, correct)
        # Whenever the equivocator's slot was committed, every correct node
        # recorded the same BAD_UPLOADER placeholder for it.
        for i in correct:
            for entry in nodes[i].ledger.entries:
                if entry.proposer == 2:
                    assert entry.block.label == "BAD_UPLOADER" or entry.block.is_empty

    def test_censor_cannot_suppress_victim_blocks(self, params4):
        network, nodes = build_cluster(
            DispersedLedgerNode,
            params4,
            max_epochs=3,
            node_classes={1: lambda *a, **kw: CensoringNode(*a, victim=0, **kw)},
        )
        victim_txs = [tx.tx_id for tx in submit_texts(nodes[0], ["victim-1", "victim-2"])]
        network.start()
        network.run()
        correct = [0, 2, 3]
        assert_identical_ledgers(nodes, correct)
        delivered = {tx.tx_id for tx in nodes[2].ledger.transactions()}
        assert set(victim_txs) <= delivered


class TestDLCoupled:
    def test_coupled_node_behaves_like_dl_when_caught_up(self, params4):
        network, nodes = build_cluster(DLCoupledNode, params4, max_epochs=3)
        for i, node in enumerate(nodes):
            submit_texts(node, [f"coupled-{i}-{k}" for k in range(2)])
        network.start()
        network.run()
        assert_identical_ledgers(nodes)
        assert nodes[0].ledger.num_transactions == 8

    def test_coupled_config_forced(self, params4):
        network, nodes = build_cluster(DLCoupledNode, params4, max_epochs=1)
        assert all(node.config.coupled for node in nodes)

    @pytest.mark.parametrize(
        "name",
        [
            f.name
            for f in dataclasses.fields(NodeConfig)
            if f.name not in ("coupled", "coupled_lag")
        ],
    )
    def test_coupled_config_keeps_every_other_field(self, params4, name):
        # Forcing coupled mode may touch only coupled and coupled_lag; every
        # other field the caller set must survive the rebuild.
        default = getattr(NodeConfig(), name)
        strings = {"data_plane": "real", "mempool": "columnar"}
        if name in strings:
            value = strings[name]
        elif isinstance(default, bool):
            value = not default
        else:
            value = default + 1
        config = NodeConfig(**{name: value})
        assert getattr(config, name) != default
        _, nodes = build_cluster(DLCoupledNode, params4, config=config, max_epochs=1)
        expected = dataclasses.replace(
            config, coupled=True, coupled_lag=DLCoupledNode.DEFAULT_COUPLED_LAG
        )
        assert all(node.config == expected for node in nodes)

    @pytest.mark.parametrize(
        "coupled, lag, expected",
        [
            (False, 1, DLCoupledNode.DEFAULT_COUPLED_LAG),
            (False, DLCoupledNode.DEFAULT_COUPLED_LAG + 3, DLCoupledNode.DEFAULT_COUPLED_LAG + 3),
            (True, 2, 2),
        ],
        ids=["raised-to-default", "larger-lag-kept", "already-coupled-untouched"],
    )
    def test_coupled_lag_is_at_least_the_default_unless_already_coupled(
        self, params4, coupled, lag, expected
    ):
        config = NodeConfig(coupled=coupled, coupled_lag=lag)
        _, nodes = build_cluster(DLCoupledNode, params4, config=config, max_epochs=1)
        assert {(node.config.coupled, node.config.coupled_lag) for node in nodes} == {
            (True, expected)
        }


def _crashed_factory():
    """Adapter so CrashedNode can be constructed with the node-cluster signature."""

    def factory(node_id, params, ctx, **kwargs):
        return CrashedNode(node_id)

    return factory
