#!/usr/bin/env python3
"""Quickstart: a 4-node DispersedLedger cluster replicating a key-value store.

This example runs the full protocol stack — AVID-M dispersal, binary
agreement, inter-node linking, retrieval — with *real* erasure-coded blocks
on the instant in-memory router (no bandwidth modelling), which is the
fastest way to see the consensus machinery work end to end:

1. four nodes each accept client transactions that encode key-value
   operations;
2. the cluster agrees on a totally ordered log of blocks;
3. every node applies the log to its local state machine replica;
4. we check all replicas converged to the same state.

Run with::

    python examples/quickstart.py

This walks the protocol stack directly (``docs/architecture.md`` maps the
layers).  For bandwidth-accurate experiments — sweeps over protocols,
topologies, faults and workloads — use the scenario engine instead:
``examples/scenario_sweep.py`` and ``docs/scenarios.md``.
"""

from __future__ import annotations

from repro import DispersedLedgerNode, NodeConfig, ProtocolParams
from repro.ba.coin import CommonCoin
from repro.core.node_base import codec_for
from repro.core.state_machine import KeyValueStateMachine, encode_operation
from repro.sim.context import NodeContext
from repro.sim.instant import InstantNetwork

NUM_NODES = 4
NUM_EPOCHS = 3


def build_cluster() -> tuple[InstantNetwork, list[DispersedLedgerNode]]:
    """Create a 4-node DispersedLedger cluster on the instant router."""
    params = ProtocolParams.for_n(NUM_NODES)
    network = InstantNetwork(NUM_NODES, seed=42)
    coin = CommonCoin()
    config = NodeConfig(data_plane="real")  # move real erasure-coded bytes
    codec = codec_for(config, params)  # one per cluster, like the coin
    nodes = []
    for node_id in range(NUM_NODES):
        ctx = NodeContext(node_id, network, network)
        node = DispersedLedgerNode(
            node_id, params, ctx, config=config, coin=coin, codec=codec, max_epochs=NUM_EPOCHS
        )
        network.attach(node_id, node)
        nodes.append(node)
    return network, nodes


def submit_client_workload(nodes: list[DispersedLedgerNode]) -> None:
    """Each organisation submits transactions through its own node (S2.1)."""
    nodes[0].submit_payload(encode_operation("set", "alice", 100))
    nodes[0].submit_payload(encode_operation("set", "bob", 50))
    nodes[1].submit_payload(encode_operation("add", "alice", -30))
    nodes[1].submit_payload(encode_operation("add", "bob", 30))
    nodes[2].submit_payload(encode_operation("set", "carol", 7))
    nodes[3].submit_payload(encode_operation("delete", "carol"))
    nodes[3].submit_payload(b"this is spam, not a valid operation")


def main() -> None:
    network, nodes = build_cluster()
    submit_client_workload(nodes)

    network.start()
    delivered_messages = network.run()

    print(f"cluster of {NUM_NODES} nodes ran {NUM_EPOCHS} epochs "
          f"({delivered_messages} protocol messages delivered)\n")

    # Every node applies its (identical) ledger to a state machine replica.
    replicas = []
    for node in nodes:
        machine = KeyValueStateMachine()
        for entry in node.ledger.entries:
            machine.apply_block(entry.block.transactions)
        replicas.append(machine)

    reference = nodes[0].ledger
    print("delivery order (epoch, proposer):", reference.sequence())
    print(f"blocks delivered: {reference.num_blocks}, "
          f"transactions: {reference.num_transactions}")
    print("replicated state:", replicas[0].snapshot())
    print("rejected (spam) transactions:", replicas[0].rejected_count)

    sequences = {tuple(node.ledger.digest_sequence()) for node in nodes}
    states = {tuple(sorted(replica.snapshot().items())) for replica in replicas}
    assert len(sequences) == 1, "ledgers diverged!"
    assert len(states) == 1, "replicas diverged!"
    print("\nall nodes delivered the same log and reached the same state ✔")


if __name__ == "__main__":
    main()
