#!/usr/bin/env python3
"""Consensus under Byzantine behaviour.

Three scenarios on a 7-node cluster (f = 2) with real erasure-coded blocks:

1. **Crash faults** — two nodes are silent from the start; the remaining
   five keep committing blocks.
2. **Equivocating disperser** — a proposer disperses *inconsistent* chunks
   (different payloads to different servers).  AVID-M's re-encode check
   makes every correct node deliver the same ``BAD_UPLOADER`` placeholder
   for that slot, so the ledgers stay identical.
3. **Censorship attempt** — a node always votes against one victim's blocks
   and misreports its observations; inter-node linking still delivers every
   one of the victim's blocks.

Run with::

    python examples/byzantine_faults.py

These runs use the instant router and the *node-class* adversaries so the
full cryptographic checks execute on real bytes.  For timed crash-fault
scenarios on the bandwidth-accurate simulator, see the declarative
``adversary-crash-mix`` / ``mid-run-crash`` entries in ``docs/scenarios.md``
(``python -m repro.experiments run adversary-crash-mix``).
"""

from __future__ import annotations

from repro import DispersedLedgerNode, NodeConfig, ProtocolParams
from repro.adversary.censor import CensoringNode
from repro.adversary.crash import CrashedNode
from repro.adversary.equivocator import EquivocatingDisperserNode
from repro.ba.coin import CommonCoin
from repro.core.node_base import codec_for
from repro.sim.context import NodeContext
from repro.sim.instant import InstantNetwork

NUM_NODES = 7
NUM_EPOCHS = 3


def build_cluster(byzantine: dict[int, object]) -> tuple[InstantNetwork, list]:
    """A 7-node cluster where selected node ids are replaced by adversaries."""
    params = ProtocolParams.for_n(NUM_NODES)
    network = InstantNetwork(NUM_NODES, seed=7)
    coin = CommonCoin()
    config = NodeConfig(data_plane="real")
    codec = codec_for(config, params)
    nodes = []
    for node_id in range(NUM_NODES):
        if node_id in byzantine and byzantine[node_id] is CrashedNode:
            node = CrashedNode(node_id)
        else:
            node_class = byzantine.get(node_id, DispersedLedgerNode)
            ctx = NodeContext(node_id, network, network)
            kwargs = {"victim": 0} if node_class is CensoringNode else {}
            node = node_class(
                node_id, params, ctx, config=config, coin=coin, codec=codec,
                max_epochs=NUM_EPOCHS, **kwargs,
            )
        network.attach(node_id, node)
        nodes.append(node)
    return network, nodes


def correct_ids(byzantine: dict[int, object]) -> list[int]:
    return [i for i in range(NUM_NODES) if i not in byzantine]


def check_agreement(nodes, ids) -> None:
    sequences = {tuple(nodes[i].ledger.digest_sequence()) for i in ids}
    assert len(sequences) == 1, "correct nodes delivered different logs!"


def scenario_crash() -> None:
    print("=== 1. two crashed nodes (f = 2) ===")
    byzantine = {5: CrashedNode, 6: CrashedNode}
    network, nodes = build_cluster(byzantine)
    for i in correct_ids(byzantine):
        nodes[i].submit_payload(f"from-node-{i}".encode())
    network.start()
    network.run()
    survivors = correct_ids(byzantine)
    check_agreement(nodes, survivors)
    ledger = nodes[survivors[0]].ledger
    print(f"epochs delivered: {nodes[survivors[0]].delivered_epoch}, "
          f"blocks: {ledger.num_blocks}, transactions: {ledger.num_transactions}")
    print("correct nodes agreed on the same log despite 2 silent nodes ✔\n")


def scenario_equivocation() -> None:
    print("=== 2. equivocating disperser ===")
    byzantine = {3: EquivocatingDisperserNode}
    network, nodes = build_cluster(byzantine)
    for i in correct_ids(byzantine):
        nodes[i].submit_payload(f"honest-{i}".encode())
    nodes[3].submit_payload(b"poisoned block payload")
    network.start()
    network.run()
    check_agreement(nodes, correct_ids(byzantine))
    flagged = [
        (entry.epoch, entry.proposer)
        for entry in nodes[0].ledger.entries
        if entry.block.label == "BAD_UPLOADER"
    ]
    print(f"slots recorded as BAD_UPLOADER on every correct node: {flagged}")
    print("inconsistent dispersals were detected and neutralised ✔\n")


def scenario_censorship() -> None:
    print("=== 3. censorship attempt against node 0 ===")
    byzantine = {2: CensoringNode}
    network, nodes = build_cluster(byzantine)
    victim_payloads = [f"victim-tx-{k}".encode() for k in range(3)]
    for payload in victim_payloads:
        nodes[0].submit_payload(payload)
    for i in (1, 3, 4, 5, 6):
        nodes[i].submit_payload(f"other-{i}".encode())
    network.start()
    network.run()
    check_agreement(nodes, [i for i in range(NUM_NODES) if i != 2])
    delivered = {tx.data for tx in nodes[1].ledger.transactions()}
    missing = [p for p in victim_payloads if p not in delivered]
    linked = sum(1 for e in nodes[1].ledger.entries if e.via_linking)
    print(f"victim transactions delivered: {len(victim_payloads) - len(missing)}"
          f"/{len(victim_payloads)} (blocks delivered via inter-node linking: {linked})")
    assert not missing, "censorship succeeded — this should not happen"
    print("inter-node linking defeated the censorship attempt ✔\n")


def main() -> None:
    scenario_crash()
    scenario_equivocation()
    scenario_censorship()


if __name__ == "__main__":
    main()
