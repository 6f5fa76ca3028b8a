"""Per-node measurement of deliveries, throughput and confirmation latency."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.snapshot import SnapshotState
from repro.core.block import Block
from repro.core.ledger import DeliveredBlock
from repro.core.txbatch import TxBatch
from repro.metrics.stats import Summary, summarise


@dataclass
class NodeMetrics(SnapshotState):
    """Raw measurement series for one node."""

    _SNAPSHOT_FIELDS = (
        "node_id",
        "timeline",
        "latency_chunks",
        "blocks_proposed",
        "bytes_proposed",
        "blocks_delivered",
        "blocks_linked",
        "confirmed_bytes",
        "confirmed_transactions",
        "proposed_block_sizes",
    )

    node_id: int
    #: ``(virtual time, cumulative confirmed payload bytes)`` samples, one per
    #: delivered block — the series plotted in Fig. 9.
    timeline: list[tuple[float, int]] = field(default_factory=list)
    #: Latency samples: one ``(delivered_at, batch)`` chunk per delivered
    #: non-empty block.  The batch is the one every node's copy of the block
    #: shares, so N deliveries of a block store N references, not N latency
    #: columns; the subtraction happens in :meth:`latency_summary`.
    latency_chunks: list[tuple[float, TxBatch]] = field(default_factory=list)
    #: Number of blocks this node proposed.
    blocks_proposed: int = 0
    #: Total transaction payload bytes this node proposed.
    bytes_proposed: int = 0
    #: Number of blocks delivered (including empty and placeholder blocks).
    blocks_delivered: int = 0
    #: Number of blocks delivered through inter-node linking.
    blocks_linked: int = 0
    #: Cumulative confirmed transaction payload bytes.
    confirmed_bytes: int = 0
    #: Cumulative confirmed transaction count.
    confirmed_transactions: int = 0
    #: Per-proposed-block total sizes (used to report batch sizes like S6.2).
    proposed_block_sizes: list[int] = field(default_factory=list)

    def throughput(self, duration: float, warmup: float = 0.0) -> float:
        """Confirmed payload bytes per second between ``warmup`` and ``duration``.

        Excluding a warmup window removes the start-up transient (the first
        epochs deliver nothing while dispersal and agreement ramp up), which
        matters for the short simulated runs used by the benchmarks.
        """
        if duration <= warmup:
            raise ValueError("duration must exceed warmup")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        confirmed_at_warmup = 0
        for time, cumulative in self.timeline:
            if time > warmup:
                break
            confirmed_at_warmup = cumulative
        return (self.confirmed_bytes - confirmed_at_warmup) / (duration - warmup)

    def latency_summary(self, local_only: bool = True) -> Summary | None:
        """Latency percentiles, or None if no samples were collected.

        Over locally generated transactions only (the paper's default latency
        metric, Appendix A.1) or, with ``local_only=False``, over every
        delivered transaction — in delivery order either way.
        """
        samples = []
        for delivered_at, batch in self.latency_chunks:
            created_at = (
                batch.created_at_from(self.node_id) if local_only else batch.created_at
            )
            if len(created_at):
                samples.append(delivered_at - created_at)
        if not samples:
            return None
        return summarise(np.concatenate(samples))


class MetricsCollector(SnapshotState):
    """Collects delivery and proposal events from every node of one run."""

    _SNAPSHOT_FIELDS = ("num_nodes", "per_node")

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.per_node = [NodeMetrics(node_id=i) for i in range(num_nodes)]

    # The two callbacks below match the ``on_deliver`` / ``on_propose`` hooks
    # of :class:`repro.core.node_base.BFTNodeBase`.

    def record_proposal(self, node_id: int, block: Block, now: float) -> None:
        """Record that ``node_id`` proposed ``block`` at virtual time ``now``."""
        metrics = self.per_node[node_id]
        metrics.blocks_proposed += 1
        metrics.bytes_proposed += block.payload_bytes
        metrics.proposed_block_sizes.append(block.size)

    def record_delivery(self, node_id: int, entry: DeliveredBlock) -> None:
        """Record that ``node_id`` delivered ``entry``."""
        metrics = self.per_node[node_id]
        metrics.blocks_delivered += 1
        if entry.via_linking:
            metrics.blocks_linked += 1
        metrics.confirmed_bytes += entry.payload_bytes
        metrics.confirmed_transactions += entry.num_transactions
        metrics.timeline.append((entry.delivered_at, metrics.confirmed_bytes))
        if not entry.block.is_empty:
            metrics.latency_chunks.append((entry.delivered_at, entry.block.tx_batch))

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    def throughputs(self, duration: float, warmup: float = 0.0) -> list[float]:
        """Per-node confirmed payload bytes per second."""
        return [metrics.throughput(duration, warmup) for metrics in self.per_node]

    def mean_throughput(self, duration: float, warmup: float = 0.0) -> float:
        """Average per-node throughput (the headline number of Fig. 8)."""
        values = self.throughputs(duration, warmup)
        return sum(values) / len(values)

    def total_confirmed_bytes(self) -> int:
        return sum(metrics.confirmed_bytes for metrics in self.per_node)

    def latency_summaries(self, local_only: bool = True) -> list[Summary | None]:
        return [metrics.latency_summary(local_only) for metrics in self.per_node]

    def timelines(self) -> list[list[tuple[float, int]]]:
        """Per-node cumulative confirmed-bytes timelines (Fig. 9)."""
        return [list(metrics.timeline) for metrics in self.per_node]
