"""The totally ordered log of delivered blocks.

Every correct node ends up with the same ledger (the Agreement and Total
Order properties of S2.1).  The ledger records, for each delivered block,
whether it was committed directly by binary agreement or later through
inter-node linking, plus the virtual time of delivery — which is what the
throughput and latency metrics are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.snapshot import SnapshotState
from repro.core.block import Block


@dataclass(frozen=True)
class DeliveredBlock:
    """One entry of the ledger."""

    epoch: int
    proposer: int
    block: Block
    delivered_at: float
    #: True when the block entered the ledger through inter-node linking
    #: rather than through its own epoch's binary agreement (S4.3).
    via_linking: bool = False
    #: Epoch during whose retrieval phase the block was delivered (equals
    #: ``epoch`` for BA-committed blocks, and a later epoch for linked ones).
    delivered_in_epoch: int = 0

    @property
    def payload_bytes(self) -> int:
        """Client transaction bytes carried by this block."""
        return self.block.payload_bytes

    @property
    def num_transactions(self) -> int:
        return self.block.num_transactions


@dataclass
class Ledger(SnapshotState):
    """Append-only log of delivered blocks for one node."""

    _SNAPSHOT_FIELDS = ("entries", "_delivered_slots")

    entries: list[DeliveredBlock] = field(default_factory=list)
    _delivered_slots: set[tuple[int, int]] = field(default_factory=set)

    def append(self, entry: DeliveredBlock) -> None:
        """Append one delivered block; duplicate (epoch, proposer) slots are rejected."""
        slot = (entry.epoch, entry.proposer)
        if slot in self._delivered_slots:
            raise ValueError(f"block for slot {slot} delivered twice")
        self._delivered_slots.add(slot)
        self.entries.append(entry)

    def has_delivered(self, epoch: int, proposer: int) -> bool:
        """True if the block proposed by ``proposer`` in ``epoch`` is in the log."""
        return (epoch, proposer) in self._delivered_slots

    def __contains__(self, slot: tuple[int, int]) -> bool:
        """``(epoch, proposer) in ledger``: :meth:`has_delivered` of one slot."""
        return slot in self._delivered_slots

    @property
    def num_blocks(self) -> int:
        return len(self.entries)

    @property
    def num_transactions(self) -> int:
        return sum(entry.num_transactions for entry in self.entries)

    @property
    def total_payload_bytes(self) -> int:
        """Total client transaction bytes confirmed by this node."""
        return sum(entry.payload_bytes for entry in self.entries)

    def sequence(self) -> list[tuple[int, int]]:
        """The delivery order as a list of ``(epoch, proposer)`` slots.

        Two correct nodes must produce identical sequences (Theorem D.7);
        the integration tests compare these directly.
        """
        return [(entry.epoch, entry.proposer) for entry in self.entries]

    def digest_sequence(self) -> list[bytes]:
        """The delivery order as block digests (stronger equality check)."""
        return [entry.block.digest() for entry in self.entries]

    def transactions(self) -> list:
        """All delivered transactions in delivery order.

        Builds one :class:`Transaction` record per row of every delivered
        block; callers that only need counts/bytes at scale should use
        :attr:`num_transactions` / :attr:`total_payload_bytes` instead.
        """
        txs = []
        for entry in self.entries:
            txs.extend(entry.block.transactions)
        return txs
