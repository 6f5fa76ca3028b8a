"""The transaction input queue with Nagle-style proposal rate control.

Clients submit transactions to their node's mempool (Fig. 5 of the paper).
At the beginning of every epoch the node takes transactions from the head of
the queue to form a block.  The implementation throttles proposals the way
the paper's prototype does (S5): a new block is proposed only when either a
minimum delay has passed since the last proposal or a minimum amount of
data has accumulated.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.common.snapshot import SnapshotState
from repro.core.block import Transaction
from repro.core.txbatch import TxBatch


#: Entries one staged transaction takes in ``Mempool._staged``.
_ROW_WIDTH = 5


class Mempool(SnapshotState):
    """FIFO queue of pending transactions, held as :class:`TxBatch` runs.

    ``submit`` copies one :class:`Transaction` record's fields onto a staging
    run in O(1) and keeps no reference to the record; the run is sealed into
    a columnar batch the next time the queue needs it (``take_batch``,
    ``submit_batch``).  ``submit_batch`` queues a ready-made batch as it is.
    ``take_batch`` cuts greedily by byte budget — always at least one
    transaction, stopping once the budget is reached — and returns one
    :class:`TxBatch` whose columns are zero-copy views into the queued
    batches when the cut falls inside a single run, so draining a million
    pending transactions into blocks costs a handful of ``searchsorted``
    calls rather than a million ``popleft``s.
    """

    _SNAPSHOT_FIELDS = (
        "nagle_delay",
        "nagle_size",
        "_queue",
        "_staged",
        "_head_offset",
        "_head_offset_bytes",
        "_pending_count",
        "_pending_bytes",
        "_last_proposal_time",
        "total_submitted",
        "total_proposed",
    )

    def __init__(self, nagle_delay: float = 0.1, nagle_size: int = 150_000):
        self.nagle_delay = nagle_delay
        self.nagle_size = nagle_size
        self._queue: deque[TxBatch] = deque()
        #: The tail of the queue: transactions submitted one at a time since
        #: the last seal, flattened row after row — ``tx_id, origin,
        #: created_at, size, data, tx_id, ...`` in the argument order of
        #: :meth:`TxBatch.from_columns` — so a submission is one list
        #: extension and a column is a strided slice.
        self._staged: list = []
        self._head_offset = 0  # txs already drained from the head batch
        self._head_offset_bytes = 0  # their bytes
        self._pending_count = 0
        self._pending_bytes = 0
        self._last_proposal_time = float("-inf")
        self.total_submitted = 0
        self.total_proposed = 0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, tx: Transaction) -> None:
        """Append one transaction to the tail of the queue."""
        self._staged += (tx.tx_id, tx.origin, tx.created_at, tx.size, tx.data)
        self._pending_count += 1
        self._pending_bytes += tx.size
        self.total_submitted += 1

    def submit_many(self, txs: Iterable[Transaction]) -> None:
        """Append a run of transactions."""
        for tx in txs:
            self.submit(tx)

    def submit_batch(self, batch: TxBatch) -> None:
        """Append a columnar batch to the tail of the queue."""
        if not len(batch):
            return
        self._seal_staged()
        self._queue.append(batch)
        self._pending_count += batch.count
        self._pending_bytes += batch.total_bytes
        self.total_submitted += batch.count

    def requeue_front(self, batch: TxBatch) -> None:
        """Put transactions back at the *head* of the queue.

        HoneyBadger re-proposes the transactions of a dropped block in the
        next epoch (S4.2); putting them at the front preserves their
        submission order relative to newer transactions.
        """
        if not len(batch):
            return
        # Seal the partially-drained head first so order stays intact.
        self._consolidate_head()
        self._queue.appendleft(batch)
        self._pending_count += batch.count
        self._pending_bytes += batch.total_bytes

    def _consolidate_head(self) -> None:
        """Replace a partially-drained head batch with its undrained tail."""
        if self._head_offset and self._queue:
            head = self._queue.popleft()
            self._queue.appendleft(head.slice(self._head_offset, len(head)))
        self._head_offset = 0
        self._head_offset_bytes = 0

    def _seal_staged(self) -> None:
        """Turn the staged transactions into one queued batch."""
        rows = self._staged
        if rows:
            columns = [rows[field::_ROW_WIDTH] for field in range(_ROW_WIDTH)]
            self._queue.append(TxBatch.from_columns(*columns))
            self._staged = []

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Number of transactions waiting to be proposed."""
        return self._pending_count

    @property
    def pending_bytes(self) -> int:
        """Total payload bytes waiting to be proposed."""
        return self._pending_bytes

    @property
    def is_empty(self) -> bool:
        return self._pending_count == 0

    @property
    def last_proposal_time(self) -> float:
        """Virtual time of the most recent :meth:`take_batch` call."""
        return self._last_proposal_time

    # ------------------------------------------------------------------
    # Proposal rate control (Nagle's algorithm, S5)
    # ------------------------------------------------------------------

    def ready_to_propose(self, now: float) -> bool:
        """True when the Nagle rule allows proposing a new block at ``now``.

        A node proposes when (i) ``nagle_delay`` has passed since the last
        proposal, or (ii) at least ``nagle_size`` bytes have accumulated.
        """
        if self._pending_bytes >= self.nagle_size:
            return True
        return now - self._last_proposal_time >= self.nagle_delay

    def time_until_ready(self, now: float) -> float:
        """Seconds until the time trigger of the Nagle rule fires (0 if ready)."""
        if self.ready_to_propose(now):
            return 0.0
        return max(0.0, self._last_proposal_time + self.nagle_delay - now)

    def take_batch(self, max_bytes: int, now: float) -> TxBatch:
        """Remove up to ``max_bytes`` of transactions from the head as one batch.

        Transactions are taken greedily in FIFO order; the first one is
        always taken even when it alone exceeds ``max_bytes`` (a single
        oversized transaction must not wedge the queue), and the drain stops
        once the accumulated bytes reach ``max_bytes``.  The cut point is
        asked of each queued batch (:meth:`TxBatch.rows_within`,
        :meth:`TxBatch.bytes_before`).
        """
        self._seal_staged()
        taken: list[TxBatch] = []
        taken_bytes = 0
        while self._queue:
            head = self._queue[0]
            # Longest prefix of the undrained head whose cumulative bytes
            # (plus what this call already took) stays within the budget.
            cut = head.rows_within(max_bytes - taken_bytes + self._head_offset_bytes)
            if cut <= self._head_offset:
                if not taken:
                    # Min-1 rule: a single oversized transaction must not
                    # wedge the queue.
                    cut = self._head_offset + 1
                else:
                    break
            piece = head.slice(self._head_offset, cut)
            taken.append(piece)
            taken_bytes += piece.total_bytes
            if cut >= len(head):
                self._queue.popleft()
                self._head_offset = 0
                self._head_offset_bytes = 0
            else:
                self._head_offset = cut
                self._head_offset_bytes = head.bytes_before(cut)
            self._pending_count -= piece.count
            self._pending_bytes -= piece.total_bytes
            if taken_bytes >= max_bytes:
                break
        self._last_proposal_time = now
        batch = TxBatch.concat(taken) if taken else TxBatch.empty(0)
        self.total_proposed += batch.count
        return batch

    def mark_proposal(self, now: float) -> None:
        """Record a proposal that took no transactions (an empty block)."""
        self._last_proposal_time = now


#: Spelling kept for the pinned ``benchmarks/ledger`` files, which import it;
#: there is one mempool and this is it.
ColumnarMempool = Mempool
