"""Tests for the mempool and the Nagle-style proposal rate control.

The cut and requeue semantics are pinned against :class:`ReferenceMempool`,
the deque-of-records mempool this codebase used before transactions became
columns: it is kept here, in the test file, as the oracle.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import Transaction
from repro.core.mempool import ColumnarMempool, Mempool
from repro.core.txbatch import TxBatch


def tx(tx_id, size=100, origin=0):
    return Transaction(tx_id=tx_id, origin=origin, created_at=0.0, size=size)


def batch_of(*txs):
    return TxBatch.from_transactions(txs)


def ids(batch):
    return batch.tx_ids.tolist()


class ReferenceMempool:
    """One deque entry per transaction, one ``popleft`` per transaction cut."""

    def __init__(self):
        self.queue = deque()
        self.pending_bytes = 0
        self.last_proposal_time = float("-inf")
        self.total_submitted = 0
        self.total_proposed = 0

    @property
    def pending_count(self):
        return len(self.queue)

    def submit(self, tx):
        self.queue.append(tx)
        self.pending_bytes += tx.size
        self.total_submitted += 1

    def requeue_front(self, txs):
        for tx in reversed(list(txs)):
            self.queue.appendleft(tx)
            self.pending_bytes += tx.size

    def take_batch(self, max_bytes, now):
        batch = []
        batch_bytes = 0
        while self.queue:
            tx = self.queue[0]
            if batch and batch_bytes + tx.size > max_bytes:
                break
            self.queue.popleft()
            self.pending_bytes -= tx.size
            batch.append(tx)
            batch_bytes += tx.size
            if batch_bytes >= max_bytes:
                break
        self.last_proposal_time = now
        self.total_proposed += len(batch)
        return batch


class TestSubmission:
    def test_byte_and_count_accounting(self):
        pool = Mempool()
        pool.submit(tx(1, 100))
        pool.submit_many([tx(2, 50), tx(3, 25)])
        pool.submit_batch(batch_of(tx(4, 10), tx(5, 15)))
        assert pool.pending_count == 5
        assert pool.pending_bytes == 200
        assert pool.total_submitted == 5
        assert not pool.is_empty

    def test_submission_styles_keep_fifo_order(self):
        pool = Mempool()
        pool.submit(tx(1))
        pool.submit_batch(batch_of(tx(2), tx(3)))
        pool.submit_many([tx(4), tx(5)])
        assert ids(pool.take_batch(10_000, now=0.0)) == [1, 2, 3, 4, 5]

    def test_requeue_front_preserves_order(self):
        pool = Mempool()
        pool.submit(tx(3))
        pool.requeue_front(batch_of(tx(1), tx(2)))
        assert ids(pool.take_batch(10_000, now=0.0)) == [1, 2, 3]

    def test_requeue_front_onto_a_partially_drained_head(self):
        pool = Mempool()
        pool.submit_batch(batch_of(tx(3), tx(4)))
        head = pool.take_batch(100, now=0.0)  # drains id 3, head offset now 1
        pool.requeue_front(head)
        assert ids(pool.take_batch(10_000, now=0.1)) == [3, 4]

    def test_columnar_spelling_is_the_same_class(self):
        assert ColumnarMempool is Mempool


class TestNagleRule:
    def test_ready_when_enough_bytes(self):
        pool = Mempool(nagle_delay=10.0, nagle_size=150)
        pool.take_batch(10_000, now=0.0)  # sets the last-proposal clock
        pool.submit(tx(1, 200))
        assert pool.ready_to_propose(now=0.001)

    def test_not_ready_before_delay_with_few_bytes(self):
        pool = Mempool(nagle_delay=0.1, nagle_size=150_000)
        pool.take_batch(10_000, now=0.0)
        pool.submit(tx(1, 10))
        assert not pool.ready_to_propose(now=0.05)
        assert pool.ready_to_propose(now=0.1)

    def test_time_until_ready(self):
        pool = Mempool(nagle_delay=0.1, nagle_size=150_000)
        pool.take_batch(10_000, now=1.0)
        assert pool.time_until_ready(now=1.04) == pytest.approx(0.06)
        pool.submit(tx(1, 200_000))
        assert pool.time_until_ready(now=1.04) == 0.0

    def test_initially_ready(self):
        pool = Mempool(nagle_delay=5.0, nagle_size=10**9)
        assert pool.ready_to_propose(now=0.0)


class TestTakeBatch:
    def test_respects_byte_budget(self):
        pool = Mempool()
        for i in range(5):
            pool.submit(tx(i, 100))
        # The batch never exceeds the byte budget (250 B fits two 100 B txs).
        assert ids(pool.take_batch(250, now=0.0)) == [0, 1]
        assert pool.pending_count == 3
        assert pool.pending_bytes == 300
        # The remainder drains on the next call, across the head offset.
        assert ids(pool.take_batch(10_000, now=0.1)) == [2, 3, 4]
        assert pool.is_empty

    def test_single_oversized_transaction_is_taken(self):
        pool = Mempool()
        pool.submit(tx(1, 10_000))
        assert len(pool.take_batch(100, now=0.0)) == 1
        assert pool.is_empty

    def test_empty_pool(self):
        pool = Mempool()
        assert len(pool.take_batch(100, now=0.0)) == 0
        assert pool.last_proposal_time == 0.0

    def test_mark_proposal_without_taking(self):
        pool = Mempool(nagle_delay=0.5)
        pool.mark_proposal(now=2.0)
        assert not pool.ready_to_propose(now=2.1)
        assert pool.ready_to_propose(now=2.5)

    def test_total_proposed_counter(self):
        pool = Mempool()
        pool.submit_many([tx(i, 10) for i in range(4)])
        pool.take_batch(30, now=0.0)
        assert pool.total_proposed == 3

    def test_a_cut_across_origins_keeps_every_origin_and_payload(self):
        pool = Mempool()
        sent = [
            Transaction(1, 0, 0.5, 3, b"abc"),
            Transaction(2, 1, 0.6, 40),
            Transaction(3, 1, 0.7, 2, b"de"),
        ]
        pool.submit(sent[0])
        pool.submit_batch(batch_of(sent[1]))
        pool.submit(sent[2])
        taken = pool.take_batch(10_000, now=1.0)
        assert taken.origin is None and taken.origins.tolist() == [0, 1, 1]
        assert taken.as_transactions() == sent


# ----------------------------------------------------------------------
# Reference-model property: any program of mempool operations
# ----------------------------------------------------------------------

_sizes = st.integers(min_value=1, max_value=5_000)
_origins = st.integers(min_value=0, max_value=2)
# (size, origin, carries payload bytes)
_tx_shape = st.tuples(_sizes, _origins, st.booleans())
_run = st.lists(_tx_shape, min_size=1, max_size=12)

_operation = st.one_of(
    st.tuples(st.just("submit"), _tx_shape),
    st.tuples(st.just("submit_many"), _run),
    st.tuples(st.just("submit_batch"), _run),
    # A drain's budget is either free, or "exactly the next k transactions".
    st.tuples(st.just("take"), st.integers(min_value=1, max_value=20_000)),
    st.tuples(st.just("take_exactly"), st.integers(min_value=1, max_value=6)),
    st.tuples(st.just("take_and_requeue"), st.integers(min_value=1, max_value=20_000)),
)


class _Driver:
    """Runs one operation on the mempool and on the reference, then compares."""

    def __init__(self):
        self.pool = Mempool()
        self.reference = ReferenceMempool()
        self.next_id = 1
        self.now = 0.0

    def make(self, shape):
        size, origin, with_payload = shape
        data = bytes([self.next_id % 251]) * size if with_payload else b""
        made = Transaction(self.next_id, origin, self.now, size, data)
        self.next_id += 1
        return made

    def take(self, budget):
        self.now += 0.1
        expected = self.reference.take_batch(budget, now=self.now)
        taken = self.pool.take_batch(budget, now=self.now)
        assert taken.as_transactions() == expected
        assert taken.total_bytes == sum(t.size for t in expected)
        return taken, expected

    def apply(self, op, arg):
        if op == "submit":
            made = self.make(arg)
            self.pool.submit(made)
            self.reference.submit(made)
        elif op == "submit_many":
            made = [self.make(shape) for shape in arg]
            self.pool.submit_many(iter(made))
            for one in made:
                self.reference.submit(one)
        elif op == "submit_batch":
            made = [self.make(shape) for shape in arg]
            self.pool.submit_batch(TxBatch.from_transactions(made))
            for one in made:
                self.reference.submit(one)
        elif op == "take":
            self.take(arg)
        elif op == "take_exactly":
            head = list(self.reference.queue)[:arg]
            self.take(max(1, sum(t.size for t in head)))
        else:
            taken, expected = self.take(arg)
            self.pool.requeue_front(taken)
            self.reference.requeue_front(expected)
        for name in (
            "pending_bytes",
            "pending_count",
            "total_submitted",
            "total_proposed",
            "last_proposal_time",
        ):
            assert getattr(self.pool, name) == getattr(self.reference, name), name
        assert self.pool.is_empty == (not self.reference.queue)


@given(program=st.lists(_operation, min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_any_program_matches_the_reference_mempool(program):
    """Same transactions in the same order and the same counters after every step.

    The programs mix per-record and batch submission, origins and
    payload-carrying transactions, and drain with arbitrary budgets, budgets
    met exactly, and drains that are requeued — so heads end up oversized,
    partially drained, and requeued onto a partially drained head.
    """
    driver = _Driver()
    for op, arg in program:
        driver.apply(op, arg)
    # Whatever is left drains completely, in submission order.
    driver.take(10**9)
    assert driver.pool.is_empty


def test_directed_program_hits_the_named_corners():
    """The corners the property is meant to reach, spelled out once."""
    driver = _Driver()
    driver.apply("submit", (9_000, 0, False))  # oversized head
    driver.apply("submit_many", [(100, 1, True), (100, 2, False), (100, 1, True), (100, 0, False)])
    driver.apply("take", 50)  # takes the oversized head alone
    driver.apply("take_exactly", 2)  # budget met exactly, head left part-drained
    driver.apply("submit_batch", [(300, 0, False), (300, 0, True)])
    driver.apply("take_and_requeue", 150)  # requeue onto a part-drained head
    driver.apply("submit", (10, 2, True))  # queued behind the requeued batches
    driver.apply("take", 10**6)
    assert driver.pool.is_empty and driver.pool.total_proposed == 9


def test_the_queue_holds_one_batch_per_submission():
    """``submit`` and ``submit_many`` each queue one batch; nothing is staged."""
    pool = Mempool()
    for i in range(500):
        pool.submit(tx(i))
    pool.submit_many(tx(i) for i in range(500, 1_000))
    assert len(pool._queue) == 501
    assert pool.pending_count == 1_000
    taken = pool.take_batch(10**9, now=0.0)
    np.testing.assert_array_equal(taken.tx_ids, np.arange(1_000, dtype=np.uint64))
