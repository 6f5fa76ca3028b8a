"""Constant batch columns: zero-stride views that behave like the arrays they replace.

A :meth:`TxBatch.uniform` batch stores its sizes — and, given one scalar
stamp, its creation times — as one read-only zero-stride view instead of n
copies, and answers the mempool's byte-budget cut by arithmetic.  Every test
here builds the same rows twice, once that way and once as materialised
arrays, and asserts that nothing a caller can observe tells them apart:
slicing, concatenation, mempool cuts (the min-1 rule and ``requeue_front``
included), the wire and digest bytes, latency reductions and a pickle round
trip.  The checkpoint half checks that restored columns are read-only again,
that a constant column comes back as one value rather than n, and that a
checkpoint whose columns are plain arrays still loads.
"""

from __future__ import annotations

import gc
import pickle
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.snapshot import SnapshotState
from repro.core.mempool import Mempool
from repro.core.txbatch import TxBatch
from repro.experiments import get_scenario
from repro.experiments.engine import run_scenario
from repro.experiments.options import ExecutionOptions
from repro.metrics.collector import NodeMetrics
from repro.sim.snapshot import load_checkpoint, read_snapshot_header

_COLUMNS = ("tx_ids", "created_at", "sizes", "origins")

#: One uniform run of rows: origin, row count, stamp, wire size.
_run = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.integers(min_value=0, max_value=300),
)


def _pairs(runs):
    """Each run built as constant columns and as materialised arrays."""
    pairs = []
    next_id = 1
    for origin, count, stamp, size in runs:
        tx_ids = np.arange(next_id, next_id + count, dtype=np.uint64)
        next_id += count
        constant = TxBatch.uniform(origin, tx_ids, stamp, size)
        materialised = TxBatch(
            origin,
            tx_ids.copy(),
            np.full(count, stamp, dtype=np.float64),
            np.full(count, size, dtype=np.int64),
        )
        if count:
            assert constant.sizes.strides == constant.created_at.strides == (0,)
            assert materialised.sizes.strides == (8,)
        pairs.append((constant, materialised))
    return pairs


def _rows(batch):
    """Everything a caller can read off a batch, as plain Python values."""
    return (
        batch.origin,
        len(batch),
        batch.total_bytes,
        *(None if (column := getattr(batch, name)) is None else column.tolist() for name in _COLUMNS),
        batch.payloads,
    )


@given(runs=st.lists(_run, min_size=1, max_size=4), data=st.data())
@settings(max_examples=100, deadline=None)
def test_slice_and_concat_agree(runs, data):
    pairs = _pairs(runs)
    for constant, materialised in pairs:
        start = data.draw(st.integers(min_value=0, max_value=len(constant)))
        stop = data.draw(st.integers(min_value=start, max_value=len(constant)))
        assert _rows(constant.slice(start, stop)) == _rows(materialised.slice(start, stop))
    joined = [TxBatch.concat(side) for side in zip(*pairs)]
    assert _rows(joined[0]) == _rows(joined[1])
    start = data.draw(st.integers(min_value=0, max_value=len(joined[0])))
    assert _rows(joined[0].slice(start, len(joined[0]))) == _rows(
        joined[1].slice(start, len(joined[1]))
    )


@given(runs=st.lists(_run, min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_the_arithmetic_cut_is_the_prefix_sum_search(runs):
    """Below, at and across every row boundary, and for negative budgets."""
    for constant, materialised in _pairs(runs):
        cumsum = np.cumsum(materialised.sizes)
        edges = [-1 - int(constant.total_bytes), -1, 0]
        edges += [int(value) + step for value in cumsum for step in (-1, 0, 1)]
        for budget in edges:
            expected = int(np.searchsorted(cumsum, budget, side="right"))
            assert constant.rows_within(budget) == materialised.rows_within(budget) == expected
        for row in range(len(constant) + 1):
            expected = int(cumsum[row - 1]) if row else 0
            assert constant.bytes_before(row) == materialised.bytes_before(row) == expected


def test_a_zero_size_row_always_fits_a_non_negative_budget():
    batch = TxBatch.uniform(0, np.arange(5, dtype=np.uint64), 0.0, 0)
    assert [batch.rows_within(budget) for budget in (-1, 0, 7)] == [0, 5, 5]


_operation = st.one_of(
    st.tuples(st.just("submit"), _run),
    st.tuples(st.just("take"), st.integers(min_value=-5, max_value=2_000)),
    st.tuples(st.just("take_and_requeue"), st.integers(min_value=-5, max_value=2_000)),
)


@given(program=st.lists(_operation, min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_mempool_cuts_agree(program):
    """The same cut points, min-1 rule and requeues, whichever columns are queued."""
    pools = (Mempool(), Mempool())
    now = 0.0
    for op, arg in program:
        if op == "submit":
            for pool, batch in zip(pools, _pairs([arg])[0]):
                pool.submit_batch(batch)
            continue
        now += 0.1
        taken = [pool.take_batch(arg, now) for pool in pools]
        assert _rows(taken[0]) == _rows(taken[1])
        if op == "take_and_requeue":
            for pool, batch in zip(pools, taken):
                pool.requeue_front(batch)
        assert pools[0].pending_count == pools[1].pending_count
        assert pools[0].pending_bytes == pools[1].pending_bytes
    drained = [pool.take_batch(10**9, now + 1.0) for pool in pools]
    assert _rows(drained[0]) == _rows(drained[1])
    assert all(pool.is_empty for pool in pools)


@given(runs=st.lists(_run, min_size=1, max_size=4), delivered_at=st.floats(100.0, 200.0))
@settings(max_examples=60, deadline=None)
def test_wire_digest_and_latency_agree(runs, delivered_at):
    pairs = _pairs(runs)
    pairs.append(tuple(TxBatch.concat(side) for side in zip(*pairs)))
    for constant, materialised in pairs:
        assert constant.serialize() == materialised.serialize()
        assert constant.digest_material() == materialised.digest_material()
        for origin in range(4):
            assert (
                constant.created_at_from(origin).tolist()
                == materialised.created_at_from(origin).tolist()
            )
    for node_id in range(4):
        summaries = []
        for side in zip(*pairs):
            metrics = NodeMetrics(node_id=node_id)
            metrics.latency_chunks = [(delivered_at, batch) for batch in side]
            summaries.append(
                (metrics.latency_summary(), metrics.latency_summary(local_only=False))
            )
        assert summaries[0] == summaries[1]


@given(runs=st.lists(_run, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_a_pickle_round_trip_agrees(runs):
    pairs = _pairs(runs)
    pairs.append(tuple(TxBatch.concat(side) for side in zip(*pairs)))
    for constant, materialised in pairs:
        restored = pickle.loads(pickle.dumps(constant))
        assert _rows(restored) == _rows(materialised)
        assert _rows(pickle.loads(pickle.dumps(materialised))) == _rows(materialised)
        if len(constant) and constant.sizes.strides == (0,):
            assert restored.sizes.strides == (0,)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _assert_restored(batch: TxBatch) -> None:
    for name in _COLUMNS:
        column = getattr(batch, name)
        assert column is None or not column.flags.writeable, name


def test_a_restored_batch_is_read_only_and_a_constant_stays_one_value():
    uniform = TxBatch.uniform(2, np.arange(1_000, dtype=np.uint64), 1.5, 250)
    restored = pickle.loads(pickle.dumps(uniform))
    _assert_restored(restored)
    assert restored.sizes.strides == restored.created_at.strides == (0,)
    assert len(pickle.dumps(uniform)) < 1_000 * 8 + 1_000  # one id column, no sizes or stamps
    mixed = TxBatch.concat([uniform, TxBatch.uniform(3, np.arange(2, dtype=np.uint64), 0.0, 9)])
    _assert_restored(pickle.loads(pickle.dumps(mixed)))


def test_a_checkpoint_with_array_columns_still_loads():
    """Files written while every column was an array restore read-only."""
    uniform = TxBatch.uniform(2, np.arange(6, dtype=np.uint64), 1.5, 250)
    state = SnapshotState.snapshot_state(uniform)
    for name in ("tx_ids", "created_at", "sizes"):
        state[name] = np.array(state[name])
    restored = TxBatch.__new__(TxBatch)
    restored.__setstate__(pickle.loads(pickle.dumps(state)))
    _assert_restored(restored)
    assert _rows(restored) == _rows(uniform)
    assert restored.rows_within(600) == 2 and restored.bytes_before(3) == 750


def _batches(roots):
    """Every :class:`TxBatch` reachable from ``roots`` through data."""
    found, seen, stack = [], set(), list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if type(obj) is TxBatch:
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_a_crash_resumed_saturating_run_holds_read_only_constant_columns(tmp_path):
    spec = replace(
        get_scenario("trace-replay-wan").base, protocol="dl", duration=4.0, checkpoint_every=1.0
    )
    checkpoint = tmp_path / "point.ckpt"
    uninterrupted = run_scenario(spec, options=ExecutionOptions(checkpoint_path=checkpoint))
    assert read_snapshot_header(checkpoint)["virtual_time"] == 3.0

    restored = load_checkpoint(checkpoint)
    batches = [batch for batch in _batches(restored.nodes) if len(batch) > 1]
    assert batches
    for batch in batches:
        _assert_restored(batch)
    assert any(batch.sizes.strides == (0,) for batch in batches)

    resumed = run_scenario(spec, options=ExecutionOptions(resume_from=checkpoint))
    assert resumed.summary() == uninterrupted.summary()
