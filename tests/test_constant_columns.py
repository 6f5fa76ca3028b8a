"""O(1) batch columns: zero-stride views and id ranges that behave like the arrays they replace.

A :meth:`TxBatch.uniform` batch stores its sizes — and, given one scalar
stamp, its creation times — as one read-only zero-stride view instead of n
copies, and answers the mempool's byte-budget cut by arithmetic; a
saturating client's ids are a ``range``.  Every test here builds the same
rows twice, once that way and once as materialised arrays, and asserts that
nothing a caller can observe tells them apart: slicing (past either end
included), concatenation, mempool cuts (the min-1 rule and ``requeue_front``
included), the wire and digest bytes, the records, latency reductions and a
pickle round trip.  An id ``range`` stays one through every slice and
through a join with the batch that continues it, and every block of a
saturating run carries one.  The checkpoint half checks that restored
columns are read-only again, that a constant column comes back as one value
rather than n, and that a checkpoint whose columns are plain arrays still
loads.  The latency summary's one-buffer reduction is checked against the
sort-based definition.
"""

from __future__ import annotations

import gc
import pickle
from dataclasses import replace
from itertools import chain

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.snapshot import SnapshotState
from repro.core.mempool import Mempool
from repro.core.txbatch import TxBatch
from repro.experiments import apply_overrides, get_scenario
from repro.experiments.engine import run_scenario
from repro.experiments.options import ExecutionOptions
from repro.metrics.collector import NodeMetrics
from repro.metrics.stats import _ACCUMULATE_CHUNK, Summary, percentile, summarise
from repro.sim.snapshot import load_checkpoint, read_snapshot_header
from tests.conftest import build_scenario_state

_COLUMNS = ("tx_ids", "created_at", "sizes", "origins")

#: One uniform run of rows: origin, row count, stamp, wire size.
_run = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.integers(min_value=0, max_value=300),
)


def _pairs(runs):
    """Each run built as O(1) columns (an id ``range``, constant sizes and
    stamp) and as materialised arrays; the ids of consecutive runs continue."""
    pairs = []
    next_id = 1
    for origin, count, stamp, size in runs:
        tx_ids = range(next_id, next_id + count)
        next_id += count
        constant = TxBatch.uniform(origin, tx_ids, stamp, size)
        materialised = TxBatch(
            origin,
            np.arange(tx_ids.start, tx_ids.stop, dtype=np.uint64),
            np.full(count, stamp, dtype=np.float64),
            np.full(count, size, dtype=np.int64),
        )
        assert isinstance(constant.tx_ids, range)
        if count:
            assert constant.sizes.strides == constant.created_at.strides == (0,)
            assert materialised.sizes.strides == (8,)
        pairs.append((constant, materialised))
    return pairs


def _values(column):
    """A column as plain Python values (an id ``range`` as its ints)."""
    if column is None:
        return None
    return list(column) if isinstance(column, range) else column.tolist()


def _rows(batch):
    """Everything a caller can read off a batch, as plain Python values."""
    return (
        batch.origin,
        len(batch),
        batch.total_bytes,
        *(_values(getattr(batch, name)) for name in _COLUMNS),
        batch.payloads,
    )


def _bound(length):
    """A slice bound anywhere from before the first row to past the last."""
    return st.integers(min_value=-length - 3, max_value=length + 3)


def _expected_slice(materialised, start, stop):
    """Rows, bytes and ids of ``[start:stop]`` as Python slicing cuts it."""
    sizes = materialised.sizes.tolist()[start:stop]
    return len(sizes), sum(sizes), materialised.tx_ids.tolist()[start:stop]


@given(runs=st.lists(_run, min_size=1, max_size=4), data=st.data())
@settings(max_examples=100, deadline=None)
def test_slice_and_concat_agree(runs, data):
    pairs = _pairs(runs)
    for constant, materialised in pairs:
        start, stop = data.draw(_bound(len(constant))), data.draw(_bound(len(constant)))
        pieces = constant.slice(start, stop), materialised.slice(start, stop)
        assert _rows(pieces[0]) == _rows(pieces[1])
        assert (len(pieces[0]), pieces[0].total_bytes, list(pieces[0].tx_ids)) == (
            _expected_slice(materialised, start, stop)
        )
        assert isinstance(pieces[0].tx_ids, range)
    joined = [TxBatch.concat(side) for side in zip(*pairs)]
    assert _rows(joined[0]) == _rows(joined[1])
    if len(joined[0]):
        assert isinstance(joined[0].tx_ids, range)  # every run continues the one before
    start = data.draw(_bound(len(joined[0])))
    assert _rows(joined[0].slice(start, len(joined[0]))) == _rows(
        joined[1].slice(start, len(joined[1]))
    )


def test_a_slice_past_the_end_keeps_the_rows_it_has():
    """Five 10-byte rows: ``[2:9]`` is three rows of 30 bytes, whichever the columns."""
    uniform = TxBatch.uniform(0, range(5), 0.0, 10)
    arrays = TxBatch(0, np.arange(5, dtype=np.uint64), np.zeros(5), np.full(5, 10, dtype=np.int64))
    for batch in (uniform, arrays):
        piece = batch.slice(2, 9)
        assert (len(piece), piece.total_bytes, list(piece.tx_ids)) == (3, 30, [2, 3, 4])
        assert batch.slice(-2, 99).total_bytes == 20
        assert batch.slice(4, 1).total_bytes == len(batch.slice(4, 1)) == 0


#: One id run: gap after the run before (0: it continues), row count, step.
_id_run = st.tuples(
    st.sampled_from((0, 0, 0, 1, 5)),
    st.integers(min_value=0, max_value=6),
    st.sampled_from((1, 3, 3)),
)


@given(runs=st.lists(_id_run, min_size=1, max_size=5), data=st.data())
@settings(max_examples=150, deadline=None)
def test_range_and_array_ids_agree(runs, data):
    """Rows, slices, joins (a ``range`` exactly when the parts continue each
    other with one step), pickles, the digest, the wire and the records."""
    pairs, next_start, last_step = [], 7, None
    continuing = True
    for gap, count, step in runs:
        tx_ids = range(next_start + gap, next_start + gap + count * step, step)
        if count:
            if last_step is not None and (gap or step != last_step):
                continuing = False
            last_step = step
            next_start = tx_ids[-1] + step
        as_array = np.arange(tx_ids.start, tx_ids.stop, tx_ids.step, dtype=np.uint64)
        pairs.append(tuple(TxBatch.uniform(1, ids, 2.5, 4) for ids in (tx_ids, as_array)))
    pairs.append(tuple(TxBatch.concat(side) for side in zip(*pairs)))
    joined = pairs[-1][0]
    assert isinstance(joined.tx_ids, range) == (continuing and last_step is not None)
    for ranged, arrayed in pairs:
        start, stop = data.draw(_bound(len(ranged))), data.draw(_bound(len(ranged)))
        for a, b in ((ranged, arrayed), (ranged.slice(start, stop), arrayed.slice(start, stop))):
            assert _rows(a) == _rows(b)
            assert _rows(pickle.loads(pickle.dumps(a))) == _rows(b)
            assert a.digest_material() == b.digest_material()
            assert a.serialize() == b.serialize()
            assert a.as_transactions() == b.as_transactions()
            assert type(pickle.loads(pickle.dumps(a)).tx_ids) is type(a.tx_ids)
        assert isinstance(ranged.slice(start, stop).tx_ids, type(ranged.tx_ids))


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
        assert column is None or isinstance(column, range) or not column.flags.writeable, name


def test_a_restored_batch_is_read_only_and_a_constant_stays_one_value():
    uniform = TxBatch.uniform(2, np.arange(1_000, dtype=np.uint64), 1.5, 250)
    restored = pickle.loads(pickle.dumps(uniform))
    _assert_restored(restored)
    assert restored.sizes.strides == restored.created_at.strides == (0,)
    assert len(pickle.dumps(uniform)) < 1_000 * 8 + 1_000  # one id column, no sizes or stamps
    mixed = TxBatch.concat([uniform, TxBatch.uniform(3, np.arange(2, dtype=np.uint64), 0.0, 9)])
    _assert_restored(pickle.loads(pickle.dumps(mixed)))
    ranged = TxBatch.uniform(2, range(5, 5 + 10 * 1_000, 10), 1.5, 250)
    assert pickle.loads(pickle.dumps(ranged)).tx_ids == ranged.tx_ids
    assert len(pickle.dumps(ranged)) < 1_000  # no column of n values at all


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
    assert any(isinstance(batch.tx_ids, range) for batch in batches)

    resumed = run_scenario(spec, options=ExecutionOptions(resume_from=checkpoint))
    assert resumed.summary() == uninterrupted.summary()


# ---------------------------------------------------------------------------
# A saturating run's blocks
# ---------------------------------------------------------------------------


def test_every_block_a_saturating_straggler_run_delivers_holds_an_id_range():
    """``straggler-hetero``'s saturating clients number ``seq * N + node``, so
    each block a node cuts — across refills too — is one progression."""
    spec = apply_overrides(get_scenario("straggler-hetero").base, {"protocol": "dl", "duration": 4.0})
    state = build_scenario_state(spec)
    state.sim.run(until=spec.duration)
    blocks = [
        entry.block for node in state.nodes for entry in node.ledger.entries if not entry.block.is_empty
    ]
    assert len(blocks) > 10
    arrays = [block for block in blocks if not isinstance(block.tx_batch.tx_ids, range)]
    assert not arrays, f"{len(arrays)} of {len(blocks)} delivered blocks hold an id array"
    assert {block.tx_batch.tx_ids.step for block in blocks} == {len(state.nodes)}


# ---------------------------------------------------------------------------
# The latency summary
# ---------------------------------------------------------------------------


def _sort_based(values):
    """The definition :func:`summarise` is pinned to: the samples added one at
    a time in order, and every percentile read off one full sort."""
    total = values[0]
    for value in values[1:]:
        total += value
    return Summary(
        count=len(values),
        mean=total / len(values),
        **{f"p{q}": percentile(values, q) for q in (5, 50, 95, 99)},
    )


def _bits(summary):
    return [float(value).hex() for value in summary.as_dict().values()]


@given(
    size=st.integers(min_value=1, max_value=3 * _ACCUMULATE_CHUNK + 7),
    levels=st.sampled_from((1, 3, 50, None)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_summarise_is_the_sort_based_definition_and_leaves_its_input(size, levels, seed):
    """Bit for bit, over several accumulate chunks and with duplicate samples."""
    rng = np.random.default_rng(seed)
    samples = rng.exponential(2.0, size) if levels is None else rng.integers(0, levels, size) * 0.1
    before = samples.copy()
    assert _bits(summarise(samples)) == _bits(_sort_based(samples.tolist()))
    np.testing.assert_array_equal(samples, before)
    assert samples.tobytes() == before.tobytes()


def test_a_node_summary_is_the_sort_based_definition_over_its_chunks():
    """The collector's one buffer holds the chunks' latencies in delivery order."""
    stamps = np.random.default_rng(5).random((5, 1_000)).cumsum(axis=1) / 700
    batches = [TxBatch.uniform(0, range(1_000 * i, 1_000 * (i + 1)), stamps[i], 10) for i in range(5)]
    mixed = TxBatch.concat([batches[0].slice(0, 3), TxBatch.uniform(1, range(7), 0.3, 10)])
    metrics = NodeMetrics(node_id=0)
    metrics.latency_chunks = [(3.1 + 0.7 * i, batch) for i, batch in enumerate([*batches, mixed])]
    delays = [
        [delivered_at - created for created in batch.created_at.tolist()]
        for delivered_at, batch in metrics.latency_chunks
    ]
    assert _bits(metrics.latency_summary(local_only=False)) == _bits(
        _sort_based(list(chain.from_iterable(delays)))
    )
    assert _bits(metrics.latency_summary()) == _bits(_sort_based(list(chain.from_iterable(delays))[:-7]))
    assert NodeMetrics(node_id=3).latency_summary() is None
