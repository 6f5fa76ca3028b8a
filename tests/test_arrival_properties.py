"""Property checks on the Poisson-family client's arrival process.

:class:`~repro.workload.txgen.PoissonSource` draws a node's arrivals when its
mempool is read (``tests/test_workload.py`` checks it row for row against the
one-event-per-arrival loop it replaced).  Here the process itself: counts
sit within a CLT bound of the profile's mean, bursts stay inside their on
windows up to one re-draw step, a diurnal day peaks mid-period, and a seed
fixes the stream.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.params import ProtocolParams
from repro.core.config import NodeConfig
from repro.core.node import DispersedLedgerNode
from repro.sim.context import NodeContext
from repro.sim.events import Simulator
from repro.sim.instant import InstantNetwork
from repro.workload.txgen import (
    BurstyRateProfile,
    ConstantRate,
    DiurnalRateProfile,
    PoissonSource,
)

TX_SIZE = 100


def arrivals(profile, duration, seed, node_id=0):
    """Every arrival stamp up to ``duration``, and their ids, from one read."""
    network = InstantNetwork(4)
    node = DispersedLedgerNode(
        node_id, ProtocolParams.for_n(4), NodeContext(node_id, network, network), config=NodeConfig()
    )
    source = PoissonSource(Simulator(), node, profile, tx_size=TX_SIZE, seed=seed)
    source.start()
    batch = node.mempool.take_batch(10**12, now=duration)
    assert source.generated == len(batch)
    return batch.created_at, np.array(batch.tx_ids)


def within_clt_bound(count, expected):
    """``count`` is within 5 standard deviations of a Poisson mean (odds < 1e-5)."""
    return abs(count - expected) < 5.0 * np.sqrt(expected)


@given(
    rate_tx=st.floats(min_value=50.0, max_value=400.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_a_constant_rate_hits_its_mean(rate_tx, seed):
    stamps, ids = arrivals(ConstantRate(rate_tx * TX_SIZE), 8.0, seed)
    assert within_clt_bound(len(stamps), rate_tx * 8.0)
    assert np.all(np.diff(stamps) > 0) and stamps.min() > 0.0 and stamps.max() <= 8.0
    # Ids count up by N from the node's own residue.
    assert np.all(np.diff(ids) == 4) and np.all(ids % 4 == 0)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_bursts_stay_in_their_on_windows(seed):
    """On for 1 s of every 4: an arrival lands at most one step past an edge."""
    profile = BurstyRateProfile(20_000.0, period=4.0, duty=0.25)
    stamps, _ids = arrivals(profile, 16.0, seed)
    assert within_clt_bound(len(stamps), 20_000.0 / TX_SIZE * 16.0)
    assert np.all(stamps % 4.0 < 1.0 + profile.step)
    assert np.mean(stamps % 4.0 < 1.0) > 0.9


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_a_diurnal_day_starts_at_its_trough(seed):
    profile = DiurnalRateProfile(20_000.0, period=8.0, amplitude=0.8)
    stamps, _ids = arrivals(profile, 16.0, seed)
    assert within_clt_bound(len(stamps), 20_000.0 / TX_SIZE * 16.0)
    phase = stamps % 8.0
    trough = np.sum((phase < 1.0) | (phase >= 7.0))
    peak = np.sum((phase >= 3.0) & (phase < 5.0))
    assert peak > 3 * trough


def test_a_seed_fixes_the_stream():
    profile = DiurnalRateProfile(10_000.0, period=3.0)
    first, _ = arrivals(profile, 4.0, seed=7)
    np.testing.assert_array_equal(first, arrivals(profile, 4.0, seed=7)[0])
    other, _ = arrivals(profile, 4.0, seed=8)
    assert len(other) != len(first) or not np.array_equal(other, first)
