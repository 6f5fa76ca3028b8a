"""Tests for workload generation: transaction clients and bandwidth traces."""

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.params import ProtocolParams
from repro.core.block import Transaction
from repro.core.config import NodeConfig
from repro.core.node import DispersedLedgerNode
from repro.experiments import apply_overrides, get_scenario
from repro.experiments.runner import Stop, execute
from repro.experiments.scenario import DEFAULT_EGRESS_HEADROOM
from repro.sim.context import NodeContext
from repro.sim.events import Simulator
from repro.sim.instant import InstantNetwork
from repro.workload.cities import AWS_CITIES, VULTR_CITIES, city_delay_matrix, city_network_config
from repro.workload.traces import (
    MB,
    GaussMarkovProcess,
    constant_traces,
    gauss_markov_traces,
    spatial_variation_rates,
)
from repro.workload.txgen import (
    BurstyRateProfile,
    ConstantRate,
    DiurnalRateProfile,
    PoissonSource,
    SaturatingTransactionGenerator,
)
from tests.conftest import build_scenario_state


def make_node(node_id=0):
    """A standalone node whose mempool the generators can feed."""
    params = ProtocolParams.for_n(4)
    network = InstantNetwork(4)
    ctx = NodeContext(node_id, network, network)
    return DispersedLedgerNode(node_id, params, ctx, config=NodeConfig())


def pending(node, now):
    """Everything a read of the node's mempool at ``now`` finds, as records."""
    return node.mempool.take_batch(10**12, now=now).as_transactions()


def started_source(profile, node=None, **knobs):
    """A started :class:`PoissonSource` on ``node`` (a fresh node 0 by default)."""
    sim, node = Simulator(), node or make_node()
    source = PoissonSource(sim, node, profile, **knobs)
    source.start()
    return node, source


class TestPoissonSource:
    def test_mean_rate_is_respected(self):
        node, source = started_source(ConstantRate(100_000), tx_size=250, seed=7)
        node.mempool.ready_to_propose(50.0)
        rate = source.generated_bytes / 50.0
        assert rate == pytest.approx(100_000, rel=0.15)
        assert node.mempool.pending_count == source.generated

    def test_transactions_carry_timestamps_and_origin(self):
        node, _source = started_source(ConstantRate(10_000), seed=1)
        txs = pending(node, 5.0)
        assert txs, "source produced nothing"
        assert all(tx.origin == 0 for tx in txs)
        assert all(0 <= tx.created_at <= 5.0 for tx in txs)

    def test_stop_at(self):
        node, source = started_source(ConstantRate(1_000_000), seed=2, stop_at=1.0)
        txs = pending(node, 10.0)
        assert txs and all(tx.created_at < 1.0 for tx in txs)
        assert source.generated == len(txs)

    def test_an_arrival_stamped_exactly_at_stop_at_is_dropped(self):
        """``stop_at`` is exclusive, as the per-event client's ``now >= stop_at``."""
        node, _source = started_source(ConstantRate(50_000), seed=6)
        stamps = [tx.created_at for tx in pending(node, 1.0)]
        stop = stamps[3]
        node, source = started_source(ConstantRate(50_000), seed=6, stop_at=stop)
        assert [tx.created_at for tx in pending(node, 10.0)] == stamps[:3]
        assert source.generated == 3
        _node, reference = started_reference(50_000, seed=6, stop_at=stop)
        reference._sim.run(until=10.0)
        assert reference.generated == 3

    def test_seeds_give_distinct_but_reproducible_streams(self):
        def arrivals(seed):
            node, _source = started_source(ConstantRate(50_000), seed=seed)
            return [tx.created_at for tx in pending(node, 5.0)]

        assert arrivals(1) == arrivals(1)
        assert arrivals(1) != arrivals(2)

    def test_a_read_submits_only_what_has_arrived_and_schedules_nothing(self):
        sim, node = Simulator(), make_node()
        PoissonSource(sim, node, ConstantRate(100_000), seed=3).start()
        assert sim.pending_events == 0
        assert node.mempool.pending_count == 0
        early = pending(node, 1.0)
        assert early and max(tx.created_at for tx in early) <= 1.0
        later = pending(node, 2.0)
        assert later and min(tx.created_at for tx in later) > 1.0

    def test_a_row_stamped_exactly_at_a_read_is_pending(self):
        """The tie rule: a read at ``t`` finds the arrival stamped ``t``."""
        _node, reference = started_reference(50_000, seed=4)
        reference._sim.run(until=1.0)
        stamp = reference._node.mempool.take_batch(10**12, now=1.0).created_at[0]
        node, _source = started_source(ConstantRate(50_000), seed=4)
        assert pending(node, math.nextafter(stamp, 0.0)) == []
        (first,) = [tx.created_at for tx in pending(node, stamp)]
        assert first == stamp

    def test_requeued_rows_go_ahead_of_later_arrivals(self):
        """HoneyBadger re-proposes a dropped block before anything newer."""
        node, _source = started_source(ConstantRate(50_000), seed=5)
        dropped = node.mempool.take_batch(10**12, now=1.0)
        node.mempool.requeue_front(dropped)
        rows = node.mempool.take_batch(10**12, now=2.0).created_at.tolist()
        assert rows[: len(dropped)] == dropped.created_at.tolist()
        assert rows == sorted(rows) and rows[-1] > 1.0

    def test_rejects_bad_parameters(self):
        sim, node = Simulator(), make_node()
        with pytest.raises(ValueError):
            ConstantRate(0)
        with pytest.raises(ValueError):
            PoissonSource(sim, node, ConstantRate(100), tx_size=0)
        with pytest.raises(ValueError):
            BurstyRateProfile(100, duty=0.0)
        with pytest.raises(ValueError):
            DiurnalRateProfile(100, amplitude=1.0)


class ReferencePoissonGenerator:
    """The Poisson-family client as one simulator event per arrival.

    Every ``poisson`` / ``bursty`` / ``diurnal`` run used this loop before
    arrivals were drawn at the mempool's reads; it stays here as the model
    the source must reproduce row for row.  Without ``rate_at`` it draws at
    the constant ``1 / (tx_size / rate)``; with one (bytes/s at a virtual
    time) at ``rate_at(now) / tx_size``, re-drawing every ``max_step``
    past the horizon or at zero rate.

    Each arrival is one record, handed to the mempool when it is next read
    (the model attaches itself as the mempool's ``source``): every record
    then queued is stamped at or before the read, as when each was
    submitted at its own event, and a read queues one batch rather than one
    per record.
    """

    def __init__(self, sim, node, rate, rate_at=None, tx_size=250, seed=None, stop_at=None, max_step=0.25):
        self._sim, self._node, self._tx_size = sim, node, tx_size
        self._rng, self._stop_at, self._max_step = random.Random(seed), stop_at, max_step
        self._mean_interarrival, self._rate_at = tx_size / rate, rate_at
        self._sequence = self.generated = self.generated_bytes = 0
        self._arrived = []
        node.mempool.source = self

    def start(self):
        self._schedule_next()

    def _schedule_next(self):
        if self._rate_at is None:
            delay = self._rng.expovariate(1.0 / self._mean_interarrival)
            self._sim.schedule(delay, self._arrive)
            return
        rate = self._rate_at(self._sim.now)
        if rate <= 0:
            self._sim.schedule(self._max_step, self._schedule_next)
            return
        delay = self._rng.expovariate(rate / self._tx_size)
        if delay > self._max_step:
            self._sim.schedule(self._max_step, self._schedule_next)
            return
        self._sim.schedule(delay, self._arrive)

    def _arrive(self):
        now, node = self._sim.now, self._node
        if self._stop_at is not None and now >= self._stop_at:
            return
        self._sequence += 1
        tx_id = self._sequence * node.params.n + node.node_id
        self._arrived.append(Transaction(tx_id, node.node_id, now, self._tx_size))
        self.generated += 1
        self.generated_bytes += self._tx_size
        self._schedule_next()

    def submit_until(self, now):
        assert all(tx.created_at <= now for tx in self._arrived)
        self._node.mempool.submit_many(self._arrived)
        self._arrived = []


def started_reference(rate, node=None, **knobs):
    sim, node = Simulator(), node or make_node()
    reference = ReferencePoissonGenerator(sim, node, rate, **knobs)
    sim.schedule(0.0, reference.start)
    return node, reference


def _drive_poisson(sim, client, reads):
    """Read the client's mempool at each ``(instant, max_bytes)``; log what it finds."""
    mempool, log = client._node.mempool, []
    for instant, max_bytes in reads:
        sim.run(until=instant)
        ready = mempool.ready_to_propose(instant)
        taken = mempool.take_batch(max_bytes, now=instant)
        rows = list(zip(map(int, taken.tx_ids), taken.created_at.tolist()))
        log.append((ready, rows, client.generated, client.generated_bytes, mempool.pending_bytes))
    return log


def _profiles(kind, rate):
    """``kind``'s rate profile and the reference's ``rate_at`` for it (bytes/s).

    Short periods put on/off edges and the whole swing inside a few seconds.
    """
    if kind == "bursty":
        period, duty = 1.5, 0.4
        on_rate, on_for = rate / duty, duty * period
        return (
            BurstyRateProfile(rate, period=period, duty=duty),
            lambda t: on_rate if t % period < on_for else 0.0,
        )
    if kind == "diurnal":
        period, amplitude = 2.5, 0.9
        return (
            DiurnalRateProfile(rate, period=period, amplitude=amplitude),
            lambda t: rate * (1.0 - amplitude * math.cos(2.0 * math.pi * t / period)),
        )
    return ConstantRate(rate), None


class TestPoissonSourceAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(("constant", "bursty", "diurnal")),
        node_id=st.integers(0, 3),
        rate=st.sampled_from((2_000.0, 30_000.0, 120_000.0)),
        tx_size=st.integers(1, 700),
        seed=st.integers(0, 2**16),
        stop_at=st.one_of(st.none(), st.floats(0.01, 4.0)),
        reads=st.lists(
            st.tuples(st.floats(0.0, 5.0), st.integers(1, 40_000)), max_size=12
        ),
    )
    def test_drawn_arrivals_equal_the_per_event_arrivals(
        self, kind, node_id, rate, tx_size, seed, stop_at, reads
    ):
        reads = [*sorted(reads), (5.0, 10**12)]
        knobs = dict(tx_size=tx_size, seed=seed, stop_at=stop_at)
        profile, rate_at = _profiles(kind, rate)
        real_sim, real_node = Simulator(), make_node(node_id)
        source = PoissonSource(real_sim, real_node, profile, **knobs)
        real_sim.schedule(0.0, source.start)
        # The source must not build a record, nor schedule past its start.
        with mock.patch.object(Transaction, "__init__", side_effect=AssertionError("a record")):
            real = _drive_poisson(real_sim, source, reads)
        assert real_sim.processed_events == 1
        _node, reference = started_reference(rate, make_node(node_id), rate_at=rate_at, **knobs)
        model = _drive_poisson(reference._sim, reference, reads)
        assert real == model


def test_a_run_counts_every_arrival_up_to_its_horizon():
    """``execute``'s horizon stop draws what no read reached: ``tx_generated``
    is every arrival stamped up to the horizon, as the per-event client's."""
    spec = apply_overrides(
        get_scenario("latency-fault-matrix").base,
        {
            "duration": 2.0,
            "adversary.kind": "crash-after",
            "adversary.count": 2,
            "adversary.crash_time": 0.5,
            "seed": 3,
        },
    )
    state = build_scenario_state(spec)
    result = execute(state, [Stop(spec.duration)])
    expected = 0
    for node in state.nodes:
        _node, reference = started_reference(
            spec.workload.rate_bytes_per_second, make_node(node.node_id), seed=3_000 + node.node_id
        )
        reference._sim.run(until=spec.duration)
        expected += reference.generated
    # Two nodes crash at 0.5 s, so most of their arrivals are never read.
    assert result.tx_generated == expected


class TestSaturatingGenerator:
    def test_keeps_mempool_topped_up(self):
        sim = Simulator()
        node = make_node()
        generator = SaturatingTransactionGenerator(
            sim, node, target_pending_bytes=100_000, tx_size=250, refill_interval=0.1
        )
        generator.start()
        sim.run(until=0.0)
        assert node.mempool.pending_bytes >= 100_000
        node.mempool.take_batch(60_000, now=0.0)
        sim.run(until=0.2)
        assert node.mempool.pending_bytes >= 100_000

    def test_rejects_bad_parameters(self):
        sim, node = Simulator(), make_node()
        with pytest.raises(ValueError):
            SaturatingTransactionGenerator(sim, node, target_pending_bytes=0)
        with pytest.raises(ValueError):
            SaturatingTransactionGenerator(sim, node, refill_interval=0.0)


class ReferenceSaturatingGenerator:
    """The refill policy one record and one ``submit_transaction`` at a time.

    This is the client every saturating run used before the generator
    submitted columns; it stays here as the model the batch refill must
    reproduce row for row.
    """

    def __init__(self, sim, node, target_pending_bytes, tx_size, refill_interval, stop_at):
        self._sim, self._node = sim, node
        self._target, self._tx_size = target_pending_bytes, tx_size
        self._interval, self._stop_at = refill_interval, stop_at
        self._sequence = self.generated = self.generated_bytes = 0

    def start(self):
        self._refill()

    def _refill(self):
        now, node = self._sim.now, self._node
        if self._stop_at is not None and now >= self._stop_at:
            return
        missing = self._target - node.mempool.pending_bytes
        while missing > 0:
            self._sequence += 1
            tx_id = self._sequence * node.params.n + node.node_id
            node.submit_transaction(Transaction(tx_id, node.node_id, now, self._tx_size))
            self.generated += 1
            self.generated_bytes += self._tx_size
            missing -= self._tx_size
        self._sim.schedule(self._interval, self._refill)


def _columns(batch):
    """The four columns of a batch as plain lists."""
    origins = [batch.origin] * len(batch) if batch.origins is None else batch.origins.tolist()
    return list(map(int, batch.tx_ids)), origins, batch.created_at.tolist(), batch.sizes.tolist()


def _drive_saturating(generator_class, node_id, drains, **knobs):
    """Run one client against a drain schedule; log what every drain sees."""
    sim, node = Simulator(), make_node(node_id)
    generator = generator_class(sim, node, **knobs)
    generator.start()
    mempool, log = node.mempool, []
    for delay, max_bytes in [*drains, (2 * knobs["refill_interval"], 10**12)]:
        sim.run(until=sim.now + delay)
        taken = mempool.take_batch(max_bytes, now=sim.now)
        log.append(
            (
                _columns(taken),
                generator.generated,
                generator.generated_bytes,
                mempool.pending_bytes,
                mempool.total_submitted,
            )
        )
    return log


class TestSaturatingGeneratorAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        node_id=st.integers(0, 3),
        target=st.integers(1, 6_000),
        tx_size=st.integers(1, 700),
        refills_per_second=st.sampled_from((4, 10, 20)),
        stop_at_refill=st.one_of(st.none(), st.integers(0, 8)),
        stop_at_offset=st.sampled_from((0.0, 0.0, 0.03, -0.03)),
        drains=st.lists(
            st.tuples(st.sampled_from((0.0, 0.05, 0.1, 0.125, 0.3)), st.integers(1, 8_000)),
            max_size=8,
        ),
    )
    # 1000 is not a multiple of 300; the refill at t = 0.5 lands exactly on
    # ``stop_at`` (0.25 is a binary fraction, so the sums are exact).
    @example(
        node_id=2,
        target=1_000,
        tx_size=300,
        refills_per_second=4,
        stop_at_refill=2,
        stop_at_offset=0.0,
        drains=[(0.25, 700), (0.25, 700), (0.25, 700)],
    )
    def test_batch_refill_equals_the_per_transaction_refill(
        self, node_id, target, tx_size, refills_per_second, stop_at_refill, stop_at_offset, drains
    ):
        interval = 1.0 / refills_per_second
        stop_at = None
        if stop_at_refill is not None:
            # The instant of the k-th scheduled refill, summed the way the
            # simulator sums it, optionally nudged to either side.
            stop_at = stop_at_offset
            for _ in range(stop_at_refill):
                stop_at += interval
        knobs = dict(
            target_pending_bytes=target, tx_size=tx_size, refill_interval=interval, stop_at=stop_at
        )
        # The generator must not build a record, in a refill or anywhere else.
        with mock.patch.object(Transaction, "__init__", side_effect=AssertionError("a record")):
            real = _drive_saturating(SaturatingTransactionGenerator, node_id, drains, **knobs)
        model = _drive_saturating(ReferenceSaturatingGenerator, node_id, drains, **knobs)
        assert real == model
        if stop_at is None or stop_at > 0:
            assert real[-1][1] >= -(-target // tx_size)


class TestGaussMarkovProcess:
    def test_sample_statistics(self):
        process = GaussMarkovProcess(mean=10 * MB, sigma=2 * MB, alpha=0.9, seed=3)
        path = process.sample_path(duration=2000.0, step=1.0)
        rates = [rate for _, rate in path]
        mean = sum(rates) / len(rates)
        assert mean == pytest.approx(10 * MB, rel=0.1)
        assert min(rates) >= process.floor

    def test_consecutive_samples_are_correlated(self):
        process = GaussMarkovProcess(mean=10 * MB, sigma=5 * MB, alpha=0.98, seed=5)
        rates = [rate for _, rate in process.sample_path(500.0)]
        jumps = [abs(b - a) for a, b in zip(rates, rates[1:])]
        # With alpha = 0.98 the typical step is much smaller than sigma.
        assert sum(jumps) / len(jumps) < 2.5 * MB

    def test_trace_is_usable_by_pipes(self):
        process = GaussMarkovProcess(mean=1000.0, sigma=100.0, seed=1)
        trace = process.trace(duration=10.0)
        assert trace.finish_time(0.0, 500) > 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GaussMarkovProcess(mean=0, sigma=1)
        with pytest.raises(ValueError):
            GaussMarkovProcess(mean=1, sigma=-1)
        with pytest.raises(ValueError):
            GaussMarkovProcess(mean=1, sigma=1, alpha=1.0)
        with pytest.raises(ValueError):
            GaussMarkovProcess(mean=1, sigma=1, floor=0)
        process = GaussMarkovProcess(mean=1, sigma=0.1)
        with pytest.raises(ValueError):
            process.sample_path(duration=0)


class TestTraceHelpers:
    def test_spatial_variation_rates_match_paper(self):
        rates = spatial_variation_rates(16)
        assert rates[0] == 10 * MB
        assert rates[15] == pytest.approx(17.5 * MB)
        assert rates == sorted(rates)

    def test_constant_traces(self):
        traces = constant_traces(4, 1000.0)
        assert len(traces) == 4
        assert all(t.rate_at(0.0) == 1000.0 for t in traces)

    def test_gauss_markov_traces_are_independent(self):
        traces = gauss_markov_traces(3, duration=20.0, seed=1)
        rates = [tuple(t.rate_at(float(s)) for s in range(20)) for t in traces]
        assert len(set(rates)) == 3


class TestCityProfiles:
    def test_testbed_sizes_match_paper(self):
        assert len(AWS_CITIES) == 16
        assert len(VULTR_CITIES) == 15

    def test_highlighted_cities_present(self):
        names = [city.name for city in AWS_CITIES]
        assert "Ohio" in names and "Mumbai" in names
        ohio = next(c for c in AWS_CITIES if c.name == "Ohio")
        mumbai = next(c for c in AWS_CITIES if c.name == "Mumbai")
        assert ohio.mean_bandwidth > mumbai.mean_bandwidth

    def test_delay_matrix_symmetric_zero_diagonal(self):
        matrix = city_delay_matrix(AWS_CITIES)
        for i in range(len(AWS_CITIES)):
            assert matrix[i][i] == 0.0
            for j in range(len(AWS_CITIES)):
                assert matrix[i][j] == matrix[j][i]

    def test_network_config_shape(self):
        config = city_network_config(
            AWS_CITIES, duration=10.0, seed=0, egress_headroom=DEFAULT_EGRESS_HEADROOM
        )
        assert config.num_nodes == 16
        assert len(config.egress_traces) == 16
        assert len(config.ingress_traces) == 16
        # Egress serving headroom exceeds the (binding) ingress capacity.
        assert config.egress_trace(0).rate_at(0.0) > config.ingress_trace(0).rate_at(0.0)

    def test_vultr_is_slower_than_aws(self):
        aws_mean = sum(c.mean_bandwidth for c in AWS_CITIES) / len(AWS_CITIES)
        vultr_mean = sum(c.mean_bandwidth for c in VULTR_CITIES) / len(VULTR_CITIES)
        assert vultr_mean < aws_mean
