"""Tests for workload generation: transaction generators and bandwidth traces."""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.params import ProtocolParams
from repro.core.block import Transaction
from repro.core.config import NodeConfig
from repro.core.node import DispersedLedgerNode
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
from repro.workload.txgen import PoissonTransactionGenerator, SaturatingTransactionGenerator


def make_node(node_id=0):
    """A standalone node whose mempool the generators can feed."""
    params = ProtocolParams.for_n(4)
    network = InstantNetwork(4)
    ctx = NodeContext(node_id, network, network)
    return DispersedLedgerNode(node_id, params, ctx, config=NodeConfig())


def pending(node):
    """Everything waiting in the node's mempool, as records."""
    return node.mempool.take_batch(10**12, now=0.0).as_transactions()


class TestPoissonGenerator:
    def test_mean_rate_is_respected(self):
        sim = Simulator()
        node = make_node()
        generator = PoissonTransactionGenerator(
            sim, node, rate_bytes_per_second=100_000, tx_size=250, seed=7
        )
        generator.start()
        sim.run(until=50.0)
        rate = generator.generated_bytes / 50.0
        assert rate == pytest.approx(100_000, rel=0.15)
        assert node.mempool.pending_count == generator.generated

    def test_transactions_carry_timestamps_and_origin(self):
        sim = Simulator()
        node = make_node()
        PoissonTransactionGenerator(sim, node, rate_bytes_per_second=10_000, seed=1).start()
        sim.run(until=5.0)
        txs = pending(node)
        assert txs, "generator produced nothing"
        assert all(tx.origin == 0 for tx in txs)
        assert all(0 <= tx.created_at <= 5.0 for tx in txs)

    def test_stop_at(self):
        sim = Simulator()
        node = make_node()
        generator = PoissonTransactionGenerator(
            sim, node, rate_bytes_per_second=1_000_000, seed=2, stop_at=1.0
        )
        generator.start()
        sim.run(until=10.0)
        txs = pending(node)
        assert txs and all(tx.created_at <= 1.0 for tx in txs)

    def test_seeds_give_distinct_but_reproducible_streams(self):
        def arrivals(seed):
            sim = Simulator()
            node = make_node()
            PoissonTransactionGenerator(sim, node, rate_bytes_per_second=50_000, seed=seed).start()
            sim.run(until=5.0)
            return [tx.created_at for tx in pending(node)]

        assert arrivals(1) == arrivals(1)
        assert arrivals(1) != arrivals(2)

    def test_rejects_bad_parameters(self):
        sim, node = Simulator(), make_node()
        with pytest.raises(ValueError):
            PoissonTransactionGenerator(sim, node, rate_bytes_per_second=0)
        with pytest.raises(ValueError):
            PoissonTransactionGenerator(sim, node, rate_bytes_per_second=100, tx_size=0)


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
        config = city_network_config(AWS_CITIES, duration=10.0, seed=0)
        assert config.num_nodes == 16
        assert len(config.egress_traces) == 16
        assert len(config.ingress_traces) == 16
        # Egress serving headroom exceeds the (binding) ingress capacity.
        assert config.egress_trace(0).rate_at(0.0) > config.ingress_trace(0).rate_at(0.0)

    def test_vultr_is_slower_than_aws(self):
        aws_mean = sum(c.mean_bandwidth for c in AWS_CITIES) / len(AWS_CITIES)
        vultr_mean = sum(c.mean_bandwidth for c in VULTR_CITIES) / len(VULTR_CITIES)
        assert vultr_mean < aws_mean
