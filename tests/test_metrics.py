"""Tests for the metrics collector and statistics helpers."""

import numpy as np
import pytest

from repro.core.block import Block, Transaction
from repro.core.ledger import DeliveredBlock
from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import percentile, summarise


def delivered(node_time, proposer=1, origins=(0, 1), created=0.0, epoch=1):
    txs = tuple(
        Transaction(tx_id=i, origin=origin, created_at=created, size=100)
        for i, origin in enumerate(origins)
    )
    block = Block(proposer=proposer, epoch=epoch, transactions=txs)
    return DeliveredBlock(
        epoch=epoch, proposer=proposer, block=block, delivered_at=node_time, delivered_in_epoch=epoch
    )


class TestStats:
    def test_percentile_interpolation(self):
        values = [10, 20, 30, 40]
        assert percentile(values, 0) == 10
        assert percentile(values, 100) == 40
        assert percentile(values, 50) == pytest.approx(25.0)

    def test_percentile_single_value(self):
        assert percentile([7], 99) == 7

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_summarise(self):
        summary = summarise(list(range(1, 101)))
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p99 > summary.p95 > summary.p50

    def test_summarise_empty(self):
        with pytest.raises(ValueError):
            summarise([])
        with pytest.raises(ValueError):
            summarise(np.empty(0))

    def test_mean_is_sequential_addition_in_sample_order(self):
        """The definition, against an explicit loop — not ``sum()``, whose
        rounding depends on the interpreter (compensated since CPython 3.12),
        and not ``ndarray.sum``, which adds pairwise."""
        rng = np.random.default_rng(5)
        # Magnitudes spread over 12 decades make the order of addition show.
        samples = rng.random(20_001) * 10.0 ** rng.integers(-6, 6, 20_001)
        total = 0.0
        for value in samples.tolist():
            total += value
        assert summarise(samples).mean == total / len(samples)
        assert summarise(samples.tolist()).mean == total / len(samples)
        assert float(samples.sum()) != total  # what pairwise addition would give

    def test_percentiles_interpolate_like_the_scalar_rule(self):
        rng = np.random.default_rng(6)
        samples = rng.random(1_237)
        ordered = sorted(samples.tolist())
        summary = summarise(samples)
        for name, q in (("p5", 5), ("p50", 50), ("p95", 95), ("p99", 99)):
            rank = (q / 100) * (len(ordered) - 1)
            low, fraction = int(rank), rank - int(rank)
            expected = ordered[low] * (1 - fraction) + ordered[low + 1] * fraction
            assert getattr(summary, name) == expected == percentile(samples.tolist(), q)


class TestMetricsCollector:
    def test_delivery_accounting(self):
        collector = MetricsCollector(2)
        collector.record_delivery(0, delivered(node_time=2.0, origins=(0, 1, 1)))
        metrics = collector.per_node[0]
        assert metrics.blocks_delivered == 1
        assert metrics.confirmed_transactions == 3
        assert metrics.confirmed_bytes == 300
        assert metrics.timeline == [(2.0, 300)]

    def test_latency_local_vs_all(self):
        collector = MetricsCollector(2)
        collector.record_delivery(0, delivered(node_time=3.0, origins=(0, 1), created=1.0))
        metrics = collector.per_node[0]
        assert metrics.latency_summary(local_only=False).count == 2
        local = metrics.latency_summary(local_only=True)
        assert (local.count, local.mean, local.p50) == (1, 2.0, 2.0)
        collector.record_delivery(1, delivered(node_time=5.0, origins=(0,), created=1.0))
        assert collector.per_node[1].latency_summary(local_only=True) is None
        assert collector.per_node[1].latency_summary(local_only=False).mean == 4.0

    def test_latency_samples_keep_delivery_order_across_mixed_origin_blocks(self):
        """The mean depends on sample order: block by block, row by row."""
        collector = MetricsCollector(2)
        first = delivered(node_time=10.0, origins=(1, 0, 1), created=0.1)
        second = delivered(node_time=1e9, origins=(1, 1), created=0.3, epoch=2)
        third = delivered(node_time=10.0, origins=(0, 1), created=0.7, epoch=3)
        for entry in (first, second, third):
            collector.record_delivery(1, entry)
        local = collector.per_node[1].latency_summary(local_only=True)
        total = 0.0
        for sample in [10.0 - 0.1] * 2 + [1e9 - 0.3] * 2 + [10.0 - 0.7]:
            total += sample
        assert local.count == 5 and local.mean == total / 5

    def test_throughput(self):
        collector = MetricsCollector(1)
        collector.record_delivery(0, delivered(node_time=1.0))
        collector.record_delivery(0, delivered(node_time=2.0, epoch=2))
        assert collector.per_node[0].throughput(10.0) == pytest.approx(40.0)
        assert collector.throughputs(10.0) == [pytest.approx(40.0)]
        assert collector.mean_throughput(10.0) == pytest.approx(40.0)

    def test_throughput_requires_positive_duration(self):
        collector = MetricsCollector(1)
        with pytest.raises(ValueError):
            collector.per_node[0].throughput(0.0)

    def test_proposal_accounting(self):
        collector = MetricsCollector(1)
        block = Block(
            proposer=0,
            epoch=1,
            transactions=(Transaction(tx_id=1, origin=0, created_at=0.0, size=500),),
        )
        collector.record_proposal(0, block, now=0.5)
        metrics = collector.per_node[0]
        assert metrics.blocks_proposed == 1
        assert metrics.bytes_proposed == 500
        assert metrics.proposed_block_sizes == [block.size]

    def test_linked_blocks_counted(self):
        collector = MetricsCollector(1)
        entry = delivered(node_time=1.0)
        linked = DeliveredBlock(
            epoch=entry.epoch,
            proposer=5,
            block=entry.block,
            delivered_at=2.0,
            via_linking=True,
            delivered_in_epoch=2,
        )
        collector.record_delivery(0, linked)
        assert collector.per_node[0].blocks_linked == 1

    def test_latency_summary_none_without_samples(self):
        collector = MetricsCollector(1)
        assert collector.per_node[0].latency_summary() is None
        assert collector.latency_summaries() == [None]

    def test_total_confirmed_bytes(self):
        collector = MetricsCollector(2)
        collector.record_delivery(0, delivered(node_time=1.0))
        collector.record_delivery(1, delivered(node_time=1.0))
        assert collector.total_confirmed_bytes() == 400
