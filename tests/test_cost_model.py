"""Tests for the analytical per-epoch cost model behind Fig. 12 / Fig. 13."""

import pytest

from repro.common.params import ProtocolParams
from repro.experiments.cost_model import (
    chunk_wire_bytes,
    dispersal_download_bytes,
    epoch_cost,
    estimate_throughput,
    retrieval_download_bytes,
)
from repro.workload.traces import MB


class TestByteFormulas:
    def test_chunk_wire_bytes_matches_real_codec(self):
        from repro.common.ids import VIDInstanceId
        from repro.vid.codec import RealCodec
        from repro.vid.messages import ChunkMsg

        params = ProtocolParams.for_n(16)
        block = 500_000
        bundle = RealCodec(params).encode(bytes(block))
        instance = VIDInstanceId(epoch=1, proposer=0)
        real = ChunkMsg(instance=instance, root=bundle.root, chunk=bundle.chunks[0]).wire_size
        assert chunk_wire_bytes(params, block) == pytest.approx(real, rel=0.01)

    def test_dispersal_download_scales_quadratically_in_votes(self):
        small = dispersal_download_bytes(ProtocolParams.for_n(16), 0)
        large = dispersal_download_bytes(ProtocolParams.for_n(64), 0)
        assert large > 12 * small

    def test_retrieval_scales_with_blocks(self):
        params = ProtocolParams.for_n(16)
        one = retrieval_download_bytes(params, 500_000, 1)
        ten = retrieval_download_bytes(params, 500_000, 10)
        assert ten == pytest.approx(10 * one)


class TestEpochCost:
    def test_dispersal_fraction_falls_with_n(self):
        # Fig. 13: bigger clusters spend a smaller fraction on dispersal
        # (each node's chunk is a 1/(N-2f) slice).  At very large N the
        # quadratic vote traffic starts pushing back, so we require the trend
        # over the paper's range and a clear endpoint-to-endpoint drop rather
        # than strict monotonicity.
        fractions = {
            n: epoch_cost(ProtocolParams.for_n(n), 500_000).dispersal_fraction
            for n in (16, 32, 64, 128)
        }
        assert fractions[32] < fractions[16]
        assert fractions[64] < fractions[32]
        assert fractions[128] < 0.66 * fractions[16]

    def test_dispersal_fraction_falls_with_block_size(self):
        params = ProtocolParams.for_n(32)
        small = epoch_cost(params, 500_000).dispersal_fraction
        large = epoch_cost(params, 1_000_000).dispersal_fraction
        assert large < small

    def test_committed_payload_defaults_to_all_blocks(self):
        params = ProtocolParams.for_n(16)
        cost = epoch_cost(params, 500_000)
        assert cost.committed_payload == pytest.approx(16 * 500_000)


class TestThroughputEstimates:
    def test_dl_beats_hb_at_every_scale(self):
        for n in (16, 32, 64, 128):
            params = ProtocolParams.for_n(n)
            dl = estimate_throughput(params, 500_000, 10 * MB, protocol="dl")
            hb = estimate_throughput(params, 500_000, 10 * MB, protocol="hb")
            assert dl.throughput > hb.throughput

    def test_throughput_declines_slowly_with_n(self):
        # Fig. 12: growing the cluster 8x costs only a modest throughput drop.
        params16 = ProtocolParams.for_n(16)
        params128 = ProtocolParams.for_n(128)
        t16 = estimate_throughput(params16, 1_000_000, 10 * MB, protocol="dl").throughput
        t128 = estimate_throughput(params128, 1_000_000, 10 * MB, protocol="dl").throughput
        assert t128 < t16
        assert t128 > 0.5 * t16

    def test_larger_blocks_help(self):
        params = ProtocolParams.for_n(64)
        small = estimate_throughput(params, 500_000, 10 * MB, protocol="dl").throughput
        large = estimate_throughput(params, 1_000_000, 10 * MB, protocol="dl").throughput
        assert large >= small

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            estimate_throughput(ProtocolParams.for_n(16), 500_000, 10 * MB, protocol="pbft")

    def test_throughput_bounded_by_bandwidth(self):
        params = ProtocolParams.for_n(16)
        estimate = estimate_throughput(params, 1_000_000, 10 * MB, protocol="dl")
        assert estimate.throughput <= 10 * MB
