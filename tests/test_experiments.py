"""Smoke tests for the experiment harness (small, fast configurations), and
one table-driven test per figure reduction of :mod:`repro.experiments.figures`:
each sweeps the figure's catalog entry at a short duration and checks the rows
against values computed by hand from the per-point ``ExperimentResult``s."""

from dataclasses import asdict, replace

import pytest

from repro.common.params import ProtocolParams
from repro.core.config import NodeConfig
from repro.experiments import figures
from repro.experiments.catalog import get_scenario
from repro.experiments.cost_model import estimate_throughput
from repro.experiments.engine import SweepResult, sweep
from repro.experiments.options import ExecutionOptions
from repro.experiments.runner import (
    PROTOCOLS,
    ExperimentResult,
    Stop,
    WorkloadSpec,
    build_experiment,
    execute,
)
from repro.experiments.scenario import apply_overrides
from repro.sim.bandwidth import ConstantBandwidth
from repro.sim.network import NetworkConfig
from repro.vid.costs import avid_m_per_node_cost, normalised_cost
from repro.workload.cities import AWS_CITIES
from repro.workload.traces import MB


def tiny_network(n=4, rate=2_000_000.0, delay=0.05):
    return NetworkConfig(
        num_nodes=n,
        propagation_delay=delay,
        egress_traces=[ConstantBandwidth(rate)] * n,
        ingress_traces=[ConstantBandwidth(rate)] * n,
    )


def run_by_hand(protocol, network_config, duration, **kwargs):
    """One hand-built state executed to its horizon: the seam under the engine."""
    return execute(build_experiment(protocol, network_config, duration, **kwargs), [Stop(duration)])


class TestRunner:
    def test_workload_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="replay")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            build_experiment("pbft", tiny_network(), duration=1.0)

    def test_duration_must_exceed_warmup(self):
        with pytest.raises(ValueError):
            build_experiment("dl", tiny_network(), duration=1.0, warmup=2.0)

    def test_params_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_experiment("dl", tiny_network(4), duration=1.0, params=ProtocolParams.for_n(7))

    @pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
    def test_all_protocols_run_and_confirm(self, protocol):
        result = run_by_hand(
            protocol,
            tiny_network(),
            duration=12.0,
            workload=WorkloadSpec(kind="saturating", target_pending_bytes=500_000),
            node_config=NodeConfig(max_block_size=100_000),
        )
        assert isinstance(result, ExperimentResult)
        assert result.num_nodes == 4
        assert result.mean_throughput > 0
        assert all(epoch >= 1 for epoch in result.delivered_epochs)
        assert result.mean_block_size > 0

    def test_poisson_workload_produces_latency_samples(self):
        result = run_by_hand(
            "dl",
            tiny_network(),
            duration=12.0,
            workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=50_000),
        )
        samples = [summary for summary in result.latency_local if summary is not None]
        assert samples
        assert all(summary.p50 > 0 for summary in samples)


def entry_sweep(name: str, overrides: dict, grid: dict | None = None) -> SweepResult:
    """The catalog entry ``name`` with dotted-path ``overrides``, swept serially."""
    entry = get_scenario(name)
    return sweep(
        apply_overrides(entry.base, overrides),
        entry.grid if grid is None else grid,
        options=ExecutionOptions(parallel=False),
    )


def with_throughputs(result: SweepResult, protocol: str, throughputs: list[float]) -> SweepResult:
    """``result`` with every point of ``protocol`` reporting ``throughputs``."""
    points = [
        replace(point, result=replace(point.result, throughputs=throughputs))
        if point.spec.protocol == protocol
        else point
        for point in result.points
    ]
    return replace(result, points=points)


def mean(values):
    return sum(values) / len(values)


@pytest.fixture(scope="module")
def geo():
    return entry_sweep("fig08-geo", {"duration": 5.0})


@pytest.fixture(scope="module")
def latency():
    """Short enough that some nodes confirm no local transaction at the high load."""
    loads = (300_000.0, 1_000_000.0)
    result = entry_sweep(
        "fig10-latency",
        {"duration": 3.0},
        grid={"protocol": ("dl", "hb"), "workload.rate_bytes_per_second": loads},
    )
    assert [sum(s is None for s in point.result.latency_local) for point in result.points] == [
        0, 1, 0, 2
    ]
    return result


@pytest.fixture(scope="module")
def spatial():
    return entry_sweep("fig11a-spatial", {"duration": 6.0, "topology.num_nodes": 7})


class TestFig02:
    def test_curve_contains_all_points(self):
        rows = [figures.vid_cost_row(n, 100_000) for n in (4, 16, 64)]
        assert [(row["n"], row["block_size"]) for row in rows] == [
            (4, 100_000), (16, 100_000), (64, 100_000)
        ]
        assert all(row["avid_m"] < row["avid_fp"] for row in rows)
        assert all(row["avid_m"] >= row["lower_bound"] for row in rows)

    def test_measured_cost_matches_model(self):
        n, block_size = 7, 50_000
        measured = figures.measure_avid_m_dispersal_cost(n, block_size)
        modelled = normalised_cost(
            avid_m_per_node_cost(ProtocolParams.for_n(n), block_size), block_size
        )
        assert measured == pytest.approx(modelled, rel=0.25)
        assert figures.vid_cost_row(n, block_size)["avid_m"] == modelled

    def test_batched_dispersal_matches_single(self):
        n, block_size = 7, 50_000
        single = figures.measure_avid_m_dispersal_cost(n, block_size)
        batched = figures.measure_avid_m_dispersal_cost(n, block_size, num_blocks=3)
        assert batched == pytest.approx(single, rel=1e-9)

    def test_crossover_exists_for_small_blocks(self):
        threshold = figures.crossover_n(100_000)
        assert threshold is not None and threshold < 128
        assert figures.crossover_n(100_000_000, max_n=60) is None


class TestThroughputReductions:
    def test_by_protocol_keeps_grid_order_and_the_last_point(self, geo, latency):
        assert list(figures.by_protocol(geo)) == ["dl", "dl-coupled", "hb-link", "hb"]
        # Two loads per protocol: the highest (last) one is the protocol's result.
        assert figures.by_protocol(latency) == {
            "dl": latency.points[1].result,
            "hb": latency.points[3].result,
        }

    def test_throughput_table_names_each_city(self, geo):
        results = {point.spec.protocol: point.result for point in geo.points}
        assert figures.throughput_table(geo) == [
            {
                "node": node,
                "city": city.name,
                **{protocol: result.throughputs[node] for protocol, result in results.items()},
            }
            for node, city in enumerate(AWS_CITIES)
        ]

    def test_throughput_table_carries_the_spatial_capacity(self, spatial):
        rows = figures.throughput_table(spatial)
        assert [row["capacity"] for row in rows] == [10 * MB + 0.5 * MB * i for i in range(7)]
        assert all("city" not in row for row in rows)
        for point in spatial.points:
            assert [row[point.spec.protocol] for row in rows] == point.result.throughputs

    @pytest.mark.parametrize(
        "better, worse", [("dl", "hb"), ("hb-link", "hb"), ("dl", "hb-link"), ("hb", "dl")]
    )
    def test_improvement_is_the_ratio_of_mean_throughputs(self, geo, better, worse):
        results = {point.spec.protocol: point.result for point in geo.points}
        expected = mean(results[better].throughputs) / mean(results[worse].throughputs) - 1.0
        assert figures.improvement(geo, better, worse) == expected

    def test_improvement_over_a_protocol_that_confirmed_nothing_raises(self, geo):
        stalled = with_throughputs(geo, "hb", [0.0] * 16)
        assert figures.improvement(stalled, "hb", "dl") == -1.0
        with pytest.raises(ZeroDivisionError):
            figures.improvement(stalled, "dl", "hb")

    def test_progress_timelines_are_the_per_node_curves(self, geo):
        timelines = figures.progress_timelines(geo)
        assert list(timelines) == ["dl", "dl-coupled", "hb-link", "hb"]
        for point in geo.points:
            assert timelines[point.spec.protocol] is point.result.timelines
            assert len(point.result.timelines) == 16

    def test_throughput_spread_is_max_over_min(self, spatial):
        for point in spatial.points:
            throughputs = point.result.throughputs
            assert figures.throughput_spread(point.result) == max(throughputs) / min(throughputs)
        starved = replace(spatial.points[0].result, throughputs=[0.0, 5.0])
        with pytest.raises(ZeroDivisionError):
            figures.throughput_spread(starved)

    def test_temporal_drop_table_pairs_fixed_and_varying_runs(self):
        result = entry_sweep("fig11b-temporal", {"duration": 8.0, "topology.num_nodes": 7})
        means = {
            (point.spec.protocol, point.spec.bandwidth.kind): mean(point.result.throughputs)
            for point in result.points
        }
        assert len(means) == 6
        assert figures.temporal_drop_table(result) == [
            {
                "protocol": protocol,
                "fixed": means[protocol, "constant"],
                "varying": means[protocol, "gauss-markov"],
                "relative_drop": 1.0
                - means[protocol, "gauss-markov"] / means[protocol, "constant"],
            }
            for protocol in ("dl", "hb-link", "hb")
        ]
        with pytest.raises(ZeroDivisionError):
            figures.temporal_drop_table(with_throughputs(result, "hb", [0.0] * 7))


class TestLatencyReductions:
    @pytest.mark.parametrize(
        "node, quantile, local_only",
        # Node 10 confirms no transaction at the high load: its value there is None.
        [(0, "p50", True), (0, "p95", True), (10, "p50", True), (10, "p95", False), (3, "p5", False)],
    )
    def test_latency_series_reads_one_quantile_per_load(self, latency, node, quantile, local_only):
        expected = {"dl": [], "hb": []}
        for point in latency.points:
            result = point.result
            summary = (result.latency_local if local_only else result.latency_all)[node]
            expected[point.spec.protocol].append(
                (
                    point.spec.workload.rate_bytes_per_second,
                    None if summary is None else getattr(summary, quantile),
                )
            )
        series = figures.latency_series(latency, node, quantile, local_only)
        assert series == expected
        assert [load for load, _ in series["dl"]] == [300_000.0, 1_000_000.0]
        if node == 10:
            assert series["dl"][1][1] is None and series["dl"][0][1] is not None

    def test_latency_metric_table_has_both_metrics_per_node(self, latency):
        def quantile(summary, name):
            return None if summary is None else getattr(summary, name)

        for point in latency.points:
            result = point.result
            assert figures.latency_metric_table(point) == [
                {
                    "node": node,
                    "local_p50": quantile(result.latency_local[node], "p50"),
                    "local_p95": quantile(result.latency_local[node], "p95"),
                    "all_p50": quantile(result.latency_all[node], "p50"),
                    "all_p95": quantile(result.latency_all[node], "p95"),
                }
                for node in range(16)
            ]
        hb_high = figures.latency_metric_table(latency.points[3])
        assert [row["node"] for row in hb_high if row["local_p50"] is None] == [10, 15]


class TestScalability:
    def test_model_sweep_shape(self):
        base = get_scenario("fig12-scalability").base
        points = figures.model_sweep(base, cluster_sizes=(16, 64), block_sizes=(500_000,))
        assert [(point["n"], point["block_size"]) for point in points] == [
            (16, 500_000), (64, 500_000)
        ]
        assert points[1]["dispersal_fraction"] < points[0]["dispersal_fraction"]
        # The entry supplies the conditions: 10 MB/s per node, 100 ms links, DL.
        estimate = estimate_throughput(
            ProtocolParams.for_n(64), 500_000, 10 * MB, one_way_delay=0.1, protocol="dl"
        )
        assert points[1]["throughput"] == estimate.throughput
        assert points[1]["dispersal_fraction"] == estimate.dispersal_fraction

    def test_simulated_point_smoke(self):
        """``validate_cost_model`` sets one simulated point beside the model's."""
        result = entry_sweep(
            "fig12-scalability",
            {
                "duration": 10.0,
                "topology.num_nodes": 4,
                "bandwidth.rate": 2 * MB,
                "node.max_block_size": 100_000,
                "node.nagle_size": 100_000,
            },
            grid={},
        )
        (point,) = result.points
        estimate = estimate_throughput(
            ProtocolParams.for_n(4), 100_000, 2 * MB, one_way_delay=0.1, protocol="dl"
        )
        assert figures.validate_cost_model(point) == {
            "n": 4,
            "block_size": 100_000,
            "simulated_throughput": mean(point.result.throughputs),
            "modelled_throughput": estimate.throughput,
            "simulated_fraction": mean(point.result.dispersal_fractions),
            "modelled_fraction": estimate.dispersal_fraction,
            "throughput_ratio": mean(point.result.throughputs) / estimate.throughput,
        }
        assert point.result.mean_throughput > 0
        assert 0 < mean(point.result.dispersal_fractions) < 1


class TestSummary:
    def test_headline_from_results(self, geo, latency):
        results = {point.spec.protocol: point.result for point in geo.points}
        tput = {protocol: mean(result.throughputs) for protocol, result in results.items()}
        headline = figures.headline_numbers(geo)
        assert isinstance(headline, figures.HeadlineNumbers)
        assert asdict(headline) == {
            "dl_over_hb": tput["dl"] / tput["hb"] - 1.0,
            "linking_over_hb": tput["hb-link"] / tput["hb"] - 1.0,
            "dl_over_hb_link": tput["dl"] / tput["hb-link"] - 1.0,
            "coupled_penalty": 1.0 - tput["dl-coupled"] / tput["dl"],
            "latency_reduction": None,
        }

        # The latency comparison is made at the sweep's highest load.
        medians = {
            point.spec.protocol: mean([s.p50 for s in point.result.latency_local if s is not None])
            for point in latency.points
            if point.spec.workload.rate_bytes_per_second == 1_000_000.0
        }
        with_latency = figures.headline_numbers(geo, latency)
        assert with_latency.latency_reduction == 1.0 - medians["dl"] / medians["hb"]
        assert replace(with_latency, latency_reduction=None) == headline

    def test_headline_leaves_out_what_was_not_run(self, geo, latency):
        three = replace(geo, points=[p for p in geo.points if p.spec.protocol != "dl-coupled"])
        assert figures.headline_numbers(three).coupled_penalty is None
        dl_only = replace(latency, points=latency.points[:2])
        assert figures.headline_numbers(three, dl_only).latency_reduction is None
        # A protocol with no local sample at the comparison load has no median.
        silent = replace(
            latency.points[3].result, latency_local=[None] * 16
        )
        no_samples = replace(
            latency, points=latency.points[:3] + [replace(latency.points[3], result=silent)]
        )
        assert figures.headline_numbers(three, no_samples).latency_reduction is None
