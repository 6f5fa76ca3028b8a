"""Measured-bandwidth trace model and file formats (repro.trace)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.trace.io import (
    REPO_ROOT,
    load_trace,
    load_trace_cached,
    parse_csv,
    parse_json,
    resolve_trace_path,
    save_trace,
    to_csv_text,
    to_json_text,
)
from repro.trace.model import MeasuredTrace, NodeTrace

MB = 1_000_000


def two_node_trace() -> MeasuredTrace:
    return MeasuredTrace.from_node_rates(
        "two",
        {
            0: [(0.0, 1 * MB, 2 * MB), (5.0, 2 * MB, 4 * MB), (10.0, 1 * MB, 3 * MB)],
            1: [(0.0, 3 * MB, 6 * MB), (4.0, 1 * MB, 1 * MB)],
        },
    )


class TestModelValidation:
    def test_node_ids_must_be_contiguous(self):
        with pytest.raises(TraceError, match="contiguous"):
            MeasuredTrace.from_node_rates("gap", {0: [(0, 1, 1)], 2: [(0, 1, 1)]})

    def test_unknown_high_node_id_named_in_error(self):
        with pytest.raises(TraceError, match=r"unknown ids \[7\]"):
            MeasuredTrace.from_node_rates("bad", {0: [(0, 1, 1)], 7: [(0, 1, 1)]})

    def test_negative_node_id_rejected(self):
        with pytest.raises(TraceError, match="non-negative"):
            NodeTrace(node=-1, points=((0.0, 1.0, 1.0),))

    def test_non_monotonic_timestamps_rejected(self):
        with pytest.raises(TraceError, match="strictly increasing"):
            MeasuredTrace.from_node_rates("t", {0: [(0, 1, 1), (2, 1, 1), (1, 1, 1)]})

    def test_duplicate_timestamps_rejected(self):
        with pytest.raises(TraceError, match="strictly increasing"):
            MeasuredTrace.from_node_rates("t", {0: [(0, 1, 1), (0, 2, 2)]})

    def test_negative_time_and_rate_rejected(self):
        with pytest.raises(TraceError, match="negative time"):
            MeasuredTrace.from_node_rates("t", {0: [(-1, 1, 1)]})
        with pytest.raises(TraceError, match="negative rate"):
            MeasuredTrace.from_node_rates("t", {0: [(0, -5, 1)]})

    def test_non_finite_values_rejected(self):
        with pytest.raises(TraceError, match="non-finite"):
            MeasuredTrace.from_node_rates("t", {0: [(0, math.inf, 1)]})

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError, match="no nodes"):
            MeasuredTrace(name="empty", nodes=())
        with pytest.raises(TraceError, match="no breakpoints"):
            MeasuredTrace.from_node_rates("empty", {0: []})


class TestModelShape:
    def test_shape_properties(self):
        trace = two_node_trace()
        assert trace.num_nodes == 2
        assert trace.duration == 10.0
        assert trace.num_points == 5

    def test_rates_at_clamps_to_the_ends(self):
        trace = two_node_trace()
        assert trace.rates_at(0, -1.0) == (1 * MB, 2 * MB)  # before the first point
        assert trace.rates_at(0, 7.5) == (2 * MB, 4 * MB)
        assert trace.rates_at(0, 99.0) == (1 * MB, 3 * MB)  # last rate holds forever

    def test_stats_are_time_weighted(self):
        trace = MeasuredTrace.from_node_rates(
            "w", {0: [(0.0, 0.0, 4 * MB), (8.0, 0.0, 2 * MB), (10.0, 0.0, 2 * MB)]}
        )
        stats = trace.stats()[0]
        # 8 s at 4 MB/s + 2 s at 2 MB/s over the 10 s duration = 3.6 MB/s.
        assert stats["down_mean"] == pytest.approx(3.6 * MB)
        assert stats["down_min"] == 2 * MB
        assert stats["down_max"] == 4 * MB


class TestTransforms:
    def test_scaled_multiplies_every_rate(self):
        trace = two_node_trace().scaled(2.0)
        assert trace.rates_at(0, 0.0) == (2 * MB, 4 * MB)
        assert trace.rates_at(1, 6.0) == (2 * MB, 2 * MB)
        with pytest.raises(TraceError):
            trace.scaled(0.0)

    def test_clipped_rebases_and_preserves_rates(self):
        trace = two_node_trace().clipped(4.0, 9.0)
        # The window starts mid-segment: the rate at the old t=4 becomes t=0.
        assert trace.rates_at(0, 0.0) == (1 * MB, 2 * MB)
        assert trace.rates_at(0, 1.0) == (2 * MB, 4 * MB)  # old t=5 breakpoint
        assert trace.rates_at(1, 0.5) == (1 * MB, 1 * MB)
        assert trace.duration < 9.0 - 4.0 + 1e-9
        with pytest.raises(TraceError):
            trace.clipped(3.0, 3.0)

    def test_clipped_window_past_the_duration_is_rejected(self):
        """Regression: a window starting at/past the last breakpoint used to
        silently return a constant extrapolation of the final rates."""
        trace = two_node_trace()  # duration 10 s
        with pytest.raises(TraceError, match="past the trace's last breakpoint"):
            trace.clipped(10.0, 20.0)
        with pytest.raises(TraceError, match="nothing measured remains"):
            trace.clipped(0.0, 1e9).clipped(1e8, 1e9)

    def test_clipped_end_past_the_duration_holds_the_tail(self):
        """`end > duration` is legal: the final rates hold forever, so the
        clip keeps every breakpoint and duration stays at the last one."""
        trace = two_node_trace().clipped(4.0, 1e9)
        assert trace.duration == 10.0 - 4.0
        assert trace.rates_at(0, 1e6) == (1 * MB, 3 * MB)  # tail-hold

    def test_resampled_covers_the_duration(self):
        trace = two_node_trace().resampled(2.5)
        assert [t for t, _, _ in trace.nodes[0].points] == [0.0, 2.5, 5.0, 7.5, 10.0]
        with pytest.raises(TraceError):
            trace.resampled(-1.0)

    def test_resampled_never_extends_the_trace(self):
        """Regression: a 5 s trace resampled at 2 s used to gain a breakpoint
        at 6 s, growing `duration` to 6.0."""
        trace = MeasuredTrace.from_node_rates(
            "five", {0: [(0.0, 1 * MB, 1 * MB), (5.0, 2 * MB, 2 * MB)]}
        )
        resampled = trace.resampled(2.0)
        assert [t for t, _, _ in resampled.nodes[0].points] == [0.0, 2.0, 4.0, 5.0]
        assert resampled.duration == trace.duration == 5.0
        # The carried final tick holds the final measured rates.
        assert resampled.rates_at(0, 5.0) == (2 * MB, 2 * MB)

    def test_resampled_single_breakpoint_trace_stays_degenerate(self):
        trace = MeasuredTrace.from_node_rates("one", {0: [(0.0, 1 * MB, 1 * MB)]})
        resampled = trace.resampled(2.0)
        assert resampled.duration == 0.0
        assert resampled.nodes[0].points == ((0.0, 1 * MB, 1 * MB),)

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.01, max_value=8.0, allow_nan=False),
            min_size=1,
            max_size=12,
        ),
        step=st.floats(min_value=0.05, max_value=7.0, allow_nan=False),
    )
    def test_resampled_duration_is_invariant(self, times, step):
        """resampled(step).duration == duration for arbitrary grids/steps."""
        breakpoints = [(0.0, 1.0, 1.0)]
        t = 0.0
        for gap in times:
            t += float(gap)
            breakpoints.append((t, 1.0, 1.0))
        trace = MeasuredTrace.from_node_rates("prop", {0: breakpoints})
        assert trace.resampled(float(step)).duration == trace.duration

    @settings(max_examples=40, deadline=None)
    @given(
        rates=st.lists(
            st.integers(min_value=0, max_value=10 * MB), min_size=2, max_size=24
        ),
        factor=st.sampled_from([1, 2, 4]),
    )
    def test_resampling_round_trip_is_lossless_on_grid(self, rates, factor):
        """Breakpoints on a 1 s grid survive finer resampling and return exactly."""
        trace = MeasuredTrace.from_node_rates(
            "prop", {0: [(float(i), float(r), float(r)) for i, r in enumerate(rates)]}
        )
        fine = trace.resampled(1.0 / factor)
        back = fine.resampled(1.0)
        assert [p for p in back.nodes[0].points] == [
            (float(i), float(r), float(r)) for i, r in enumerate(rates)
        ]
        # The fine grid never changes the rate function anywhere.
        for t in [i / (2 * factor) for i in range(2 * factor * len(rates))]:
            assert fine.rates_at(0, t) == trace.rates_at(0, t)


class TestBandwidthBridge:
    def test_ingress_is_down_egress_is_up(self):
        ingress, egress = two_node_trace().bandwidth_traces(2)
        assert ingress[0].rate_at(0.0) == 2 * MB
        assert egress[0].rate_at(0.0) == 1 * MB

    def test_larger_cluster_cycles_through_trace_nodes(self):
        ingress, _ = two_node_trace().bandwidth_traces(5)
        assert len(ingress) == 5
        assert ingress[2].rate_at(0.0) == ingress[0].rate_at(0.0)
        assert ingress[3].rate_at(0.0) == ingress[1].rate_at(0.0)

    def test_scale_headroom_and_floor(self):
        trace = MeasuredTrace.from_node_rates("z", {0: [(0.0, 0.0, 0.0), (1.0, 4.0, 8.0)]})
        ingress, egress = trace.bandwidth_traces(1, scale=2.0, egress_headroom=3.0)
        # Measured zeros are floored so transfers stall instead of hanging forever.
        assert ingress[0].rate_at(0.0) == 1.0
        assert egress[0].rate_at(0.0) == 1.0
        assert ingress[0].rate_at(1.5) == 16.0
        assert egress[0].rate_at(1.5) == 24.0

    def test_bad_replay_arguments(self):
        with pytest.raises(TraceError):
            two_node_trace().bandwidth_traces(0)
        with pytest.raises(TraceError):
            two_node_trace().bandwidth_traces(2, scale=0.0)


class TestCsvFormat:
    def test_round_trip(self):
        trace = two_node_trace()
        assert parse_csv(to_csv_text(trace), name="two") == trace

    def test_interleaved_rows_group_by_node(self):
        text = "time,node,up_bps,down_bps\n0,0,1,2\n0,1,3,4\n1,0,5,6\n1,1,7,8\n"
        trace = parse_csv(text)
        assert trace.num_nodes == 2
        assert trace.rates_at(0, 1.5) == (5.0, 6.0)

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "empty"),
            ("time,node,up,down\n", "header"),
            ("time,node,up_bps,down_bps\n0,0,1\n", "expected 4 columns"),
            ("time,node,up_bps,down_bps\n0,zero,1,2\n", "not an integer"),
            ("time,node,up_bps,down_bps\n0,0.5,1,2\n", "not an integer"),
            ("time,node,up_bps,down_bps\nx,0,1,2\n", "line 2"),
            ("time,node,up_bps,down_bps\n0,0,1,2\n0,0,3,4\n", "strictly increasing"),
            ("time,node,up_bps,down_bps\n0,1,1,2\n", "missing ids"),
        ],
    )
    def test_malformed_csv_raises_trace_error(self, text, match):
        with pytest.raises(TraceError, match=match):
            parse_csv(text)


class TestJsonFormat:
    def test_round_trip(self):
        trace = two_node_trace()
        assert parse_json(to_json_text(trace)) == trace

    @pytest.mark.parametrize(
        "text, match",
        [
            ("{ not json", "invalid JSON"),
            ("[1, 2]", "'nodes' mapping"),
            ('{"nodes": {"zero": []}}', "not an integer"),
            ('{"nodes": {"0": [[0, 1]]}}', "must be"),
            ('{"nodes": {"0": [[0, 1, "x"]]}}', "non-numeric"),
            ('{"format": "v999", "nodes": {"0": [[0, 1, 1]]}}', "unsupported format"),
            ('{"nodes": {"0": [[1, 1, 1], [0, 1, 1]]}}', "strictly increasing"),
        ],
    )
    def test_malformed_json_raises_trace_error(self, text, match):
        with pytest.raises(TraceError, match=match):
            parse_json(text)


class TestFiles:
    def test_save_and_load_both_formats(self, tmp_path):
        trace = two_node_trace()
        for suffix in (".csv", ".json"):
            path = tmp_path / f"t{suffix}"
            save_trace(trace, path)
            loaded = load_trace(path)
            assert loaded.nodes == trace.nodes, suffix

    def test_unsupported_extension(self, tmp_path):
        with pytest.raises(TraceError, match="unsupported extension"):
            save_trace(two_node_trace(), tmp_path / "t.yaml")

    def test_unwritable_target_is_a_trace_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file where a directory is needed")
        with pytest.raises(TraceError, match="cannot write"):
            save_trace(two_node_trace(), blocker / "out.csv")

    def test_missing_file_is_a_trace_error(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            load_trace(tmp_path / "absent.csv")

    def test_relative_paths_resolve_against_repo_root(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        resolved = resolve_trace_path("traces/wan-measured.csv")
        assert resolved == REPO_ROOT / "traces" / "wan-measured.csv"
        assert load_trace("traces/wan-measured.csv").num_nodes == 8

    def test_cached_loader_shares_the_parsed_object(self):
        first = load_trace_cached("traces/wan-measured.csv")
        second = load_trace_cached("traces/wan-measured.csv")
        assert first is second

    @pytest.mark.parametrize(
        "name", ["wan-measured.csv", "lte-handover.json", "flash-crowd.csv"]
    )
    def test_bundled_traces_are_valid(self, name):
        trace = load_trace(REPO_ROOT / "traces" / name)
        assert trace.num_nodes >= 4
        assert trace.duration >= 30.0
        stats = trace.stats()
        assert all(row["down_mean"] > 0 and row["up_mean"] > 0 for row in stats)
