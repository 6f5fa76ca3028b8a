"""Tests for the bandwidth-limited priority pipe."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.bandwidth import ConstantBandwidth, PiecewiseConstantBandwidth
from repro.sim.events import Simulator
from repro.sim.messages import Priority
from repro.sim.pipe import Pipe
from tests.test_bandwidth import GAPS, SIZES, breakpoint_lists


def make_pipe(rate=100.0):
    sim = Simulator()
    return sim, Pipe(sim, ConstantBandwidth(rate))


class TestServiceOrder:
    def test_transfer_duration(self):
        sim, pipe = make_pipe(rate=100.0)
        done = []
        pipe.submit(50, Priority.DISPERSAL, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.5)]

    def test_fifo_within_priority(self):
        sim, pipe = make_pipe(rate=100.0)
        done = []
        pipe.submit(100, Priority.DISPERSAL, lambda: done.append("a"))
        pipe.submit(100, Priority.DISPERSAL, lambda: done.append("b"))
        sim.run()
        assert done == ["a", "b"]

    def test_dispersal_preempts_queued_retrieval(self):
        sim, pipe = make_pipe(rate=100.0)
        done = []
        # One transfer is in flight; then a retrieval and a dispersal arrive.
        pipe.submit(10, Priority.DISPERSAL, lambda: done.append("first"))
        pipe.submit(100, Priority.RETRIEVAL, lambda: done.append("retrieval"))
        pipe.submit(100, Priority.DISPERSAL, lambda: done.append("dispersal"))
        sim.run()
        assert done == ["first", "dispersal", "retrieval"]

    def test_rank_orders_within_priority(self):
        sim, pipe = make_pipe(rate=100.0)
        done = []
        pipe.submit(10, Priority.DISPERSAL, lambda: done.append("head"))
        pipe.submit(10, Priority.RETRIEVAL, lambda: done.append("epoch3"), rank=3.0)
        pipe.submit(10, Priority.RETRIEVAL, lambda: done.append("epoch1"), rank=1.0)
        pipe.submit(10, Priority.RETRIEVAL, lambda: done.append("epoch2"), rank=2.0)
        sim.run()
        assert done == ["head", "epoch1", "epoch2", "epoch3"]

    def test_time_varying_rate(self):
        sim = Simulator()
        pipe = Pipe(sim, PiecewiseConstantBandwidth([(0.0, 10.0), (1.0, 90.0)]))
        done = []
        pipe.submit(100, Priority.DISPERSAL, lambda: done.append(sim.now))
        sim.run()
        # 10 bytes in the first second, remaining 90 bytes at 90 B/s.
        assert done == [pytest.approx(2.0)]


class TestAbort:
    def test_aborted_transfer_consumes_no_time(self):
        sim, pipe = make_pipe(rate=10.0)
        done = []
        cancelled = {"flag": False}
        pipe.submit(100, Priority.DISPERSAL, lambda: done.append("first"))
        pipe.submit(
            1000,
            Priority.DISPERSAL,
            lambda: done.append("aborted"),
            abort=lambda: cancelled["flag"],
        )
        pipe.submit(10, Priority.DISPERSAL, lambda: done.append("last"))
        cancelled["flag"] = True
        sim.run()
        assert done == ["first", "last"]
        assert sim.now == pytest.approx(11.0)
        assert pipe.bytes_aborted == 1000

    def test_abort_false_still_transfers(self):
        sim, pipe = make_pipe(rate=10.0)
        done = []
        pipe.submit(10, Priority.DISPERSAL, lambda: done.append("kept"), abort=lambda: False)
        sim.run()
        assert done == ["kept"]


class TestReentrantSubmission:
    def test_submit_from_on_done_serves_in_order(self):
        # A transfer submitted from inside another transfer's ``on_done`` must
        # not observe a half-updated pipe: it queues normally and is served
        # under the usual priority/FIFO order.
        sim, pipe = make_pipe(rate=100.0)
        done = []

        def first_done():
            done.append(("first", sim.now))
            pipe.submit(100, Priority.DISPERSAL, lambda: done.append(("nested", sim.now)))

        pipe.submit(100, Priority.DISPERSAL, first_done)
        pipe.submit(100, Priority.DISPERSAL, lambda: done.append(("second", sim.now)))
        sim.run()
        assert [label for label, _ in done] == ["first", "second", "nested"]
        assert done[0][1] == pytest.approx(1.0)
        assert done[1][1] == pytest.approx(2.0)
        assert done[2][1] == pytest.approx(3.0)
        assert pipe.bytes_transferred == 300

    def test_submit_to_idle_pipe_from_on_done(self):
        # Resubmitting into a pipe that is about to go idle (from the last
        # transfer's on_done) must restart service exactly once.
        sim, pipe = make_pipe(rate=100.0)
        done = []

        def resubmit():
            done.append("first")
            pipe.submit(50, Priority.DISPERSAL, lambda: done.append("again"))

        pipe.submit(100, Priority.DISPERSAL, resubmit)
        sim.run()
        assert done == ["first", "again"]
        assert sim.now == pytest.approx(1.5)

    def test_submit_starts_via_simulator_not_caller_frame(self):
        sim, pipe = make_pipe(rate=100.0)
        served = []
        pipe.submit(100, Priority.DISPERSAL, lambda: served.append(sim.now))
        # Nothing is served synchronously inside the submitting frame.
        assert served == []
        assert pipe.queued_bytes == 100
        sim.run()
        assert served == [pytest.approx(1.0)]

    def test_same_instant_higher_priority_queues_behind_idle_head(self):
        # The transfer that found the pipe idle starts first (exactly as a
        # synchronous start would have); a same-instant dispersal preempts
        # only the queue, not the head.
        sim, pipe = make_pipe(rate=100.0)
        done = []
        pipe.submit(10, Priority.RETRIEVAL, lambda: done.append("head"), rank=5.0)
        pipe.submit(10, Priority.DISPERSAL, lambda: done.append("dispersal"))
        sim.run()
        assert done == ["head", "dispersal"]


class TestBatchedDrain:
    def test_unlimited_pipe_drains_backlog_in_one_event(self):
        sim = Simulator()
        pipe = Pipe(sim, ConstantBandwidth(None))
        done = []
        for label in ("a", "b", "c"):
            pipe.submit(1_000, Priority.DISPERSAL, lambda label=label: done.append(label))
        sim.run()
        assert done == ["a", "b", "c"]
        assert pipe.bytes_transferred == 3_000
        # The batched drain still counts one semantic event per transfer.
        assert sim.processed_events == 3

    def test_zero_size_transfers_complete_at_current_instant(self):
        sim, pipe = make_pipe(rate=100.0)
        done = []
        pipe.submit(0, Priority.DISPERSAL, lambda: done.append(sim.now))
        pipe.submit(0, Priority.DISPERSAL, lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0, 0.0]

    def test_abort_accounting_under_batched_drain(self):
        # ``bytes_aborted`` must cover entries dropped from both the FIFO and
        # the ranked queues, including consecutive drops inside one drain.
        sim, pipe = make_pipe(rate=100.0)
        done = []
        cancelled = {"flag": False}

        def abort():
            return cancelled["flag"]
        pipe.submit(10, Priority.DISPERSAL, lambda: done.append("head"))
        pipe.submit(20, Priority.DISPERSAL, lambda: done.append("x"), abort=abort)
        pipe.submit(30, Priority.DISPERSAL, lambda: done.append("y"), abort=abort)
        pipe.submit(40, Priority.RETRIEVAL, lambda: done.append("z"), rank=2.0, abort=abort)
        pipe.submit(50, Priority.RETRIEVAL, lambda: done.append("kept"), rank=3.0)
        cancelled["flag"] = True
        sim.run()
        assert done == ["head", "kept"]
        assert pipe.bytes_aborted == 20 + 30 + 40
        assert pipe.bytes_transferred == 10 + 50

    def test_aborted_idle_head_does_not_block_queue(self):
        # The idle-head transfer itself can be aborted before the kick runs;
        # the rest of the backlog must still be served.
        sim, pipe = make_pipe(rate=100.0)
        done = []
        cancelled = {"flag": True}
        pipe.submit(
            100, Priority.DISPERSAL, lambda: done.append("head"),
            abort=lambda: cancelled["flag"],
        )
        pipe.submit(10, Priority.DISPERSAL, lambda: done.append("next"))
        sim.run()
        assert done == ["next"]
        assert pipe.bytes_aborted == 100
        assert sim.now == pytest.approx(0.1)


class TestAccounting:
    def test_bytes_and_busy_time(self):
        sim, pipe = make_pipe(rate=100.0)
        pipe.submit(50, Priority.DISPERSAL, lambda: None)
        pipe.submit(150, Priority.RETRIEVAL, lambda: None)
        sim.run()
        assert pipe.bytes_transferred == 200
        assert pipe.busy_time == pytest.approx(2.0)

    def test_queued_bytes(self):
        sim, pipe = make_pipe(rate=1.0)
        pipe.submit(10, Priority.DISPERSAL, lambda: None)
        pipe.submit(20, Priority.RETRIEVAL, lambda: None)
        # Serving starts via the simulator, not in the submitting frame: both
        # transfers are queued until the scheduler runs the pipe.
        assert pipe.queued_bytes == 30
        sim.run(until=0.0)
        assert pipe.queued_bytes == 20  # the first transfer is now in flight

    def test_negative_size_rejected(self):
        _, pipe = make_pipe()
        with pytest.raises(ValueError):
            pipe.submit(-1, Priority.DISPERSAL, lambda: None)


class TestCompletionTimesAreTheTraces:
    """The segment cursor is an access path, never a second integrator: every
    completion time is bit-equal to ``trace.finish_time`` from the instant
    service could start."""

    @staticmethod
    def check(trace, submissions):
        sim = Simulator()
        pipe = Pipe(sim, trace)
        done = []
        expected = []
        time = free_at = 0.0
        for gap, size in submissions:
            time += gap
            sim.schedule_at(
                time, lambda size=size: pipe.submit(size, Priority.DISPERSAL, lambda: done.append(sim.now))
            )
            free_at = trace.finish_time(max(time, free_at), size)
            expected.append(free_at)
        if math.inf in expected:
            with pytest.raises(RuntimeError, match="never completes"):
                sim.run()
            assert done == expected[: expected.index(math.inf)]
        else:
            sim.run()
            assert done == expected
            assert pipe.bytes_transferred == sum(size for _, size in submissions)

    @given(breakpoints=breakpoint_lists(), submissions=st.lists(st.tuples(GAPS, SIZES), max_size=12))
    def test_piecewise(self, breakpoints, submissions):
        self.check(PiecewiseConstantBandwidth(breakpoints), submissions)

    @given(
        rate=st.sampled_from((None, 10.0, 40.0, 3.0)),
        submissions=st.lists(st.tuples(GAPS, SIZES), max_size=12),
    )
    def test_constant_and_unlimited(self, rate, submissions):
        self.check(ConstantBandwidth(rate), submissions)

    def test_directed_corners(self):
        # Starts before the first breakpoint, finishes exactly on a breakpoint,
        # waits out a zero-rate segment, and sends nothing (size 0) mid-stall.
        trace = PiecewiseConstantBandwidth([(0.5, 40.0), (1.0, 0.0), (2.0, 100.0)])
        self.check(trace, [(0.0, 10), (0.0, 10), (0.25, 25), (1.0, 0), (0.0, 100)])

    def test_cursor_asks_the_trace_only_on_leaving_a_segment(self):
        class Counting(PiecewiseConstantBandwidth):
            lookups = 0
            integrations = 0

            def segment_at(self, time):
                type(self).lookups += 1
                return super().segment_at(time)

            def finish_time(self, start, size):
                type(self).integrations += 1
                return super().finish_time(start, size)

        sim = Simulator()
        pipe = Pipe(sim, Counting([(0.0, 80.0), (1.0, 40.0), (4.0, 40.0)]))
        done = []
        for _ in range(12):  # 0.125 s each in the first segment, 0.25 s in the second
            pipe.submit(10, Priority.DISPERSAL, lambda: done.append(sim.now))
        sim.run()
        assert done[7] == 1.0 and done[-1] == 2.0
        # One lookup at construction, one when the clock reaches t=1; the
        # eighth transfer ends exactly on that breakpoint and none straddles
        # it, so nothing is integrated.
        assert (Counting.lookups, Counting.integrations) == (2, 0)
        pipe.submit(100, Priority.DISPERSAL, lambda: done.append(sim.now))  # 2.0 -> 4.5
        sim.run()
        assert done[-1] == 4.5
        assert (Counting.lookups, Counting.integrations) == (2, 1)
