"""Tests for the discrete-event simulator core."""

import heapq
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import InternalCallback, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.schedule(1.5, lambda: order.append("middle"))
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_ties_run_in_fifo_order(self):
        sim = Simulator()
        order = []
        for label in ("a", "b", "c"):
            sim.schedule(1.0, lambda label=label: order.append(label))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]
        assert sim.now == 3.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_may_schedule_more_events(self):
        sim = Simulator()
        hits = []

        def recur(depth):
            hits.append(sim.now)
            if depth > 0:
                sim.schedule(1.0, lambda: recur(depth - 1))

        sim.schedule(0.0, lambda: recur(3))
        sim.run()
        assert hits == [0.0, 1.0, 2.0, 3.0]


class TestRunLimits:
    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        end = sim.run(until=5.0)
        assert fired == [1]
        assert end == 5.0
        assert sim.pending_events == 1

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        assert sim.run(until=7.0) == 7.0
        assert sim.now == 7.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_processed_events_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 4

    def test_resume_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("b"))
        sim.run(until=2.0)
        sim.run()
        assert fired == ["a", "b"]


class TestCancellation:
    def test_cancelled_timer_never_fires(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_event(1.0, lambda: fired.append("cancelled"))
        sim.schedule(2.0, lambda: fired.append("kept"))
        assert event.cancel() is True
        sim.run()
        assert fired == ["kept"]

    def test_cancel_is_o1_and_lazy(self):
        sim = Simulator()
        event = sim.schedule_event(5.0, lambda: None)
        event.cancel()
        # Lazy deletion: the dead entry stays in the heap but is not pending.
        assert sim.pending_events == 0
        assert sim.run() == 0.0  # nothing executes, clock does not advance

    def test_cancelling_twice_is_noop(self):
        sim = Simulator()
        event = sim.schedule_event(1.0, lambda: None)
        assert event.cancel() is True
        assert event.cancel() is False
        assert event.cancelled

    def test_cancelling_executed_event_is_noop(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_event(1.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1]
        assert event.cancelled  # executing retires the handle
        assert event.cancel() is False
        assert sim.processed_events == 1

    def test_cancelled_events_do_not_count_as_processed(self):
        sim = Simulator()
        events = [sim.schedule_event(float(i), lambda: None) for i in range(5)]
        events[1].cancel()
        events[3].cancel()
        sim.run()
        assert sim.processed_events == 3

    def test_pending_events_excludes_lazily_deleted_entries(self):
        sim = Simulator()
        events = [sim.schedule_event(float(i + 1), lambda: None) for i in range(4)]
        sim.schedule(10.0, lambda: None)
        assert sim.pending_events == 5
        events[0].cancel()
        events[2].cancel()
        assert sim.pending_events == 3

    def test_cancel_from_inside_an_event(self):
        sim = Simulator()
        fired = []
        later = sim.schedule_event(2.0, lambda: fired.append("later"))
        sim.schedule(1.0, later.cancel)
        sim.schedule(3.0, lambda: fired.append("end"))
        sim.run()
        assert fired == ["end"]

    def test_mass_cancellation_compacts_and_survivors_fire(self):
        # Enough cancellations to cross the lazy-deletion compaction
        # threshold; the surviving events still run in order.
        sim = Simulator()
        fired = []
        doomed = [sim.schedule_event(1.0 + i, lambda: fired.append("dead")) for i in range(500)]
        sim.schedule_event(1000.0, lambda: fired.append("a"))
        sim.schedule_event(1001.0, lambda: fired.append("b"))
        for event in doomed:
            event.cancel()
        assert sim.pending_events == 2
        sim.run()
        assert fired == ["a", "b"]
        assert sim.now == 1001.0

    def test_schedule_event_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_event(-1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_event_at(1.0, lambda: None)


class TestInternalCallbacks:
    def test_internal_callbacks_run_in_order_but_are_not_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("before"))
        sim.schedule_internal(1.0, InternalCallback(lambda: fired.append("internal")))
        sim.schedule(1.0, lambda: fired.append("after"))
        sim.run()
        assert fired == ["before", "internal", "after"]
        assert sim.processed_events == 2  # the internal hand-off is not counted


class TestInOrderLane:
    def test_in_order_entries_bypass_the_heap(self):
        sim = Simulator()
        fired = []
        for label, delay in (("a", 1.0), ("b", 1.0), ("c", 2.5)):
            sim.schedule_in_order(delay, lambda label=label: fired.append(label))
        assert len(sim._lane) == 3 and not sim._queue
        assert sim.pending_events == 3
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.processed_events == 3

    def test_out_of_order_entry_lands_in_the_heap_and_fires_in_time_seq_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_in_order(2.0, lambda: fired.append("lane@2"))
        sim.schedule(1.0, lambda: fired.append("heap@1"))
        sim.schedule_in_order(1.0, lambda: fired.append("early@1"))  # before the tail
        sim.schedule_in_order(2.0, lambda: fired.append("tie@2"))  # equal to the tail
        sim.schedule(2.0, lambda: fired.append("heap@2"))
        assert [entry[1] for entry in sim._lane] == [1, 4]
        assert sorted(entry[1] for entry in sim._queue) == [2, 3, 5]
        assert sim.pending_events == 5
        sim.run()
        # Strict (time, seq): the fallback entry keeps the slot its sequence
        # number gives it, on either side of heap entries at the same instant.
        assert fired == ["heap@1", "early@1", "lane@2", "tie@2", "heap@2"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule_in_order(-0.1, lambda: None)

    def test_until_and_budget_cover_the_lane(self):
        sim = Simulator()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            sim.schedule_in_order(delay, lambda delay=delay: fired.append(delay))
        assert sim.run(until=1.5) == 1.5
        assert fired == [1.0] and sim.pending_events == 2
        sim.run(max_events=1)
        assert fired == [1.0, 2.0] and sim.now == 2.0
        assert sim.last_seq == 3

    def test_snapshot_round_trip_with_a_pending_lane(self):
        world = _World(Simulator())
        for kind, delay in (("in_order", 1.0), ("schedule", 1.5), ("in_order", 2.0)):
            world.issue((kind, delay, 0.0, 0, ()))
        world.sim.run(until=1.0)
        assert len(world.sim._lane) == 1
        world = pickle.loads(pickle.dumps(world))
        assert world.sim.pending_events == 2 and len(world.sim._lane) == 1
        world.sim.run()
        assert world.log == [("fire", 1, 1.0), ("fire", 2, 1.5), ("fire", 3, 2.0)]


class TestBudgetAndLazyDeletion:
    def test_exhausted_budget_looks_past_cancelled_entries(self):
        # What ``run`` returns must not depend on whether a cancelled event
        # has physically left the heap yet.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule_event(2.0, lambda: None).cancel()
        assert sim.run(until=5.0, max_events=1) == 5.0
        assert sim.pending_events == 0

    def test_exhausted_budget_stops_at_a_live_entry(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule_event(2.0, lambda: None).cancel()
        sim.schedule(3.0, lambda: None)
        assert sim.run(until=5.0, max_events=1) == 1.0
        assert sim.pending_events == 1


# ---------------------------------------------------------------------------
# Property: the queue (heap + in-order lane) against a heap-only reference
# ---------------------------------------------------------------------------


class _ReferenceEvent:
    def __init__(self, callback):
        self.callback = callback

    def cancel(self):
        pending = self.callback is not None
        self.callback = None
        return pending


class ReferenceSimulator:
    """The scheduling contract with nothing but a heap and eager bookkeeping.

    Every flavour is one ``(when, seq, item)`` heap entry; cancelled events
    are filtered out, not lazily skipped, so nothing here can depend on the
    lane, on lazy deletion or on compaction.
    """

    def __init__(self):
        self.now = 0.0
        self.processed_events = 0
        self._seq = 0
        self._heap = []

    def _push(self, when, item):
        assert when >= self.now
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, item))
        return self._seq

    def schedule(self, delay, callback):
        self._push(self.now + delay, callback)

    schedule_in_order = schedule

    def schedule_at(self, when, callback):
        self._push(when, callback)

    def schedule_event(self, delay, callback):
        event = _ReferenceEvent(callback)
        self._push(self.now + delay, event)
        return event

    def schedule_internal(self, delay, internal):
        return self._push(self.now + delay, internal)

    def reschedule_at(self, when, seq, callback):
        assert when >= self.now
        heapq.heappush(self._heap, (when, seq, callback))

    def _drop_cancelled(self):
        live = [e for e in self._heap if not (type(e[2]) is _ReferenceEvent and e[2].callback is None)]
        heapq.heapify(live)
        self._heap = live

    @property
    def pending_events(self):
        self._drop_cancelled()
        return len(self._heap)

    def run(self, until=None, max_events=None):
        executed = 0
        while True:
            self._drop_cancelled()
            if not self._heap:
                break
            when, _seq, item = self._heap[0]
            if until is not None and when > until:
                self.now = until
                return until
            if max_events is not None and executed >= max_events:
                return self.now
            heapq.heappop(self._heap)
            self.now = when
            if type(item) is InternalCallback:
                item.callback()
                continue
            if type(item) is _ReferenceEvent:
                event, item = item, item.callback
                event.callback = None  # executed: a later cancel() returns False
            item()
            executed += 1
            self.processed_events += 1
        if until is not None:
            self.now = max(self.now, until)
        return self.now


class _World:
    """Runs one generated program against one simulator and logs what fires.

    An op is ``(kind, delay, second_delay, pick, children)``; firing an op's
    callback logs it and issues its children, so scheduling happens from
    inside callbacks as well as up front.  Labels are drawn in issue order:
    two simulators that execute in the same order produce equal logs.
    """

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.handles = []
        self.issued = 0

    def issue(self, op):
        kind, delay, second_delay, pick, children = op
        sim = self.sim
        self.issued += 1
        fire = _Fire(self, self.issued, children)
        if kind == "schedule":
            sim.schedule(delay, fire)
        elif kind == "schedule_at":
            sim.schedule_at(sim.now + delay, fire)
        elif kind == "in_order":
            sim.schedule_in_order(delay, fire)
        elif kind == "event":
            self.handles.append(sim.schedule_event(delay, fire))
        elif kind == "cancel":
            if self.handles:
                handle = self.handles[pick % len(self.handles)]
                self.log.append(("cancel", self.issued, handle.cancel()))
        else:
            assert kind == "internal"
            handoff = _HandOff(self, second_delay, fire)
            handoff.seq = sim.schedule_internal(delay, InternalCallback(handoff))


class _Fire:
    def __init__(self, world, label, children):
        self.world = world
        self.label = label
        self.children = children

    def __call__(self):
        world = self.world
        world.log.append(("fire", self.label, world.sim.now))
        for op in self.children:
            world.issue(op)


class _HandOff:
    """The pipes' pattern: an internal callback that hands its retired
    sequence slot to a real event."""

    def __init__(self, world, delay, fire):
        self.world = world
        self.delay = delay
        self.fire = fire
        self.seq = -1

    def __call__(self):
        sim = self.world.sim
        self.world.log.append(("internal", self.fire.label, sim.now))
        sim.reschedule_at(sim.now + self.delay, self.seq, self.fire)


_KINDS = ("schedule", "schedule_at", "in_order", "in_order", "event", "cancel", "internal")
#: Few distinct values, so ties, zero delays and out-of-order lane entries are common.
_DELAYS = st.sampled_from((0.0, 0.0, 0.25, 0.5, 0.5, 1.0, 1.5, 3.0))


def _ops(children):
    op = st.tuples(st.sampled_from(_KINDS), _DELAYS, _DELAYS, st.integers(0, 7), children)
    return st.lists(op, max_size=4).map(tuple)


_PROGRAMS = st.recursive(st.just(()), _ops, max_leaves=30)
_SLICES = st.lists(
    st.tuples(
        st.one_of(st.none(), st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0))),
        st.one_of(st.none(), st.integers(0, 6)),
        st.booleans(),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None)
@given(program=_PROGRAMS, slices=_SLICES)
def test_queue_matches_a_heap_only_reference(program, slices):
    real, reference = _World(Simulator()), _World(ReferenceSimulator())
    for world in (real, reference):
        for op in program:
            world.issue(op)

    def observe(world):
        sim = world.sim
        return world.log, sim.now, sim.processed_events, sim.pending_events

    assert observe(real) == observe(reference)
    for step, max_events, round_trip in [*slices, (None, None, False)]:
        until = None if step is None else reference.sim.now + step
        assert real.sim.run(until=until, max_events=max_events) == reference.sim.run(
            until=until, max_events=max_events
        )
        assert observe(real) == observe(reference)
        if round_trip:
            real = pickle.loads(pickle.dumps(real))
    assert real.sim.pending_events == 0 and not real.sim._lane
