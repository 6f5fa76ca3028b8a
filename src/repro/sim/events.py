"""The discrete-event loop.

A :class:`Simulator` owns virtual time and a priority queue of scheduled
callbacks.  Everything in an experiment — message transmissions, bandwidth
changes, protocol timers, workload arrivals — is a callback on this queue,
so a whole wide-area deployment runs deterministically in one thread.

Three scheduling flavours share one queue:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — fire-and-forget.
  The queue entry is a bare ``(when, seq, callback)`` tuple; nothing else is
  allocated, which keeps the pipe/network hot path lean.
* :meth:`Simulator.schedule_in_order` — ``schedule`` for a caller whose due
  times (almost) never decrease, such as a fixed propagation delay added to
  a clock that only moves forward.  Such entries need no heap: they are
  appended to the *in-order lane*, a deque sorted by construction, and an
  entry that would break the order falls back to the heap by itself.
* :meth:`Simulator.schedule_event` / :meth:`Simulator.schedule_event_at` —
  return a slotted :class:`Event` handle with O(1) :meth:`Event.cancel`.
  Cancellation is *lazy*: the heap entry stays put with its callback cleared
  and is discarded when it surfaces (or when a compaction sweep rebuilds the
  heap once more than half the queue is dead), so protocol timers and abort
  paths never pay for heap deletion.

Ordering is strict ``(time, FIFO sequence)``: ties at the same virtual time
run in scheduling order.  All flavours draw from the same sequence counter
and the run loop always executes the smaller of the heap's head and the
lane's head, so they interleave exactly as scheduled — where an entry is
stored changes what it costs, never when it runs.
"""

from __future__ import annotations

import gc
import math
import sys
from collections import deque
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Callable

from repro.common.snapshot import SnapshotState
from repro.sim.profiler import callback_kind

#: Lazy deletion compacts the heap only past this many dead entries (and only
#: when they outnumber the live ones), so small simulations never pay for it.
_COMPACT_MIN_STALE = 64


class Event(SnapshotState):
    """A cancellable scheduled callback (slotted, lazily deleted).

    Returned by the ``schedule_event`` family.  ``cancel()`` is O(1): it
    clears the callback and leaves the dead heap entry for the run loop (or
    a compaction sweep) to discard.  Executing an event also clears the
    callback, so cancelling an already-executed — or already-cancelled —
    event is a harmless no-op.
    """

    __slots__ = ("_owner", "when", "callback")
    _SNAPSHOT_FIELDS = ("_owner", "when", "callback")

    def __init__(self, owner: "Simulator", when: float, callback: Callable[[], None]):
        self._owner = owner
        self.when = when
        self.callback = callback

    @property
    def cancelled(self) -> bool:
        """True once the event can no longer fire (cancelled or executed)."""
        return self.callback is None

    def cancel(self) -> bool:
        """Prevent the callback from running.  Returns True if it was pending."""
        if self.callback is None:
            return False
        self.callback = None
        self._owner._note_cancelled()
        return True


class InternalCallback(SnapshotState):
    """A reusable scheduler hand-off excluded from event accounting.

    Used for internal bookkeeping (e.g. a pipe kicking off service for a
    newly-submitted transfer at the current instant): it runs in strict
    ``(time, sequence)`` order like any event but does not count toward
    ``processed_events`` or a ``run(max_events=...)`` budget, so performance
    accounting stays comparable across scheduler-internals changes.  The
    wrapper is allocated once by its owner and re-scheduled, never per call.
    """

    __slots__ = ("callback",)
    _SNAPSHOT_FIELDS = ("callback",)

    def __init__(self, callback: Callable[[], None]):
        self.callback = callback


class Simulator(SnapshotState):
    """A deterministic discrete-event simulator with floating-point seconds."""

    _SNAPSHOT_FIELDS = (
        "_now",
        "_queue",
        "_lane",
        "_next_seq",
        "_processed_events",
        "_stale",
        "_in_internal",
        "_compact_deferred",
        "profiler",
    )

    def __init__(self) -> None:
        self._now = 0.0
        #: Optional :class:`repro.sim.profiler.SimProfiler`; when set, ``run``
        #: times every callback and attributes host seconds per callback kind.
        self.profiler = None
        #: Heap entries are ``(when, seq, item)`` where ``item`` is a bare
        #: callback (fire-and-forget), an :class:`Event` (cancellable), or an
        #: :class:`InternalCallback` (uncounted bookkeeping).
        self._queue: list[tuple[float, int, Callable[[], None] | Event | InternalCallback]] = []
        #: The in-order lane: ``(when, seq, callback)`` entries in ascending
        #: order by construction (see :meth:`schedule_in_order`).
        self._lane: deque[tuple[float, int, Callable[[], None]]] = deque()
        self._next_seq = 0
        self._processed_events = 0
        #: Cancelled events still occupying heap slots (lazy deletion debt).
        self._stale = 0
        #: True while the run loop is inside an :class:`InternalCallback`
        #: hand-off; heap compaction is deferred until the hand-off returns.
        self._in_internal = False
        #: A compaction became due mid-hand-off and is owed at the next
        #: quiescent point.
        self._compact_deferred = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (useful for performance reporting).

        Cancelled events are skipped, not executed, so they never count.
        """
        return self._processed_events

    @property
    def pending_events(self) -> int:
        """Number of live events still waiting in the queue.

        Lazily-deleted (cancelled) entries still sitting in the heap are
        excluded.
        """
        return len(self._queue) + len(self._lane) - self._stale

    @property
    def last_seq(self) -> int:
        """Sequence number drawn by the most recent ``schedule*`` push.

        Read-only.  A caller that remembers the number its own push drew can
        tell later whether anything has been scheduled since; the express
        network uses it to let consecutive same-instant unicasts share one
        heap entry.  :meth:`reschedule_at` draws no number (it reuses a
        retired, hence smaller, one), so it never reads as a newer push.
        """
        return self._next_seq

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` ``delay`` seconds from now (``delay`` must be >= 0)."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        self._next_seq = seq = self._next_seq + 1
        heappush(self._queue, (self._now + delay, seq, callback))

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute virtual time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: t={when} < now={self._now}")
        self._next_seq = seq = self._next_seq + 1
        heappush(self._queue, (when, seq, callback))

    def schedule_in_order(self, delay: float, callback: Callable[[], None]) -> None:
        """:meth:`schedule` for callers whose due times rarely decrease.

        Same contract, same sequence counter, same ``(time, seq)`` execution
        order.  The entry joins the in-order lane when it is due no earlier
        than the lane's tail (its newer sequence number then sorts it last)
        and the heap otherwise, so a caller that is always in order costs an
        append and a ``popleft`` per event instead of two heap sifts.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        self._next_seq = seq = self._next_seq + 1
        when = self._now + delay
        lane = self._lane
        if lane and when < lane[-1][0]:
            heappush(self._queue, (when, seq, callback))
        else:
            lane.append((when, seq, callback))

    def schedule_internal(self, delay: float, internal: InternalCallback) -> int:
        """Schedule a preallocated :class:`InternalCallback` ``delay`` from now.

        Returns the sequence number the entry occupies.  The caller may later
        hand that slot to a real event via :meth:`reschedule_at` (after this
        internal callback has fired), which keeps same-instant tie-breaking
        identical to code that scheduled the event directly — the pipes use
        this so deferred service starts cannot reorder anything.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        self._next_seq = seq = self._next_seq + 1
        heappush(self._queue, (self._now + delay, seq, internal))
        return seq

    def reschedule_at(self, when: float, seq: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at ``when`` under an already-retired ``seq``.

        Only valid for a sequence number whose original entry has already
        been popped (e.g. from inside the :class:`InternalCallback` that owned
        it); reusing a live sequence number would create duplicate heap keys.
        """
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: t={when} < now={self._now}")
        heappush(self._queue, (when, seq, callback))

    def count_inline_event(self) -> None:
        """Account for a semantic event a subsystem executed inline.

        Subsystems that complete work without a scheduler round-trip (e.g. a
        pipe draining a zero-duration transfer in batch) call this so
        ``processed_events`` keeps counting semantic events, comparable
        across batching optimisations.
        """
        self._processed_events += 1

    def count_inline_events(self, count: int) -> None:
        """Batch form of :meth:`count_inline_event` for fan-out deliveries."""
        self._processed_events += count

    def schedule_event(self, delay: float, callback: Callable[[], None]) -> Event:
        """Like :meth:`schedule`, but returns a cancellable :class:`Event`."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        return self.schedule_event_at(self._now + delay, callback)

    def schedule_event_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Like :meth:`schedule_at`, but returns a cancellable :class:`Event`."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past: t={when} < now={self._now}")
        event = Event(self, when, callback)
        self._next_seq = seq = self._next_seq + 1
        heappush(self._queue, (when, seq, event))
        return event

    def _note_cancelled(self) -> None:
        self._stale += 1
        if self._stale > _COMPACT_MIN_STALE and self._stale * 2 > len(self._queue):
            if self._in_internal:
                # An InternalCallback hand-off is mid-flight (it may hold a
                # retired sequence number it is about to reuse, and it may be
                # the checkpoint timer pickling this very queue).  Rebuilding
                # the heap here would reorder lazily-deleted slots under it;
                # defer to the quiescent point right after the hand-off.
                self._compact_deferred = True
                return
            self._compact()

    def _compact(self) -> None:
        # Compact in place: ``run`` holds a reference to this list.
        self._queue[:] = [
            entry
            for entry in self._queue
            if not (type(entry[2]) is Event and entry[2].callback is None)
        ]
        heapify(self._queue)
        self._stale = 0

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Execute events until the queue drains, ``until`` is reached, or
        ``max_events`` events have run.  Returns the virtual time at which the
        run stopped.  Cancelled events are discarded without executing (and
        without counting against ``max_events``).

        This is the simulator's only loop: the event budget and the optional
        :attr:`profiler` are locals it tests once per event.  The processed
        counter is batched into a local and written back on every exit path
        (and before each :class:`InternalCallback`, so a checkpoint taken
        inside the hand-off captures an exact ``processed_events``).

        Python's cyclic garbage collector is suspended for the duration of
        the loop (and restored after, even on an exception).  The loop
        allocates at enormous rates but its garbage is acyclic — messages,
        transfers and queue entries die by refcount as soon as the queue
        drops them — so collector passes never free anything here; they
        only pause the run to rescan every live object, which at
        million-object scenario scales costs ~20% of the whole run.
        Callers that were already running with the collector disabled are
        left untouched.
        """
        queue = self._queue
        lane = self._lane
        record = None if self.profiler is None else self.profiler.record
        horizon = math.inf if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        processed = 0  # events executed by this call ...
        synced = 0  # ... of which ``_processed_events`` already includes
        resume_gc = gc.isenabled()
        if resume_gc:
            gc.disable()
        try:
            while True:
                # Next is the smaller of the two heads.  Sequence numbers are
                # unique among live entries, so comparing the tuples never
                # reaches the callbacks.
                if lane and not (queue and queue[0] < lane[0]):
                    entry = lane[0]
                    in_order = True
                elif queue:
                    entry = queue[0]
                    in_order = False
                else:
                    break
                when = entry[0]
                if when > horizon:
                    self._now = horizon
                    return horizon
                if processed >= budget and not (
                    type(entry[2]) is Event and entry[2].callback is None
                ):
                    # Out of budget with live work left.  A cancelled entry
                    # is discarded below first, so the stopping point never
                    # depends on how lazily it was deleted.
                    return self._now
                if in_order:
                    lane.popleft()
                    callback = entry[2]  # the lane holds bare callbacks only
                else:
                    heappop(queue)
                    item = entry[2]
                    cls = type(item)
                    if cls is Event:
                        callback = item.callback
                        if callback is None:
                            self._stale -= 1
                            continue
                        item.callback = None  # executed: later cancel() is a no-op
                    elif cls is InternalCallback:
                        # Internal bookkeeping: runs in order, not an event.
                        # Heap compaction waits until the hand-off returns
                        # (quiescent point).
                        self._now = when
                        self._processed_events += processed - synced
                        synced = processed
                        self._in_internal = True
                        callback = item.callback
                        if record is None:
                            callback()
                        else:
                            started = perf_counter()
                            callback()
                            record("internal:" + callback_kind(callback), perf_counter() - started)
                        self._in_internal = False
                        if self._compact_deferred:
                            self._compact_deferred = False
                            self._compact()
                        continue
                    else:
                        callback = item
                self._now = when
                if record is None:
                    callback()
                else:
                    kind = "event:" + callback_kind(callback)
                    started = perf_counter()
                    callback()
                    record(kind, perf_counter() - started)
                processed += 1
        finally:
            self._processed_events += processed - synced
            if resume_gc:
                gc.enable()
        if until is not None:
            self._now = max(self._now, until)
        return self._now
