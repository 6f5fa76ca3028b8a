"""A bandwidth-limited pipe with priority queueing.

Each simulated node owns two pipes: an egress pipe that all of its outgoing
messages pass through, and an ingress pipe for incoming messages.  A pipe
serves one message at a time at the instantaneous rate of its bandwidth
trace; when it becomes free, it picks the next message from the
highest-priority non-empty queue (dispersal-phase traffic before retrieval
traffic).  Within a priority class, queueing is FIFO except that retrieval
traffic can be sub-prioritised by a caller-supplied rank (the paper serves
the QUIC stream with the lowest epoch number first, S5).

Hot-path structure (the event loop and these pipes dominate scenario
profiles):

* Each priority class keeps a plain ``deque`` while every submission uses
  the default rank, falling back to a ``(rank, seq, ...)`` heap only once a
  caller actually ranks its traffic — dispersal-class traffic never pays for
  heap ordering it does not use.  Both containers are int-indexed lists,
  not enum-keyed dicts.
* The in-flight transfer lives in slots on the pipe itself and completes
  through one prebound method scheduled on the simulator, instead of a
  fresh ``complete()`` closure per transfer.
* A pipe's clock never goes back, so it keeps a *segment cursor*: the
  constant-rate segment ``(start, end, rate)`` of its trace that the last
  transfer started in.  A transfer that fits the segment finishes at
  ``now + size / rate`` — bit-for-bit what ``finish_time`` returns, with no
  lookup; the trace is asked again only when the clock has left the
  segment (``segment_at``) or a transfer crosses a breakpoint, meets a zero
  rate or starts before the trace (``finish_time``).  A constant trace is
  the one-infinite-segment case of the same code.
* Zero-duration transfers (unlimited-bandwidth pipes, empty messages) drain
  in batches: the serve loop completes every same-instant transfer inline
  without re-entering the scheduler per message.  This is the one deliberate
  ordering deviation from the seed core: a zero-duration backlog completes
  consecutively instead of interleaving with other same-instant events by
  FIFO sequence (virtual times are unchanged).  Finite-rate pipes — every
  catalog scenario — are ordering-identical to a synchronous start.

``submit`` never serves synchronously in the caller's frame; an idle pipe
hands off to the scheduler at the current virtual time, so a transfer
submitted from inside another transfer's ``on_done`` (or any other callback)
always observes consistent pipe state.  The transfer that found the pipe
idle is the one that starts serving — exactly the selection a synchronous
start would have made, with the hand-off's sequence slot reused for the
completion event so same-instant tie-breaking is unchanged too — and
everything else submitted at the same instant queues behind it under the
usual ``(priority, rank, FIFO)`` order.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Callable

from repro.common.snapshot import SnapshotState
from repro.sim.bandwidth import BandwidthTrace
from repro.sim.events import InternalCallback, Simulator
from repro.sim.messages import Priority

#: Priority classes in service order (lower value served first), as plain
#: ints so the per-class containers are list-indexed.
_PRIORITY_ORDER = tuple(sorted(int(p) for p in Priority))
_NUM_CLASSES = max(_PRIORITY_ORDER) + 1

_OnDone = Callable[[], None]

_INF = math.inf


class Pipe(SnapshotState):
    """Serialises byte transfers through a time-varying bandwidth limit."""

    #: The prebound ``_drain_cb``/``_kick_entry`` are part of the snapshot:
    #: bound methods pickle as (instance, name) references, so the restored
    #: queue entries resolve to the restored pipe.
    _SNAPSHOT_FIELDS = (
        "_sim",
        "_trace",
        "_segment",
        "_fifo",
        "_heap",
        "_ranked",
        "_next_seq",
        "_busy",
        "_kick_head",
        "_cur_size",
        "_cur_on_done",
        "_cur_start",
        "_drain_cb",
        "_kick_entry",
        "bytes_transferred",
        "bytes_aborted",
        "busy_time",
    )

    def __init__(self, sim: Simulator, trace: BandwidthTrace):
        self._sim = sim
        self._trace = trace
        #: Segment cursor: the trace's ``(start, end, rate)`` segment that the
        #: most recent transfer started in (``math.inf`` rate = unlimited).
        self._segment = trace.segment_at(sim.now)
        #: Per-class FIFO backlog: ``(size, on_done, abort)`` deques.
        self._fifo: list[deque] = [deque() for _ in range(_NUM_CLASSES)]
        #: Per-class ranked backlog: ``(rank, seq, size, on_done, abort)`` heaps.
        self._heap: list[list] = [[] for _ in range(_NUM_CLASSES)]
        #: Whether a class has ever seen a non-default rank (heap mode).
        self._ranked: list[bool] = [False] * _NUM_CLASSES
        self._next_seq = 0
        #: True from the moment a transfer is stashed or serving begins until
        #: the queues drain: a single flag covers both "kick scheduled" and
        #: "transfer in flight", so ``submit`` makes one check.
        self._busy = False
        #: The transfer that found the pipe idle and is about to start
        #: serving: ``(size, on_done, abort, reserved seq)``.
        self._kick_head: "tuple[int, _OnDone, Callable[[], bool] | None, int] | None" = None
        # The in-flight transfer, slotted on the pipe (exactly one at a time).
        self._cur_size = 0
        self._cur_on_done: _OnDone | None = None
        self._cur_start = 0.0
        self._drain_cb = self._drain
        self._kick_entry = InternalCallback(self._drain_cb)
        self.bytes_transferred = 0
        self.bytes_aborted = 0
        self.busy_time = 0.0

    def submit(
        self,
        size: int,
        priority: Priority,
        on_done: Callable[[], None],
        rank: float = 0.0,
        abort: Callable[[], bool] | None = None,
    ) -> None:
        """Enqueue a transfer of ``size`` bytes; call ``on_done`` when it drains.

        ``rank`` orders transfers within the same priority class (lower rank
        first); ties fall back to FIFO arrival order.  ``abort`` (if given) is
        evaluated when the transfer is about to start serving: if it returns
        True the transfer is dropped without consuming any bandwidth and
        ``on_done`` is never called — this models the paper's "stop sending
        chunks once the block is decodable" cancellation (S6.3).

        Serving starts via the simulator (at the current virtual time), never
        synchronously inside the caller's frame.
        """
        if size < 0:
            raise ValueError(f"transfer size must be non-negative, got {size}")
        if self._busy:
            if rank != 0.0 or self._ranked[priority]:
                self._push_ranked(priority, rank, size, on_done, abort)
            else:
                self._fifo[priority].append((size, on_done, abort))
            return
        # This transfer found the pipe idle (all queues drained): it is the
        # one that starts serving, exactly as if service had begun at
        # submission — but the hand-off goes through the scheduler so the
        # caller's frame never runs pipe-serving code.  Same-instant
        # submissions that arrive before the kick queue up behind it, and the
        # kick's sequence slot is handed to the completion event so
        # tie-breaking at the finish instant matches a synchronous start.
        self._busy = True
        seq = self._sim.schedule_internal(0.0, self._kick_entry)
        self._kick_head = (size, on_done, abort, seq)

    def _push_ranked(
        self, priority: int, rank: float, size: int, on_done: _OnDone, abort
    ) -> None:
        heap = self._heap[priority]
        if not self._ranked[priority]:
            # First ranked submission for this class: spill the FIFO backlog
            # into the heap (rank 0.0, original order) and stay in heap mode.
            self._ranked[priority] = True
            fifo = self._fifo[priority]
            while fifo:
                entry = fifo.popleft()
                self._next_seq = seq = self._next_seq + 1
                heappush(heap, (0.0, seq) + entry)
        self._next_seq = seq = self._next_seq + 1
        heappush(heap, (rank, seq, size, on_done, abort))

    @property
    def queued_bytes(self) -> int:
        """Bytes waiting in the pipe (not counting any transfer in flight)."""
        total = 0 if self._kick_head is None else self._kick_head[0]
        for priority in _PRIORITY_ORDER:
            total += sum(entry[0] for entry in self._fifo[priority])
            total += sum(entry[2] for entry in self._heap[priority])
        return total

    @property
    def in_flight_bytes(self) -> int:
        """Size of the transfer currently being served (0 when idle).

        Telemetry sampling hook: together with :attr:`queued_bytes` this is
        the pipe's instantaneous backlog; reading it never mutates state.
        """
        return self._cur_size if self._cur_on_done is not None else 0

    def busy_time_at(self, now: float) -> float:
        """Cumulative service time as of ``now``, in-flight transfer included.

        :attr:`busy_time` only accrues when a transfer *completes*; a sampler
        reading it mid-transfer would see utilisation stuck at zero for the
        whole span and then a jump past 1.0 at completion.  This accessor
        adds the elapsed portion of the transfer in flight, so interval
        deltas are exact.  Read-only (telemetry sampling hook).
        """
        if self._cur_on_done is not None:
            return self.busy_time + (now - self._cur_start)
        return self.busy_time

    def _drain(self) -> None:
        # The pipe's one scheduler callback and single hot function: the
        # completion event of the transfer in flight and — as the uncounted
        # ``_kick_entry`` hand-off — the start of the transfer that found the
        # pipe idle.  One loop: take the next serveable transfer (dropping
        # aborted entries), compute its finish time, and either schedule the
        # completion or — for zero-duration transfers — complete inline and
        # keep draining, batching same-instant backlogs without a scheduler
        # round-trip per message.  ``_busy`` stays set throughout, so
        # submissions made by ``on_done`` callbacks or abort predicates
        # enqueue instead of stashing a second head.
        sim = self._sim
        head = self._kick_head
        if head is None:
            # The transfer in flight just finished: account for it and notify.
            on_done = self._cur_on_done
            self._cur_on_done = None
            self.bytes_transferred += self._cur_size
            self.busy_time += sim._now - self._cur_start
            on_done()
            size = -1
            seq = None
        else:
            # Kicked: ``seq`` is the hand-off's retired sequence slot; giving
            # it to the completion event keeps tie-breaking at the finish
            # instant identical to a synchronous start.
            self._kick_head = None
            size, on_done, abort, seq = head
            if abort is not None and abort():
                self.bytes_aborted += size
                size = -1
                seq = None
        fifos = self._fifo
        heaps = self._heap
        while True:
            if size < 0:
                for priority in _PRIORITY_ORDER:
                    fifo = fifos[priority]
                    while fifo:
                        entry = fifo.popleft()
                        abort = entry[2]
                        if abort is not None and abort():
                            self.bytes_aborted += entry[0]
                            continue
                        size = entry[0]
                        on_done = entry[1]
                        break
                    if size >= 0:
                        break
                    heap = heaps[priority]
                    while heap:
                        entry = heappop(heap)
                        abort = entry[4]
                        if abort is not None and abort():
                            self.bytes_aborted += entry[2]
                            continue
                        size = entry[2]
                        on_done = entry[3]
                        break
                    if size >= 0:
                        break
                if size < 0:
                    self._busy = False
                    return
            now = sim._now
            start, end, rate = self._segment
            if now >= end:
                start, end, rate = self._segment = self._trace.segment_at(now)
            finish = now + size / rate if rate > 0.0 and start <= now else None
            if finish is None or finish > end:
                finish = self._trace.finish_time(now, size)
                if finish == _INF:
                    raise RuntimeError(
                        "bandwidth trace never completes a transfer (zero trailing rate)"
                    )
            if finish > now:
                self._cur_size = size
                self._cur_on_done = on_done
                self._cur_start = now
                if seq is None:
                    sim.schedule_at(finish, self._drain_cb)
                else:
                    sim.reschedule_at(finish, seq, self._drain_cb)
                return
            # Zero-duration: complete inline (for a kick, in the very slot a
            # synchronous completion would have occupied), count the semantic
            # event and continue the drain.
            sim.count_inline_event()
            self.bytes_transferred += size
            on_done()
            size = -1
            seq = None
