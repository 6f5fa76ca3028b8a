"""Instant-delivery message router for unit and property tests.

Protocol automata built for the discrete-event simulator also run here:
messages are appended to a queue and delivered by an explicit pump loop, so
tests can exercise arbitrary asynchronous schedules (FIFO, seeded random
interleavings, selective drops for Byzantine nodes) without any bandwidth
or latency modelling.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable

from repro.sim.messages import Message
from repro.sim.process import Process


class _InstantTimer:
    """Cancellable timer handle mirroring :class:`repro.sim.events.Event`."""

    __slots__ = ("when", "callback")

    def __init__(self, when: float, callback: Callable[[], None]):
        self.when = when
        self.callback = callback

    @property
    def cancelled(self) -> bool:
        return self.callback is None

    def cancel(self) -> bool:
        """Prevent the callback from running.  Returns True if it was pending."""
        if self.callback is None:
            return False
        self.callback = None
        return True


class InstantNetwork:
    """A zero-latency router with an explicit, controllable delivery loop."""

    def __init__(self, num_nodes: int, seed: int | None = None):
        self._num_nodes = num_nodes
        self._handlers: list[Process | None] = [None] * num_nodes
        self._pending: deque[tuple[int, int, Message]] = deque()
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._rng = random.Random(seed)
        self._random_order = seed is not None
        self._now = 0.0
        self._timer_sequence = 0
        #: Optional filter called for every message; return False to drop it.
        self.delivery_filter: Callable[[int, int, Message], bool] | None = None
        self.messages_delivered = 0

    # --- Router / Clock protocol ----------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def now(self) -> float:
        return self._now

    def send(
        self,
        src: int,
        dst: int,
        msg: Message,
        rank: float = 0.0,
        abort: Callable[[int], bool] | None = None,
    ) -> None:
        # The instant router ignores cancellation: it has no bandwidth to
        # save, and delivering "unnecessary" chunks exercises more code paths
        # in the tests.
        self._pending.append((src, dst, msg))

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self._timer_sequence += 1
        self._timers.append((self._now + delay, self._timer_sequence, callback))

    def schedule_event(self, delay: float, callback: Callable[[], None]) -> _InstantTimer:
        """Like :meth:`schedule`, but returns a cancellable timer handle."""
        timer = _InstantTimer(self._now + delay, callback)
        self._timer_sequence += 1
        self._timers.append((timer.when, self._timer_sequence, timer))
        return timer

    # --- test-facing API --------------------------------------------------

    def attach(self, node_id: int, handler: Process) -> None:
        self._handlers[node_id] = handler

    def start(self) -> None:
        for handler in self._handlers:
            if handler is not None:
                handler.start()

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def deliver_one(self) -> bool:
        """Deliver a single pending message.  Returns False if none remain."""
        if not self._pending:
            return False
        if self._random_order and len(self._pending) > 1:
            index = self._rng.randrange(len(self._pending))
            self._pending.rotate(-index)
            src, dst, msg = self._pending.popleft()
            self._pending.rotate(index)
        else:
            src, dst, msg = self._pending.popleft()
        if self.delivery_filter is not None and not self.delivery_filter(src, dst, msg):
            return True
        handler = self._handlers[dst]
        if handler is not None:
            handler.on_message(src, msg)
            self.messages_delivered += 1
        return True

    def run(self, max_messages: int = 1_000_000) -> int:
        """Deliver messages (and fire due timers) until everything quiesces.

        Returns the number of messages delivered.  Raises if the message
        budget is exhausted, which usually indicates a protocol livelock.
        """
        delivered = 0
        while self._pending or self._timers:
            while self._pending:
                if delivered >= max_messages:
                    raise RuntimeError(
                        f"message budget of {max_messages} exhausted; possible livelock"
                    )
                self.deliver_one()
                delivered += 1
            if self._timers:
                self._timers.sort()
                when, _seq, item = self._timers.pop(0)
                if isinstance(item, _InstantTimer):
                    callback = item.callback
                    if callback is None:
                        continue  # lazily-deleted (cancelled) timer
                    item.callback = None
                else:
                    callback = item
                self._now = max(self._now, when)
                callback()
        return delivered
