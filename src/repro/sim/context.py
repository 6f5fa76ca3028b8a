"""Node-local handle that protocol automata use to talk to the outside world.

A :class:`NodeContext` hides whether the automaton is running on the
bandwidth-accurate :class:`repro.sim.network.Network` or on the instant
in-memory router used by tests — the protocol code is identical in both
cases, mirroring the paper's nested IO-automata structure (S5).
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.common.snapshot import SnapshotState
from repro.sim.events import Event
from repro.sim.messages import Message


class Router(Protocol):
    """Anything that can carry a message from one node to another."""

    @property
    def num_nodes(self) -> int: ...

    def send(
        self,
        src: int,
        dst: int,
        msg: Message,
        rank: float = 0.0,
        abort: Callable[[int], bool] | None = None,
    ) -> None: ...


class Clock(Protocol):
    """Anything that can tell time and schedule callbacks.

    ``schedule_event`` (returning a cancellable handle) is optional: clocks
    that lack it still work, at the price of non-cancellable timers.
    """

    @property
    def now(self) -> float: ...

    def schedule(self, delay: float, callback: Callable[[], None]) -> None: ...


class NodeContext(SnapshotState):
    """The sending/timing interface handed to every protocol automaton."""

    _SNAPSHOT_FIELDS = ("node_id", "_router", "_clock", "probe")

    def __init__(self, node_id: int, router: Router, clock: Clock):
        self.node_id = node_id
        self._router = router
        self._clock = clock
        #: Optional :class:`repro.trace.spans.SpanRecorder`, installed by its
        #: ``attach``: the receive-side home of the span probe.  The node and
        #: its VID and BA automata share this context, so they share it.
        self.probe = None

    @property
    def num_nodes(self) -> int:
        return self._router.num_nodes

    @property
    def now(self) -> float:
        return self._clock.now

    def send(
        self,
        dst: int,
        msg: Message,
        rank: float = 0.0,
        abort: Callable[[int], bool] | None = None,
    ) -> None:
        """Send ``msg`` to node ``dst``.

        ``abort`` lets bandwidth-accurate routers drop the transfer before it
        consumes bandwidth if it is no longer needed (chunk cancellation):
        the router asks ``abort(dst)``, so one predicate — e.g. a bound
        ``set.__contains__`` over cancelled clients — serves every
        destination and the sender allocates nothing per message.
        """
        self._router.send(self.node_id, dst, msg, rank, abort)

    def broadcast(self, msg: Message, include_self: bool = True, rank: float = 0.0) -> None:
        """Send ``msg`` to every node (including ourselves unless disabled).

        The paper's pseudocode has servers send broadcast messages to
        themselves as well (Fig. 3 caption), which this mirrors.  Routers
        that implement a native ``broadcast`` (the bandwidth-accurate
        network, including its express fan-out fast path) receive the whole
        broadcast in one call; anything else gets the plain send loop.
        """
        router = self._router
        node_id = self.node_id
        native = getattr(router, "broadcast", None)
        if native is not None:
            native(node_id, msg, include_self=include_self, rank=rank)
            return
        for dst in range(router.num_nodes):
            if dst == node_id and not include_self:
                continue
            router.send(node_id, dst, msg, rank)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> Event | None:
        """Run ``callback`` after ``delay`` seconds of virtual time.

        Returns a cancellable :class:`~repro.sim.events.Event` handle when the
        underlying clock supports one (the discrete-event simulator and the
        instant router both do), else None.  Cancelling a timer that already
        fired is a no-op, so callers may cancel unconditionally.
        """
        schedule_event = getattr(self._clock, "schedule_event", None)
        if schedule_event is not None:
            return schedule_event(delay, callback)
        self._clock.schedule(delay, callback)
        return None
