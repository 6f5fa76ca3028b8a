"""The simulated wide-area network.

``Network`` connects ``N`` protocol automata.  Every message travels:

1. through the sender's **egress pipe** (charged ``wire_size`` bytes at the
   sender's current egress bandwidth, after any higher-priority traffic),
2. across the link's **propagation delay**,
3. through the receiver's **ingress pipe** (charged again at the receiver's
   ingress bandwidth),

and is then handed to the receiver's ``on_message``.  Loopback messages are
delivered after a negligible local delay and are not charged bandwidth,
matching the paper's setup where a node's own chunk never crosses the WAN.

Per-message state along that journey lives in one slotted
:class:`_MessageTransfer` record whose bound methods are the pipe and timer
callbacks — the hop-per-hop closures this replaces dominated allocation
profiles at high message rates.  Scalar propagation delays and the
receivers' ``declines_transfer`` hooks are resolved once instead of per
message.

The network keeps per-node traffic statistics split by priority class; the
dispersal-traffic fraction of Fig. 13 is read straight from these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import ConfigurationError
from repro.common.snapshot import SnapshotState
from repro.sim.bandwidth import BandwidthTrace, ConstantBandwidth
from repro.sim.events import Simulator
from repro.sim.messages import Message, Priority
from repro.sim.pipe import Pipe
from repro.sim.process import Process

#: Delivery delay for messages a node sends to itself (seconds).
LOOPBACK_DELAY = 1e-4


@dataclass
class TrafficStats:
    """Per-node byte counters split by traffic class.

    The counters are lists indexed by :class:`Priority` value (IntEnum
    members index them directly); list indexing keeps the per-message
    accounting off the dict hash path.
    """

    sent: list[int] = field(default_factory=lambda: [0] * len(Priority))
    received: list[int] = field(default_factory=lambda: [0] * len(Priority))

    @property
    def total_sent(self) -> int:
        return sum(self.sent)

    @property
    def total_received(self) -> int:
        return sum(self.received)

    @property
    def dispersal_fraction(self) -> float:
        """Fraction of received bytes that belong to the dispersal phase."""
        total = self.total_received
        if total == 0:
            return 0.0
        return self.received[Priority.DISPERSAL] / total


@dataclass
class NetworkConfig:
    """Configuration of the simulated network.

    Attributes:
        num_nodes: number of nodes.
        propagation_delay: one-way delay in seconds, either a scalar applied
            to every ordered pair or a matrix ``delay[src][dst]``.
        egress_traces: per-node egress bandwidth traces (bytes/s); ``None``
            entries mean unlimited.
        ingress_traces: per-node ingress bandwidth traces; same convention.
        express: opt-in broadcast fast path for protocol-scalability studies.
            A broadcast schedules **one** fan-out event that delivers the
            message to every recipient inline, instead of one three-hop pipe
            journey per recipient — collapsing the O(N) scheduler entries per
            broadcast that dominate large-N runs.  Only valid with unlimited
            bandwidth and a scalar propagation delay (there are no pipes to
            queue in and every copy arrives together); per-delivery work is
            still counted via ``Simulator.count_inline_event`` so events/s
            stays comparable.  Express delivery changes event interleaving
            relative to the per-message path (identical arrival *times*,
            different ordering within a timestamp), so an express scenario
            pins its own summary (``columnar-scale`` in the slow golden
            tier) and is never compared with a per-message run of itself.
    """

    num_nodes: int
    propagation_delay: float | list[list[float]] = 0.1
    egress_traces: list[BandwidthTrace | None] | None = None
    ingress_traces: list[BandwidthTrace | None] | None = None
    express: bool = False

    def delay(self, src: int, dst: int) -> float:
        if isinstance(self.propagation_delay, (int, float)):
            return float(self.propagation_delay)
        return self.propagation_delay[src][dst]

    def egress_trace(self, node: int) -> BandwidthTrace:
        if self.egress_traces is None or self.egress_traces[node] is None:
            return ConstantBandwidth(None)
        return self.egress_traces[node]

    def ingress_trace(self, node: int) -> BandwidthTrace:
        if self.ingress_traces is None or self.ingress_traces[node] is None:
            return ConstantBandwidth(None)
        return self.ingress_traces[node]


#: Journey phases of a :class:`_MessageTransfer`.
_EGRESS_DONE = 0
_PROPAGATED = 1
_DELIVER = 2


class _MessageTransfer(SnapshotState):
    """Slotted per-message journey state (egress -> propagation -> ingress).

    One record per message replaces the seed's four per-message closures.
    The record is itself the callback for every hop — ``__call__`` advances
    through the phases above — so the pipes and the simulator hold the
    record directly instead of a fresh bound method per hop.
    """

    __slots__ = ("network", "src", "dst", "msg", "rank", "abort", "phase")
    _SNAPSHOT_FIELDS = ("network", "src", "dst", "msg", "rank", "abort", "phase")

    def __init__(
        self,
        network: "Network",
        src: int,
        dst: int,
        msg: Message,
        rank: float,
        abort: Callable[[int], bool] | None,
        phase: int = _EGRESS_DONE,
    ):
        self.network = network
        self.src = src
        self.dst = dst
        self.msg = msg
        self.rank = rank
        self.abort = abort
        self.phase = phase

    def __call__(self) -> None:
        net = self.network
        msg = self.msg
        phase = self.phase
        if phase == _DELIVER:
            src = self.src
            dst = self.dst
            if src != dst:
                net.stats[dst].received[msg.priority] += msg.wire_size
            net.messages_delivered += 1
            deliver = net._on_message[dst]
            if deliver is not None:
                deliver(src, msg)
        elif phase == _EGRESS_DONE:
            net.stats[self.src].sent[msg.priority] += msg.wire_size
            delay = net._scalar_delay
            if delay is None:
                delay = net._config.delay(self.src, self.dst)
            self.phase = _PROPAGATED
            # Arrivals leave a scalar-delay network in departure order, so
            # the propagation hop rides the simulator's in-order lane.
            net._sim.schedule_in_order(delay, self)
        else:
            # Arrived at the receiver: charge its ingress pipe.  The pipe gets
            # an abort predicate only if one can fire: the sender supplied an
            # abort, or the receiver's decline hook has this type in scope.
            dst = self.dst
            abort = None
            if self.abort is not None:
                abort = self.should_abort
            elif net._declines[dst] is not None:
                scope = net._decline_types[dst]
                if scope is None or type(msg) in scope:
                    abort = self.should_abort
            self.phase = _DELIVER
            net._ingress[dst].submit(msg.wire_size, msg.priority, self, self.rank, abort)

    def sender_aborted(self) -> bool:
        """The sender's ``abort(dst)`` as the no-argument predicate a pipe asks."""
        return self.abort(self.dst)

    def should_abort(self) -> bool:
        # Receiver-side cancellation: before the transfer is charged against
        # the receiver's ingress bandwidth, the receiving automaton may
        # decline it (e.g. a retrieval chunk for a block it already decoded).
        # This models receiver-driven stream cancellation (QUIC STOP_SENDING
        # / flow control): the bytes are neither transmitted in full nor
        # charged to the receiver's scarce download capacity.
        abort = self.abort
        dst = self.dst
        if abort is not None and abort(dst):
            return True
        net = self.network
        decline = net._declines[dst]
        if decline is None:
            return False
        scope = net._decline_types[dst]
        if scope is not None and type(self.msg) not in scope:
            return False  # the hook guarantees False for this type
        return decline(self.msg)


def _decline_scope(handler: object) -> tuple | None:
    """Message types ``handler.declines_transfer`` can ever decline.

    A handler advertises the scope of its decline hook through a
    ``DECLINE_TYPES`` class attribute — a tuple of message types outside
    which the hook is guaranteed to return False.  To stay safe under
    subclassing, the attribute only counts when it is declared on the same
    class that defines ``declines_transfer``: a subclass overriding the hook
    without restating its scope gets ``None`` (hook always consulted).
    """
    for klass in type(handler).__mro__:
        if "declines_transfer" in klass.__dict__:
            scope = klass.__dict__.get("DECLINE_TYPES")
            return tuple(scope) if scope is not None else None
    return None


class _BroadcastFanout(SnapshotState):
    """One scheduled event delivering an express broadcast to all recipients."""

    __slots__ = ("network", "src", "msg")
    _SNAPSHOT_FIELDS = ("network", "src", "msg")

    def __init__(self, network: "Network", src: int, msg: Message):
        self.network = network
        self.src = src
        self.msg = msg

    def __call__(self) -> None:
        net = self.network
        src = self.src
        msg = self.msg
        wire = msg.wire_size
        priority = msg.priority
        mtype = type(msg)
        on_message = net._on_message
        stats = net.stats
        num_nodes = net._num_nodes
        if net._fanout_skips_declines(mtype):
            # No attached node can decline this type: decline-free tight loop.
            for dst in range(num_nodes):
                if dst == src:
                    continue
                stats[dst].received[priority] += wire
                deliver = on_message[dst]
                if deliver is not None:
                    deliver(src, msg)
            delivered = num_nodes - 1
        else:
            declines = net._declines
            decline_types = net._decline_types
            delivered = 0
            for dst in range(num_nodes):
                if dst == src:
                    continue
                decline = declines[dst]
                if decline is not None:
                    scope = decline_types[dst]
                    if (scope is None or mtype in scope) and decline(msg):
                        continue  # dropped before delivery, like the ingress path
                stats[dst].received[priority] += wire
                delivered += 1
                deliver = on_message[dst]
                if deliver is not None:
                    deliver(src, msg)
        net.messages_delivered += delivered
        net._sim.count_inline_events(delivered)


class _ExpressTrain(SnapshotState):
    """Consecutive same-instant express unicasts sharing one heap entry.

    ``Network.send`` appends a unicast to the open train instead of
    scheduling it when the train was the simulator's most recent push
    (``seq == Simulator.last_seq``) and the arrival time is the train's.
    Scheduled one by one, those unicasts would have drawn consecutive
    sequence numbers at one timestamp, so no other event could sort between
    them: running the cars in append order from the train's slot is exactly
    the order the per-message heap entries had.  Every car still runs its
    abort and decline checks at arrival and counts as one processed event.
    """

    __slots__ = ("network", "when", "seq", "cars")
    _SNAPSHOT_FIELDS = ("network", "when", "seq", "cars")

    def __init__(self, network: "Network", when: float, car: tuple):
        self.network = network
        self.when = when
        #: Sequence number of the train's heap entry; set once scheduled.
        self.seq = -1
        #: ``(src, dst, msg, abort)`` per unicast, in send order.
        self.cars = [car]

    def __call__(self) -> None:
        net = self.network
        if net._train is self:
            # Fired: a unicast sent from a handler below (arriving at this
            # very instant on a zero-delay network) must start a new train.
            net._train = None
        declines = net._declines
        decline_types = net._decline_types
        on_message = net._on_message
        stats = net.stats
        cars = self.cars
        delivered = 0
        for src, dst, msg, abort in cars:
            # Same semantics as the ingress leg of the pipe path: the
            # sender-side abort and the receiver's scoped decline hook both
            # run before the receiver is charged.
            if abort is not None and abort(dst):
                continue
            decline = declines[dst]
            if decline is not None:
                scope = decline_types[dst]
                if (scope is None or type(msg) in scope) and decline(msg):
                    continue
            stats[dst].received[msg.priority] += msg.wire_size
            delivered += 1
            deliver = on_message[dst]
            if deliver is not None:
                deliver(src, msg)
        net.messages_delivered += delivered
        # The run loop counts the train itself as one event.
        net._sim.count_inline_events(len(cars) - 1)


class Network(SnapshotState):
    """Connects protocol automata through bandwidth-limited pipes."""

    #: The attach-time resolved hooks (``_on_message``, ``_declines``) are
    #: bound methods of the attached processes; they pickle by reference and
    #: re-resolve to the restored processes, so they are snapshotted rather
    #: than rebuilt.
    _SNAPSHOT_FIELDS = (
        "_sim",
        "_config",
        "_num_nodes",
        "_scalar_delay",
        "_handlers",
        "_on_message",
        "_declines",
        "_decline_types",
        "_no_decline_cache",
        "_egress",
        "_ingress",
        "stats",
        "messages_delivered",
        "probe",
        "_train",
    )

    def __init__(self, sim: Simulator, config: NetworkConfig):
        if config.num_nodes < 1:
            raise ConfigurationError("network needs at least one node")
        for traces_name in ("egress_traces", "ingress_traces"):
            traces = getattr(config, traces_name)
            if traces is not None and len(traces) != config.num_nodes:
                raise ConfigurationError(
                    f"{traces_name} has {len(traces)} entries for {config.num_nodes} nodes"
                )
        if config.express:
            if not isinstance(config.propagation_delay, (int, float)):
                raise ConfigurationError(
                    "express broadcast requires a scalar propagation delay"
                )
            for traces_name in ("egress_traces", "ingress_traces"):
                traces = getattr(config, traces_name)
                if traces is not None and any(trace is not None for trace in traces):
                    raise ConfigurationError(
                        "express broadcast requires unlimited bandwidth "
                        f"(got {traces_name})"
                    )
        self._sim = sim
        self._config = config
        self._num_nodes = config.num_nodes
        delay = config.propagation_delay
        self._scalar_delay: float | None = (
            float(delay) if isinstance(delay, (int, float)) else None
        )
        self._handlers: list[Process | None] = [None] * config.num_nodes
        #: Per-node bound ``on_message`` methods, resolved at attach time so
        #: the delivery hot paths skip a per-message attribute lookup.
        self._on_message: list[Callable[[int, Message], None] | None] = (
            [None] * config.num_nodes
        )
        #: Per-node ``declines_transfer`` hooks, resolved at attach time.
        self._declines: list[Callable[[Message], bool] | None] = [None] * config.num_nodes
        #: Per node: the message types its decline hook can ever return True
        #: for (``None`` = unknown, always consult the hook).  Lets the hot
        #: delivery paths skip the Python call for the overwhelming majority
        #: of messages, which are not declinable at all.
        self._decline_types: list[tuple | None] = [None] * config.num_nodes
        #: ``message type -> True`` when *no* attached node can ever decline
        #: that type (every decline hook is absent or scoped away from it).
        #: Lets the broadcast fan-out take a decline-free tight loop; rebuilt
        #: lazily per type and invalidated on attach.
        self._no_decline_cache: dict[type, bool] = {}
        self._egress = [
            Pipe(sim, config.egress_trace(i)) for i in range(config.num_nodes)
        ]
        self._ingress = [
            Pipe(sim, config.ingress_trace(i)) for i in range(config.num_nodes)
        ]
        self.stats = [TrafficStats() for _ in range(config.num_nodes)]
        self.messages_delivered = 0
        #: Optional :class:`repro.trace.spans.SpanRecorder`, installed by its
        #: ``attach``: the send-side home of the span probe.
        self.probe = None
        #: The express train still accepting unicasts (see
        #: :class:`_ExpressTrain`); ``None`` off the express path.
        self._train: _ExpressTrain | None = None

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def sim(self) -> Simulator:
        return self._sim

    def link_snapshot(self, node_id: int) -> dict:
        """A read-only snapshot of one node's link state (telemetry hook).

        Queue depths count waiting *and* in-flight bytes; busy times (the
        in-flight transfer's elapsed portion included, so interval deltas
        are exact) and transferred bytes are cumulative since the start of
        the run.  The :class:`repro.trace.recorder.TraceRecorder` samples
        this on a virtual-time grid; reading it never perturbs the
        simulation.
        """
        now = self._sim.now
        egress = self._egress[node_id]
        ingress = self._ingress[node_id]
        return {
            "egress_queue": egress.queued_bytes + egress.in_flight_bytes,
            "ingress_queue": ingress.queued_bytes + ingress.in_flight_bytes,
            "egress_busy_time": egress.busy_time_at(now),
            "ingress_busy_time": ingress.busy_time_at(now),
            "egress_bytes": egress.bytes_transferred,
            "ingress_bytes": ingress.bytes_transferred,
        }

    def attach(self, node_id: int, handler: Process) -> None:
        """Register the protocol automaton running at ``node_id``."""
        self._handlers[node_id] = handler
        self._on_message[node_id] = handler.on_message
        self._declines[node_id] = getattr(handler, "declines_transfer", None)
        self._decline_types[node_id] = _decline_scope(handler)
        self._no_decline_cache.clear()

    def _fanout_skips_declines(self, mtype: type) -> bool:
        """True when no attached node's decline hook can fire for ``mtype``.

        A node is decline-free for a type when it has no hook at all, or its
        advertised ``DECLINE_TYPES`` scope excludes the type.  Any node with
        an unscoped hook (``None`` scope) forces the conservative answer.
        The verdict is cached per type; :meth:`attach` invalidates the cache.
        """
        cached = self._no_decline_cache.get(mtype)
        if cached is None:
            cached = all(
                decline is None or (scope is not None and mtype not in scope)
                for decline, scope in zip(self._declines, self._decline_types)
            )
            self._no_decline_cache[mtype] = cached
        return cached

    def start(self) -> None:
        """Invoke ``start()`` on every attached automaton at time zero."""
        for handler in self._handlers:
            if handler is not None:
                self._sim.schedule(0.0, handler.start)

    def send(
        self,
        src: int,
        dst: int,
        msg: Message,
        rank: float = 0.0,
        abort: "Callable[[int], bool] | None" = None,
    ) -> None:
        """Send ``msg`` from ``src`` to ``dst``, charging bandwidth on both ends.

        ``abort`` (optional) is asked ``abort(dst)`` when the message reaches
        the head of the sender's egress queue and again at the receiver's
        ingress queue; if it returns True the transfer is dropped without
        consuming bandwidth.  Senders use it to cancel retrieval chunks the
        receiver no longer needs (S6.3's "stop sending more chunks"
        optimisation); taking the destination lets one predicate serve every
        message of a protocol instance.
        """
        if not 0 <= dst < self._num_nodes:
            raise ConfigurationError(f"destination {dst} out of range")
        if self.probe is not None:
            self.probe.on_message_send(src, dst, msg, self._sim.now)
        if src == dst:
            self.stats[src].sent[msg.priority] += msg.wire_size
            transfer = _MessageTransfer(self, src, dst, msg, rank, abort, _DELIVER)
            self._sim.schedule(LOOPBACK_DELAY, transfer)
            return
        if self._config.express:
            # Unlimited bandwidth: the pipes would pass the message through
            # untouched, so skip them.  At N=256 the retrieval plane sends
            # N^3 of these per epoch, N at a time from one fan-out delivery;
            # consecutive ones ride one heap entry (see _ExpressTrain), so
            # each costs a tuple instead of a callable plus a heap slot.
            self.stats[src].sent[msg.priority] += msg.wire_size
            sim = self._sim
            when = sim.now + self._scalar_delay
            train = self._train
            if train is not None and train.when == when and train.seq == sim.last_seq:
                train.cars.append((src, dst, msg, abort))
                return
            train = self._train = _ExpressTrain(self, when, (src, dst, msg, abort))
            sim.schedule(self._scalar_delay, train)
            train.seq = sim.last_seq
            return
        transfer = _MessageTransfer(self, src, dst, msg, rank, abort)
        self._egress[src].submit(
            msg.wire_size,
            msg.priority,
            transfer,
            rank,
            None if abort is None else transfer.sender_aborted,
        )

    def broadcast(
        self, src: int, msg: Message, include_self: bool = True, rank: float = 0.0
    ) -> None:
        """Send ``msg`` from ``src`` to every node.

        On an express network (``NetworkConfig.express``) the off-node copies
        share one scheduled fan-out event; otherwise this is exactly a loop
        of :meth:`send`.  The loopback copy always takes the normal local
        path so self-delivery ordering matches the per-message network.
        """
        if not self._config.express:
            # ``send`` minus what does not vary across the fan-out: ``dst`` is
            # in range by construction, and the probe, the express switch and
            # the sender's pipe are looked up once.
            probe = self.probe
            submit = self._egress[src].submit
            wire = msg.wire_size
            priority = msg.priority
            for dst in range(self._num_nodes):
                if dst == src:
                    if include_self:
                        self.send(src, src, msg, rank)
                    continue
                if probe is not None:
                    probe.on_message_send(src, dst, msg, self._sim.now)
                submit(wire, priority, _MessageTransfer(self, src, dst, msg, rank, None), rank, None)
            return
        if include_self:
            self.send(src, src, msg, rank)
        if self._num_nodes > 1:
            self.stats[src].sent[msg.priority] += msg.wire_size * (self._num_nodes - 1)
            self._sim.schedule(self._scalar_delay, _BroadcastFanout(self, src, msg))
