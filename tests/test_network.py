"""Tests for the bandwidth-accurate simulated network."""

import statistics

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments import apply_overrides, get_scenario
from repro.sim.bandwidth import ConstantBandwidth
from repro.sim.events import Simulator
from repro.sim.messages import Message, Priority
from repro.sim.network import LOOPBACK_DELAY, Network, NetworkConfig
from tests.conftest import build_scenario_state


class Recorder:
    """A process that records (time, src, msg) for every delivery."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def start(self):
        return

    def on_message(self, src, msg):
        self.received.append((self.sim.now, src, msg))


class DecliningRecorder(Recorder):
    """A recorder that declines every transfer above a size threshold."""

    def declines_transfer(self, msg):
        return msg.wire_size > 500


def build(num_nodes=2, delay=0.1, rate=1000.0, recorder_class=Recorder):
    sim = Simulator()
    config = NetworkConfig(
        num_nodes=num_nodes,
        propagation_delay=delay,
        egress_traces=[ConstantBandwidth(rate)] * num_nodes,
        ingress_traces=[ConstantBandwidth(rate)] * num_nodes,
    )
    network = Network(sim, config)
    recorders = []
    for node in range(num_nodes):
        recorder = recorder_class(sim)
        network.attach(node, recorder)
        recorders.append(recorder)
    return sim, network, recorders


class TestDelivery:
    def test_end_to_end_time(self):
        sim, network, recorders = build(rate=1000.0, delay=0.1)
        network.send(0, 1, Message(wire_size=100))
        sim.run()
        # 0.1 s egress + 0.1 s propagation + 0.1 s ingress.
        assert recorders[1].received[0][0] == pytest.approx(0.3)

    def test_loopback_is_cheap(self):
        sim, network, recorders = build()
        network.send(0, 0, Message(wire_size=10_000))
        sim.run()
        assert recorders[0].received[0][0] == pytest.approx(LOOPBACK_DELAY)

    def test_invalid_destination(self):
        _, network, _ = build()
        with pytest.raises(ConfigurationError):
            network.send(0, 5, Message())

    def test_matrix_delays(self):
        sim = Simulator()
        config = NetworkConfig(
            num_nodes=2, propagation_delay=[[0.0, 0.25], [0.25, 0.0]]
        )
        network = Network(sim, config)
        recorder = Recorder(sim)
        network.attach(1, recorder)
        network.send(0, 1, Message(wire_size=0))
        sim.run()
        assert recorder.received[0][0] == pytest.approx(0.25)

    def test_egress_serialisation(self):
        sim, network, recorders = build(rate=100.0, delay=0.0)
        network.send(0, 1, Message(wire_size=100))
        network.send(0, 1, Message(wire_size=100))
        sim.run()
        times = [t for t, _, _ in recorders[1].received]
        # Second message waits for the first at the shared egress, then both
        # also serialise through the ingress pipe.
        assert times[0] == pytest.approx(2.0)
        assert times[1] == pytest.approx(3.0)

    def test_saturated_pipes_deliver_every_queued_message(self):
        """A backlog of ranked retrieval and plain dispersal transfers on every
        pipe drains completely: nothing is lost, duplicated or left queued."""
        sim, network, recorders = build(num_nodes=4, delay=0.01, rate=10_000_000.0)
        num_messages = 600
        for i in range(num_messages):
            src = i % 4
            dst = (src + 1 + (i // 4) % 3) % 4
            if i % 3 == 0:
                msg = Message(wire_size=2_000, priority=Priority.RETRIEVAL)
                network.send(src, dst, msg, rank=float(i % 5))
            else:
                network.send(src, dst, Message(wire_size=2_000, priority=Priority.DISPERSAL))
        sim.run()
        assert network.messages_delivered == num_messages
        assert sum(len(recorder.received) for recorder in recorders) == num_messages
        assert sim.pending_events == 0

    def test_trace_length_validation(self):
        sim = Simulator()
        config = NetworkConfig(num_nodes=3, egress_traces=[None, None])
        with pytest.raises(ConfigurationError):
            Network(sim, config)

    def test_express_node_ids_must_fit_the_train_columns(self):
        config = NetworkConfig(num_nodes=65_537, propagation_delay=0.05)
        with pytest.raises(ConfigurationError, match="65 536"):
            Network(Simulator(), config)


class TestStatsAndPriorities:
    def test_traffic_stats_split_by_priority(self):
        sim, network, _ = build(rate=None if False else 1000.0)
        network.send(0, 1, Message(wire_size=100, priority=Priority.DISPERSAL))
        network.send(0, 1, Message(wire_size=300, priority=Priority.RETRIEVAL))
        sim.run()
        assert network.stats[0].sent[Priority.DISPERSAL] == 100
        assert network.stats[0].sent[Priority.RETRIEVAL] == 300
        assert network.stats[1].received[Priority.DISPERSAL] == 100
        assert network.stats[1].received[Priority.RETRIEVAL] == 300
        assert network.stats[1].dispersal_fraction == pytest.approx(0.25)

    def test_dispersal_fraction_empty(self):
        _, network, _ = build()
        assert network.stats[0].dispersal_fraction == 0.0

    def test_dispersal_priority_wins_shared_egress(self):
        sim, network, recorders = build(rate=100.0, delay=0.0)
        order = []
        recorders[1].on_message = lambda src, msg: order.append(msg.priority)
        # attach() snapshots the handler's bound on_message; re-attach so the
        # replacement above is the method the network delivers to.
        network.attach(1, recorders[1])
        # Something already in flight, then a retrieval and a dispersal queue up.
        network.send(0, 1, Message(wire_size=10, priority=Priority.DISPERSAL))
        network.send(0, 1, Message(wire_size=500, priority=Priority.RETRIEVAL))
        network.send(0, 1, Message(wire_size=500, priority=Priority.DISPERSAL))
        sim.run()
        assert order[1] == Priority.DISPERSAL
        assert order[2] == Priority.RETRIEVAL


class TestReceiverSideCancellation:
    def test_declined_transfer_not_delivered_or_charged(self):
        sim, network, recorders = build(rate=100.0, recorder_class=DecliningRecorder)
        network.send(0, 1, Message(wire_size=1000), abort=lambda dst: False)
        network.send(0, 1, Message(wire_size=100), abort=lambda dst: False)
        sim.run()
        sizes = [msg.wire_size for _, _, msg in recorders[1].received]
        assert sizes == [100]
        # The declined kilobyte was dropped at the ingress, so only the small
        # message was charged against the receiver.
        assert network.stats[1].total_received == 100

    def test_a_transfer_sent_without_abort_is_never_declined(self):
        sim, network, recorders = build(rate=100.0, recorder_class=DecliningRecorder)
        network.send(0, 1, Message(wire_size=1000))
        network.broadcast(0, Message(wire_size=600), include_self=False)
        sim.run()
        assert [msg.wire_size for _, _, msg in recorders[1].received] == [1000, 600]
        assert network.stats[1].total_received == 1600

    def test_abort_callable_from_sender(self):
        sim, network, recorders = build(rate=10.0)
        cancelled = {"flag": False}
        network.send(0, 1, Message(wire_size=100), abort=lambda dst: cancelled["flag"])
        network.send(0, 1, Message(wire_size=10))
        cancelled["flag"] = True
        sim.run()
        assert [msg.wire_size for _, _, msg in recorders[1].received] == [10]

    def test_abort_is_asked_with_the_destination_at_egress_head_and_at_ingress(self):
        sim, network, recorders = build(rate=1000.0, delay=0.1)
        asked = []

        def abort(dst):
            asked.append((round(sim.now, 6), dst))
            return False

        network.send(0, 1, Message(wire_size=100), abort=abort)
        sim.run()
        # Once when the chunk reaches the head of node 0's egress queue, once
        # when it reaches node 1's ingress queue (0.1 s egress + 0.1 s delay).
        assert asked == [(0.0, 1), (0.2, 1)]
        assert len(recorders[1].received) == 1

    def test_abort_that_flips_in_flight_drops_the_transfer_at_ingress(self):
        sim, network, recorders = build(rate=1000.0, delay=0.1)
        cancelled = set()
        network.send(0, 1, Message(wire_size=100), abort=cancelled.__contains__)
        sim.schedule(0.15, lambda: cancelled.add(1))  # after egress, before ingress
        sim.run()
        assert recorders[1].received == []
        assert network.stats[0].total_sent == 100
        assert network.stats[1].total_received == 0

    def test_one_predicate_serves_every_destination(self):
        sim, network, recorders = build(num_nodes=3, rate=1000.0)
        cancelled = {2}
        for dst in (1, 2):
            network.send(0, dst, Message(wire_size=100), abort=cancelled.__contains__)
        sim.run()
        assert len(recorders[1].received) == 1
        assert recorders[2].received == []


class LogRecorder(Recorder):
    """A recorder that also appends ``(dst, src, tag)`` to a cluster-wide log."""

    def __init__(self, sim, log, node_id, on_receive=None):
        super().__init__(sim)
        self.log = log
        self.node_id = node_id
        self.on_receive = on_receive

    def on_message(self, src, msg):
        self.log.append((self.node_id, src, msg.tag))
        if self.on_receive is not None:
            self.on_receive(self.node_id, src, msg)


class Tagged(Message):
    def __init__(self, tag, wire_size=10):
        super().__init__(wire_size=wire_size)
        self.tag = tag


class AskedRecorder(Recorder):
    """A recorder whose decline hook logs every ask and declines when told to."""

    def __init__(self, sim):
        super().__init__(sim)
        self.asked = []
        self.declining = False

    def declines_transfer(self, msg):
        self.asked.append(msg.wire_size)
        return self.declining


class TestIngressAbortPredicateIsDecidedAtArrival:
    """The ingress pipe gets a predicate exactly when the sender passed
    ``abort``, and only such a transfer's receiver is asked to decline it."""

    def predicates(self, send, recorder_class=AskedRecorder, declining=False):
        sim, network, recorders = build(num_nodes=3, rate=1000.0, recorder_class=recorder_class)
        receiver = recorders[1]
        receiver.declining = declining
        submitted = []
        ingress = network._ingress[1]
        submit = ingress.submit
        ingress.submit = lambda *args: (submitted.append(args[4]), submit(*args))
        send(network)
        sim.run()
        return submitted, receiver

    def test_a_plain_send_gets_none_and_never_asks_the_hook(self):
        submitted, receiver = self.predicates(
            lambda network: network.send(0, 1, Message(wire_size=40)), declining=True
        )
        assert submitted == [None]
        assert receiver.asked == []
        assert len(receiver.received) == 1

    def test_a_broadcast_gets_none_and_never_asks_the_hook(self):
        submitted, receiver = self.predicates(
            lambda network: network.broadcast(0, Message(wire_size=40)), declining=True
        )
        assert submitted == [None]
        assert receiver.asked == []
        assert len(receiver.received) == 1

    def test_a_cancellable_send_consults_the_hook(self):
        submitted, receiver = self.predicates(
            lambda network: network.send(0, 1, Message(wire_size=40), abort=lambda dst: False),
            declining=True,
        )
        assert submitted != [None]
        assert receiver.asked == [40]
        assert receiver.received == []

    def test_the_sender_abort_is_asked_before_the_hook(self):
        asked = []
        submitted, receiver = self.predicates(
            lambda network: network.send(
                0, 1, Message(wire_size=40), abort=lambda dst: bool(asked.append(dst))
            ),
        )
        assert submitted != [None]
        assert asked == [1, 1]  # egress head, ingress head
        assert receiver.asked == [40]  # after the sender's abort said no
        assert len(receiver.received) == 1

    def test_a_sender_abort_at_ingress_skips_the_hook(self):
        submitted, receiver = self.predicates(
            lambda network: network.send(
                0, 1, Message(wire_size=40), abort=lambda dst: network.sim.now > 0
            ),
        )
        assert submitted != [None]
        assert receiver.asked == []
        assert receiver.received == []

    def test_no_hook_no_abort_gets_none(self):
        submitted, receiver = self.predicates(
            lambda network: network.send(0, 1, Message(wire_size=40)), recorder_class=Recorder
        )
        assert submitted == [None]
        assert len(receiver.received) == 1


class TestPropagationRidesTheInOrderLane:
    def test_scalar_delay_arrivals_never_enter_the_heap(self):
        sim, network, recorders = build(num_nodes=4, rate=10_000.0, delay=0.5)
        for size in (100, 10, 50):
            network.broadcast(0, Message(wire_size=size), include_self=False)
        sim.run(until=0.3)  # every copy has left node 0's egress pipe
        assert len(sim._lane) == 9 and not sim._queue
        assert sim.pending_events == 9
        sim.run()
        assert [len(recorder.received) for recorder in recorders] == [0, 3, 3, 3]

    def test_delay_matrix_falls_back_entry_by_entry_and_keeps_time_order(self):
        sim = Simulator()
        config = NetworkConfig(
            num_nodes=3,
            propagation_delay=[[0.0, 0.5, 0.1], [0.5, 0.0, 0.1], [0.1, 0.1, 0.0]],
        )
        network = Network(sim, config)
        log = []
        for node in range(3):
            network.attach(node, LogRecorder(sim, log, node))
        network.send(0, 1, Tagged("slow"))  # due at 0.5: joins the lane
        network.send(0, 2, Tagged("fast"))  # due at 0.1, before the lane's tail: heap
        network.send(2, 1, Tagged("fast-too"))
        network.send(1, 0, Tagged("slow-too"))  # due at 0.5 again: back in order
        sim.run(until=0.0)
        assert [entry[2].msg.tag for entry in sim._lane] == ["slow", "slow-too"]
        assert sorted(entry[2].msg.tag for entry in sim._queue) == ["fast", "fast-too"]
        sim.run()
        assert log == [(2, 0, "fast"), (1, 2, "fast-too"), (1, 0, "slow"), (0, 1, "slow-too")]

    def test_heap_stays_shallow_while_thousands_of_messages_are_in_flight(self):
        # The exact quantity behind the speed-up, on a saturated N=7 cluster
        # with Gauss-Markov bandwidth and a scalar delay: messages crossing
        # the WAN wait in the lane, so the heap holds little more than one
        # pipe completion per pipe and the protocol timers.  With every
        # propagation hop on the heap both medians were 225.
        num_nodes = 7
        spec = apply_overrides(
            get_scenario("fig11b-temporal").base,
            {
                "protocol": "dl",
                "topology.num_nodes": num_nodes,
                "workload.kind": "saturating-columnar",
                "duration": 4.0,
            },
        )
        state = build_scenario_state(spec)
        sim = state.sim
        heap, pending = [], []

        def sample():
            heap.append(len(sim._queue))
            pending.append(sim.pending_events)
            sim.schedule(0.01, sample)

        sim.schedule(0.5, sample)
        sim.run(until=spec.duration)
        assert any(node.delivered_epoch >= 2 for node in state.nodes)  # it is committing
        assert statistics.median(heap) <= 8 * num_nodes
        assert statistics.median(pending) >= 3 * 8 * num_nodes


@pytest.mark.parametrize(
    "config, express",
    [
        (NetworkConfig(num_nodes=3, propagation_delay=0.05), True),
        (NetworkConfig(num_nodes=3, egress_traces=[None] * 3, ingress_traces=[None] * 3), True),
        (NetworkConfig(num_nodes=3, egress_traces=[None, None, ConstantBandwidth(1e6)]), False),
        (NetworkConfig(num_nodes=3, ingress_traces=[ConstantBandwidth(None)] * 3), True),
        (NetworkConfig(num_nodes=2, propagation_delay=[[0.0, 0.1], [0.1, 0.0]]), False),
    ],
    ids=["no-traces", "none-traces", "one-limited-link", "trace-objects", "delay-matrix"],
)
def test_the_links_select_the_express_path(config, express):
    """Express exactly when every link is unlimited (no trace, a ``None``
    entry or ``ConstantBandwidth(None)``) and the delay is one scalar."""
    assert Network(Simulator(), config)._express is express


def build_express(num_nodes=4, delay=0.05, on_receive=None, recorder_class=LogRecorder):
    sim = Simulator()
    network = Network(
        sim, NetworkConfig(num_nodes=num_nodes, propagation_delay=delay)
    )
    log = []
    for node in range(num_nodes):
        network.attach(node, recorder_class(sim, log, node, on_receive))
    return sim, network, log


class TestExpressTrains:
    """Consecutive same-instant express unicasts share one heap entry.

    Every test states the delivery order one heap entry per unicast would
    give — send order within an instant — and the event count it would give:
    one per message plus one per scheduled sender callback.
    """

    def test_unicasts_from_one_callback_ride_one_train_in_send_order(self):
        sim, network, log = build_express()
        sends = [(0, 1), (0, 2), (3, 1), (0, 1), (2, 3)]

        def sender():
            for tag, (src, dst) in enumerate(sends):
                network.send(src, dst, Tagged(tag))

        sim.schedule(0.1, sender)
        sim.run(until=0.1)
        assert sim.pending_events == 1  # five unicasts, one heap entry
        sim.run()
        assert log == [(dst, src, tag) for tag, (src, dst) in enumerate(sends)]
        assert sim.processed_events == len(sends) + 1
        assert network.messages_delivered == len(sends)

    def test_two_same_instant_callbacks_share_the_train(self):
        sim, network, log = build_express()
        sim.schedule(0.1, lambda: [network.send(0, 1, Tagged(t)) for t in (0, 1)])
        sim.schedule(0.1, lambda: [network.send(2, 1, Tagged(t)) for t in (2, 3)])
        sim.run(until=0.1)
        assert sim.pending_events == 1
        sim.run()
        assert [tag for _, _, tag in log] == [0, 1, 2, 3]
        assert sim.processed_events == 4 + 2

    def test_a_push_in_between_closes_the_train(self):
        sim, network, log = build_express()

        def sender():
            network.send(0, 1, Tagged("a"))
            network.send(0, 2, Tagged("b"))
            network.broadcast(3, Tagged("m"), include_self=False)
            network.send(0, 1, Tagged("c"))
            network.send(0, 2, Tagged("d"))

        sim.schedule(0.1, sender)
        sim.run(until=0.1)
        assert sim.pending_events == 3  # train, fan-out, train
        sim.run()
        assert log == [
            (1, 0, "a"), (2, 0, "b"),
            (0, 3, "m"), (1, 3, "m"), (2, 3, "m"),
            (1, 0, "c"), (2, 0, "d"),
        ]
        # The fan-out counts as an event besides its three deliveries.
        assert sim.processed_events == 7 + 1 + 1

    def test_a_later_instant_starts_a_new_train(self):
        sim, network, log = build_express()
        network.send(0, 1, Tagged("early"))
        sim.run(until=0.01)
        # Nothing was pushed since the first train, but the arrival differs.
        network.send(0, 1, Tagged("late"))
        assert sim.pending_events == 2
        sim.run()
        assert [tag for _, _, tag in log] == ["early", "late"]

    def test_fired_train_accepts_no_members_at_zero_delay(self):
        def reply(node_id, src, msg):
            if msg.tag == "a":
                # Arrives at this very instant, and the firing train was the
                # last push: it must still start a train of its own.
                network.send(node_id, 2, Tagged("reply"))

        sim, network, log = build_express(delay=0.0, on_receive=reply)
        network.send(0, 1, Tagged("a"))
        network.send(0, 3, Tagged("b"))
        assert sim.pending_events == 1
        sim.run()
        assert [tag for _, _, tag in log] == ["a", "b", "reply"]
        assert sim.processed_events == 3
        assert sim.pending_events == 0

    def test_abort_and_decline_run_at_arrival_and_dropped_cars_still_count(self):
        asked = []

        class Declining(LogRecorder):
            def declines_transfer(self, msg):
                asked.append(msg.tag)
                return msg.tag != "kept"

        sim, network, log = build_express(recorder_class=Declining)
        cancelled = set()
        network.send(0, 1, Tagged("aborted", 100), abort=cancelled.__contains__)
        network.send(0, 2, Tagged("kept", 100), abort=cancelled.__contains__)
        network.send(0, 3, Tagged("declined", 100), abort=cancelled.__contains__)
        network.send(0, 3, Tagged("plain", 100))
        cancelled.add(1)  # flips between send and arrival
        sim.run()
        assert log == [(2, 0, "kept"), (3, 0, "plain")]
        # The sender's abort is asked first; a plain send is never asked.
        assert asked == ["kept", "declined"]
        # The sender is charged at send time, the receiver only on delivery;
        # a dropped unicast was one event on the per-message path too.
        assert network.stats[0].total_sent == 400
        assert [network.stats[n].total_received for n in (1, 2, 3)] == [0, 100, 100]
        assert network.messages_delivered == 2
        assert sim.processed_events == 4

    def test_an_express_broadcast_never_asks_the_hook(self):
        class Declining(LogRecorder):
            def declines_transfer(self, msg):
                raise AssertionError("a broadcast is not cancellable")

        sim, network, log = build_express(recorder_class=Declining)
        network.broadcast(0, Tagged("all", 100), include_self=False)
        sim.run()
        assert log == [(1, 0, "all"), (2, 0, "all"), (3, 0, "all")]
        assert [network.stats[n].total_received for n in range(4)] == [0, 100, 100, 100]

    def test_train_join_needs_the_last_push_to_be_the_train(self):
        sim, network, log = build_express()
        network.send(0, 1, Tagged("a"))
        train_seq = sim.last_seq
        sim.schedule(0.05, lambda: log.append("timer"))  # same arrival instant
        assert sim.last_seq == train_seq + 1
        network.send(0, 1, Tagged("b"))
        sim.run()
        assert log == [(1, 0, "a"), "timer", (1, 0, "b")]
