"""End-to-end runs on the bandwidth-accurate simulator.

These are the closest tests to the paper's deployment: nodes connected by a
WAN with propagation delay and per-node bandwidth caps, with Poisson or
backlogged client load, checked for the BFT properties and for the
qualitative performance behaviours the protocol is designed to have.
"""

from collections import Counter

import pytest

from repro.ba.coin import CommonCoin
from repro.common.params import ProtocolParams
from repro.core.config import NodeConfig
from repro.core.node import DispersedLedgerNode
from repro.core.node_base import codec_for
from repro.experiments import apply_overrides, get_scenario
from repro.experiments.engine import ScenarioResult
from repro.experiments.runner import summarise_experiment
from repro.honeybadger.node import HoneyBadgerNode
from repro.metrics.collector import MetricsCollector
from repro.sim.bandwidth import ConstantBandwidth
from repro.sim.context import NodeContext
from repro.sim.events import Simulator
from repro.sim.network import Network, NetworkConfig
from repro.workload.txgen import ConstantRate, PoissonSource
from tests.conftest import build_scenario_state


def run_cluster(
    node_class,
    n=4,
    duration=25.0,
    rate=500_000.0,
    bandwidth=2_000_000.0,
    delay=0.1,
    data_plane="real",
    config=None,
    load_rate=100_000.0,
):
    params = ProtocolParams.for_n(n)
    sim = Simulator()
    network_config = NetworkConfig(
        num_nodes=n,
        propagation_delay=delay,
        egress_traces=[ConstantBandwidth(bandwidth)] * n,
        ingress_traces=[ConstantBandwidth(bandwidth)] * n,
    )
    network = Network(sim, network_config)
    collector = MetricsCollector(n)
    coin = CommonCoin()
    config = config or NodeConfig(data_plane=data_plane, max_block_size=200_000)
    codec = codec_for(config, params)
    nodes = []
    for node_id in range(n):
        ctx = NodeContext(node_id, network, sim)
        node = node_class(
            node_id,
            params,
            ctx,
            config=config,
            coin=coin,
            codec=codec,
            on_deliver=collector.record_delivery,
            on_propose=collector.record_proposal,
        )
        network.attach(node_id, node)
        nodes.append(node)
    generators = [
        PoissonSource(sim, node, ConstantRate(load_rate), seed=node.node_id)
        for node in nodes
    ]
    for generator in generators:
        sim.schedule(0.0, generator.start)
    network.start()
    sim.run(until=duration)
    return nodes, collector, network, sim


class TestDispersedLedgerOnSimulatedWan:
    def test_ledgers_agree_and_make_progress(self):
        nodes, collector, _, _ = run_cluster(DispersedLedgerNode)
        prefixes = [tuple(node.ledger.digest_sequence()) for node in nodes]
        shortest = min(len(p) for p in prefixes)
        assert shortest > 0
        assert len({p[:shortest] for p in prefixes}) == 1
        assert all(node.delivered_epoch >= 3 for node in nodes)

    def test_transactions_confirm_with_reasonable_latency(self):
        _, collector, _, _ = run_cluster(DispersedLedgerNode)
        summary = collector.per_node[0].latency_summary(local_only=True)
        assert summary is not None
        # With 100 ms one-way delays the paper reports ~0.8 s; allow slack for
        # the small simulated bandwidth used here.
        assert summary.p50 < 5.0

    def test_dispersal_traffic_is_a_small_fraction(self):
        _, _, network, _ = run_cluster(DispersedLedgerNode, load_rate=300_000.0)
        fractions = [stats.dispersal_fraction for stats in network.stats]
        assert all(0.0 < fraction < 0.8 for fraction in fractions)


class TestHoneyBadgerOnSimulatedWan:
    def test_ledgers_agree_and_make_progress(self):
        nodes, _, _, _ = run_cluster(HoneyBadgerNode)
        prefixes = [tuple(node.ledger.digest_sequence()) for node in nodes]
        shortest = min(len(p) for p in prefixes)
        assert shortest > 0
        assert len({p[:shortest] for p in prefixes}) == 1

    def test_lockstep_keeps_nodes_together(self):
        nodes, _, _, _ = run_cluster(HoneyBadgerNode)
        frontiers = [node.delivered_epoch for node in nodes]
        assert max(frontiers) - min(frontiers) <= 2


class TestDecoupling:
    def test_dl_slow_node_does_not_gate_fast_nodes(self):
        """The core claim (Fig. 1): with one slow node, DispersedLedger's fast
        nodes keep confirming at their own pace while HoneyBadger's all slow
        down to roughly the straggler's pace."""
        n = 4
        slow, fast = 400_000.0, 4_000_000.0

        def run(node_class):
            params = ProtocolParams.for_n(n)
            sim = Simulator()
            traces = [ConstantBandwidth(fast)] * (n - 1) + [ConstantBandwidth(slow)]
            network = Network(
                sim,
                NetworkConfig(
                    num_nodes=n,
                    propagation_delay=0.05,
                    egress_traces=list(traces),
                    ingress_traces=list(traces),
                ),
            )
            collector = MetricsCollector(n)
            coin = CommonCoin()
            config = NodeConfig(data_plane="virtual", max_block_size=300_000)
            nodes = []
            for node_id in range(n):
                ctx = NodeContext(node_id, network, sim)
                node = node_class(
                    node_id, params, ctx, config=config, coin=coin,
                    on_deliver=collector.record_delivery,
                )
                network.attach(node_id, node)
                nodes.append(node)
            from repro.workload.txgen import SaturatingTransactionGenerator

            for node in nodes:
                generator = SaturatingTransactionGenerator(
                    sim, node, target_pending_bytes=2_000_000
                )
                sim.schedule(0.0, generator.start)
            network.start()
            sim.run(until=40.0)
            return collector.throughputs(40.0)

        dl = run(DispersedLedgerNode)
        hb = run(HoneyBadgerNode)
        # DL: the fast nodes outrun the slow node by a wide margin.
        assert max(dl[:3]) > 2.0 * dl[3]
        # DL fast nodes beat HB fast nodes, which are held back by the straggler.
        assert max(dl[:3]) > 1.3 * max(hb[:3])


# ---------------------------------------------------------------------------
# The virtual data plane is the real one without bytes
# ---------------------------------------------------------------------------


class _BytesByKind:
    """A network probe that adds up the wire bytes handed to the network per
    message class."""

    def __init__(self):
        self.sent = Counter()

    def on_message_send(self, src, dst, msg, now):
        self.sent[type(msg).__name__] += msg.wire_size


def _run_plane(name: str, overrides: dict, plane: str):
    """One catalog point on ``plane``: its summary without the label, the
    bytes sent by message kind and by node and traffic class, and each
    honest ledger's ``(epoch, proposer)`` sequence."""
    spec = apply_overrides(get_scenario(name).base, {**overrides, "node.data_plane": plane})
    state = build_scenario_state(spec)
    probe = state.network.probe = _BytesByKind()
    state.sim.run(until=spec.duration)
    summary = ScenarioResult(spec, {}, summarise_experiment(state)).summary()
    del summary["label"]
    sent = [list(stats.sent) for stats in state.network.stats]
    ledgers = [
        node.ledger.sequence()
        for node in state.nodes
        if node.node_id not in state.placement
    ]
    return summary, dict(probe.sent), sent, ledgers


def _point(name: str, overrides: dict, slow: bool = False):
    label = ",".join(f"{path.rsplit('.', 1)[-1]}={value}" for path, value in overrides.items())
    return pytest.param(
        name, overrides, id=f"{name}:{label}", marks=[pytest.mark.slow] if slow else []
    )


#: Catalog points covering DL, DL-Coupled, HB and HB-Link; saturating load
#: under both spellings and constant, bursty and diurnal Poisson load; and the censor,
#: equivocate, crash and crash-after adversaries.  The N <= 10 points run
#: in tier-1; the geo testbed and the latency sweep (~10 s each for both
#: planes) in CI's slow tier.
_PLANE_POINTS = [
    _point("straggler-hetero", {"protocol": "dl", "duration": 6.0}),
    _point("straggler-hetero", {"protocol": "dl-coupled", "duration": 6.0}),
    _point("straggler-hetero", {"protocol": "hb", "duration": 6.0}),
    _point("straggler-hetero", {"protocol": "hb-link", "duration": 6.0}),
    _point("straggler-hetero", {"workload.kind": "saturating-columnar", "duration": 6.0}),
    _point("censor-victim", {"duration": 5.0}),
    _point("censor-victim", {"workload.kind": "diurnal", "duration": 5.0}),
    _point("equivocate-split", {"duration": 10.0}),
    _point(
        "adversary-crash-mix",
        {"adversary.kind": "crash", "adversary.count": 1, "duration": 8.0},
    ),
    _point("bursty-load", {"duration": 6.0}),
    _point("mid-run-crash", {"adversary.crash_time": 4.0, "duration": 8.0}),
    _point("fig08-geo", {"protocol": "dl-coupled", "duration": 6.0}, slow=True),
    _point("fig08-geo", {"protocol": "hb-link", "duration": 6.0}, slow=True),
    _point("fig10-latency", {"duration": 4.0}, slow=True),
]


@pytest.mark.parametrize("name, overrides", _PLANE_POINTS)
def test_the_virtual_data_plane_equals_the_real_one(name, overrides):
    """A virtual chunk is billed exactly what a real one is, so a run on
    either plane sends the same bytes and builds the same ledgers."""
    virtual = _run_plane(name, overrides, "virtual")
    real = _run_plane(name, overrides, "real")
    assert virtual[0]["mean_throughput"] > 0
    assert virtual[0] == real[0], "summaries differ"
    assert virtual[1] == real[1], "bytes sent by message kind differ"
    assert virtual[2] == real[2], "bytes sent by node and traffic class differ"
    assert virtual[3] == real[3], "honest ledgers differ"


# ---------------------------------------------------------------------------
# The express network is the pipe network without pipes
# ---------------------------------------------------------------------------


def _run_transport(name: str, overrides: dict, path: str):
    """One catalog point on unlimited links, on ``path``: ``"express"`` as
    built, ``"one-car"`` (express with every unicast on a train of its own,
    i.e. one heap entry per message) or ``"pipe"`` (express cleared).

    Returns the summary without the label and the event count, the event
    count, the bytes sent and received by node and traffic class, each
    honest ledger's ``(epoch, proposer)`` sequence and, per node, a hash
    chained over its deliveries ``(time, sender, message kind)`` in order.
    """
    spec = apply_overrides(
        get_scenario(name).base, {**overrides, "bandwidth.kind": "unlimited"}
    )
    state = build_scenario_state(spec)
    network, sim = state.network, state.sim
    assert network._express
    network._express = path != "pipe"
    if path == "one-car":
        send = network.send

        def send_on_a_new_train(*args, **kwargs):
            network._train = None
            send(*args, **kwargs)

        network.send = send_on_a_new_train
    deliveries = [0] * spec.topology.num_nodes

    def logged(node, deliver):
        def on_message(src, msg):
            deliveries[node] = hash((deliveries[node], sim.now, src, type(msg).__name__))
            deliver(src, msg)

        return on_message

    network._on_message = [
        logged(node, deliver) for node, deliver in enumerate(network._on_message)
    ]
    sim.run(until=spec.duration)
    summary = ScenarioResult(spec, {}, summarise_experiment(state)).summary()
    del summary["label"]
    events = summary.pop("events_processed")
    stats = [(list(node.sent), list(node.received)) for node in network.stats]
    ledgers = [
        node.ledger.sequence()
        for node in state.nodes
        if node.node_id not in state.placement
    ]
    return summary, events, stats, ledgers, deliveries


#: Catalog points on unlimited links covering DL, DL-Coupled, HB and
#: HB-Link; saturating load under both spellings and constant and diurnal
#: Poisson load; the censor, equivocate, crash and crash-after adversaries;
#: and N = 4 to 32.  The N = 32 and the uncapped N = 16 points (~5 s for
#: both paths together) run in CI's slow tier.
_TRANSPORT_POINTS = [
    _point("straggler-hetero", {"protocol": "dl", "duration": 6.0}),
    _point("straggler-hetero", {"protocol": "dl-coupled", "duration": 6.0}),
    _point("straggler-hetero", {"protocol": "hb", "duration": 6.0}),
    _point("straggler-hetero", {"protocol": "hb-link", "duration": 6.0}),
    _point("straggler-hetero", {"workload.kind": "saturating-columnar", "duration": 6.0}),
    _point("censor-victim", {"duration": 6.0}),
    _point("censor-victim", {"workload.kind": "diurnal", "duration": 6.0}),
    _point("equivocate-split", {"duration": 10.0}),
    _point(
        "adversary-crash-mix",
        {"adversary.kind": "crash", "adversary.count": 1, "duration": 6.0},
    ),
    _point("mid-run-crash", {"adversary.crash_time": 3.0, "duration": 6.0}),
    _point("columnar-scale", {"topology.num_nodes": 4}),
    _point("columnar-scale", {"topology.num_nodes": 16}),
    _point("columnar-scale", {"topology.num_nodes": 32}, slow=True),
    _point(
        "columnar-scale",
        {"topology.num_nodes": 16, "protocol": "hb-link", "max_epochs": None, "duration": 3.0},
        slow=True,
    ),
]


@pytest.mark.parametrize("name, overrides", _TRANSPORT_POINTS)
def test_the_express_network_equals_the_pipe_network(name, overrides):
    """Skipping the pipes of unlimited links changes only the event count.

    The two paths order the deliveries of one instant differently, and every
    simulated result still agrees: the bytes, the ledgers and every summary
    field but ``events_processed``.  The order the express path does have is
    pinned against its own reference: a train of cars delivers exactly what
    one heap entry per unicast would, in the same order, for the same count.
    """
    express = _run_transport(name, overrides, "express")
    pipe = _run_transport(name, overrides, "pipe")
    one_car = _run_transport(name, overrides, "one-car")
    assert express[0]["mean_throughput"] > 0
    assert express[0] == pipe[0], "summaries differ"
    assert express[1] < pipe[1]  # the pipe path counts every hop
    assert express[2] == pipe[2], "bytes by node and traffic class differ"
    assert express[3] == pipe[3], "honest ledgers differ"
    assert express[4] == one_car[4], "trains reorder deliveries"
    assert express[1] == one_car[1], "trains miscount events"
