"""Stated memory budgets, deterministic rather than RSS-based.

**Per committed and per submitted transaction** (``straggler-hetero``, the
saturating client on a straggler cluster): a run keeps nothing per committed
transaction — no record object, no per-node latency sample, and no id, size
or stamp: a saturating refill's ids are a ``range`` and its sizes and stamps
constant columns, all of O(1) bytes, and a block cut from it holds a slice
of the range, not a view that keeps the refill's id array alive.  What grows
with the run is the automata of each epoch (bounded per epoch below), the
per-block lists and the traffic queued for the stragglers.  The traced peak of the 8 s run is 5.5 B per submitted
transaction (13.5 B with an id array per refill, 15.1 B while the automata
also kept every BA round and VID count to the end of the run, 35.9 B while
sizes, stamps and the prefix sums the mempool cut by were arrays of one
value per row).

**Per latency sample** (the same 8 s run): a node's latency summary
subtracts every delivered chunk into one ``float64`` buffer and reduces it
in place, so its traced peak is 8.6 B per sample; with the per-chunk
differences, their concatenation, a sorted copy and the running sums it was
32.05 B.  A finished point leaves no simulator behind for the next one to
build on: the engine collects its cycles once the run returns.

**Per delivered epoch** (the ``temporal16-columnar`` ledger workload's base
of ``fig11b-temporal``: N=16, three and six epochs).  Each epoch adds N VID
and N BA automata per node, and after the run each node keeps only what a
later message could read: a halted agreement is dropped (its id maps to one
shared drop handler), an agreement that moves on drops the round it leaves,
a completed dispersal holds no count for its own root and no empty
container, and the automata are slotted.  The bytes retained at the end of
the run grow by 1.84 kB per extra delivered epoch per N^2.  With every
halted agreement kept, the automata's attributes in instance dicts, empty
containers kept, a ``partial`` per retrieval and a set of completed epochs
per proposer it was 2.9 kB (recorded earlier as 3.5 kB); with every round,
tally and count kept to the end of the run as well, 5.4 kB.

**Per dispersed payload byte** (``equivocate-split`` made honest: N=7, two
epochs of 100 kB real blocks, every node retrieving every block).  The
traced peak is 2.95 B per byte of the 14 dispersed blocks, against a layout
floor of N/k = N/(N-2f) = 2.33: a block is encoded into one buffer of N
shard-sized rows, every shard and the filed payload are views of it, and a
parsed block's transactions are views of that payload.  With the payload,
the parity and the two edge shards (length header, padding) in separate
buffers it was 3.23 B; with systematic shards and parsed transactions
copied out as well, 4.92 B.

**Per N^2** (``columnar-scale``).  Two quantities are bounded, both as
multiples of N^2 — a cluster runs N VID and N BA automata per node per
epoch, so N^2 automata is the state it cannot avoid, while anything that
scales with the N^3 votes and chunks those automata exchange is a leak of
per-message or per-sender state:

* the peak number of live scheduler entries, read after every executed heap
  entry (callbacks only push, so the peak always falls on such a boundary);
* the ``tracemalloc`` peak of build + run.

Before sender tallies became bitmasks, latency columns became shared
references and same-instant express unicasts started sharing a heap entry,
both grew as N^3: 10 188 and 31 778 pending events (21 N^2, 31 N^2) and
19.9 MB and 48.7 MB (41 and 48 kB per N^2) at N=22 and N=32.  With one
tuple per express-train car, one ``set`` of cancelled clients per VID
instance and every decoded chunk map kept to the end of the run, the
traced peak was still 15.3 and 13.3 kB per N^2; with every halted agreement
and its callbacks kept and unslotted automata, 4.9 and 4.7 kB.

**Python frames per delivery** (``columnar-scale``).  The same split applies
to host work that is not protocol logic: every delivery probes the node's
automaton dict with an instance id and every vote reads a quorum threshold,
N^3 times per epoch, so neither may enter a Python frame.  Under ``cProfile``
the calls into ``repro/common/`` stay within 4 N^2 (measured: N + 2 — one
``node_indices`` per node plus building the params) and no generated
dataclass ``__eq__`` runs at all.  With ids that were dataclasses hashing
through ``__hash__`` and thresholds that were properties it was ~19 N^3:
209 508 and 626 498 calls at N=22 and N=32, plus 45 540 and 137 280
``__eq__`` frames.
"""

from __future__ import annotations

import cProfile
import gc
import tracemalloc
import types

import pytest

from repro.core.block import Transaction
from repro.experiments import apply_overrides, get_scenario
from repro.experiments.engine import run_scenario
from repro.sim.events import Simulator
from tests.conftest import build_scenario_state

#: Traced bytes per additionally committed transaction, end-of-run and peak
#: (measured: 17.2 and 18.0 after this module's other tests, 17.8 and 18.5
#: alone — the peak is the end of the run; what remains is the automata of
#: each epoch, bounded per epoch below, the per-block lists and the traffic
#: queued for the stragglers.  With an id array per refill it was 30.0 and
#: 30.8, with every BA round and VID count kept to the end of the run 36.7
#: and 37.3, with materialised size and stamp columns 62.0 and 62.6, and with
#: one ``Transaction`` and N latency floats kept per committed transaction
#: 542).
BYTES_PER_COMMITTED_TX = 21
#: Traced peak bytes of the 8 s run per submitted transaction (measured: 5.5;
#: 13.5 with an id array per refill, 15.1 with every BA round and VID count
#: kept, 35.9 with materialised size and stamp columns).
BYTES_PER_SUBMITTED_TX = 8
#: Traced peak bytes of the 8 s run's ``latency_summaries(local_only=False)``
#: per sample of its largest node (measured: 8.6; 32.05 with four arrays of
#: one float per sample).
BYTES_PER_LATENCY_SAMPLE = 10

#: Traced bytes retained at the end of a run per extra delivered epoch per
#: N^2 (measured: 1 840 after this module's other tests, 1 816 alone; 2 889
#: and 3 053 with every halted agreement, empty container and per-proposer
#: completion set kept and the automata unslotted, recorded earlier as
#: 3 488; 5 433 with every BA round, halted agreement's tallies and
#: completed dispersal's own-root counts kept as well).
BYTES_PER_EPOCH_PER_N2 = 2_000

#: Traced peak bytes of the small real-plane run per dispersed payload byte
#: (measured: 2.95 against a layout floor of N/(N-2f) = 2.33 at N=7; 3.23
#: with the payload, the parity and the edge shards in separate buffers, 4.92
#: with copied systematic shards and parsed transactions).
TRACED_BYTES_PER_DISPERSED_BYTE = 3.1

#: Peak live scheduler entries per N^2 (measured: 6.1).
PENDING_EVENTS_PER_N2 = 8
#: ``tracemalloc`` peak bytes per N^2 (measured: 3.7 kB at N=22, 3.5 kB at
#: N=32; 4.9 and 4.7 kB with every halted agreement kept and the automata
#: unslotted, recorded earlier as 7.0 and 6.0 kB).
TRACED_BYTES_PER_N2 = 8_000
#: Profiled calls into ``repro/common/`` per N^2 (measured: 0.05 and 0.03).
COMMON_CALLS_PER_N2 = 4


def _build(num_nodes: int):
    spec = apply_overrides(
        get_scenario("columnar-scale").base, {"topology.num_nodes": num_nodes}
    )
    return spec, build_scenario_state(spec)


@pytest.mark.parametrize("num_nodes", [22, 32])
def test_pending_events_stay_within_8_n_squared(num_nodes):
    spec, state = _build(num_nodes)
    sim = state.sim
    peak = 0
    while sim.now < spec.duration:
        sim.run(until=spec.duration, max_events=1)
        peak = max(peak, sim.pending_events)
    assert all(node.delivered_epoch == 1 for node in state.nodes)
    assert peak <= PENDING_EVENTS_PER_N2 * num_nodes**2


@pytest.mark.parametrize("num_nodes", [22, 32])
def test_traced_memory_stays_within_8_kb_per_n_squared(num_nodes):
    tracemalloc.start()
    try:
        spec, state = _build(num_nodes)
        state.sim.run(until=spec.duration)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(node.delivered_epoch == 1 for node in state.nodes)
    assert peak <= TRACED_BYTES_PER_N2 * num_nodes**2


@pytest.mark.parametrize("num_nodes", [22, 32])
def test_common_layer_calls_stay_within_4_n_squared(num_nodes):
    profile = cProfile.Profile()
    profile.enable()
    try:
        spec, state = _build(num_nodes)
        state.sim.run(until=spec.duration)
    finally:
        profile.disable()
    assert all(node.delivered_epoch == 1 for node in state.nodes)
    frames = [entry for entry in profile.getstats() if isinstance(entry.code, types.CodeType)]
    common = [
        (entry.code.co_qualname, entry.callcount)
        for entry in frames
        if "/repro/common/" in entry.code.co_filename
    ]
    generated_eq = [
        entry.callcount
        for entry in frames
        if entry.code.co_filename == "<string>" and entry.code.co_name == "__eq__"
    ]
    assert sum(count for _name, count in common) <= COMMON_CALLS_PER_N2 * num_nodes**2, common
    assert generated_eq == []


def test_a_real_plane_run_holds_each_block_about_once():
    spec = apply_overrides(
        get_scenario("equivocate-split").base,
        {
            "adversary.kind": "none",
            "adversary.count": 0,
            "topology.num_nodes": 7,
            "bandwidth.rate": 1e7,
            "workload.kind": "saturating",
            "workload.tx_size": 20_000,
            "workload.target_pending_bytes": 1_000_000,
            "node.nagle_size": 100_000,
            "max_epochs": 2,
            "duration": 8.0,
        },
    )
    tracemalloc.start()
    try:
        state = build_scenario_state(spec)
        state.sim.run(until=spec.duration)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ledgers = [node.ledger for node in state.nodes]
    assert [ledger.num_blocks for ledger in ledgers] == [2 * 7] * 7
    dispersed = sum(entry.block.size for entry in ledgers[0].entries)
    assert dispersed > 1_000_000
    assert peak / dispersed <= TRACED_BYTES_PER_DISPERSED_BYTE


def _run_temporal(max_epochs: int):
    """``fig11b-temporal`` as the ``temporal16-columnar`` ledger workload runs it."""
    spec = apply_overrides(
        get_scenario("fig11b-temporal").base,
        {
            "protocol": "dl",
            "bandwidth.kind": "gauss-markov",
            "bandwidth.sigma": 2_500_000.0,
            "workload.kind": "saturating",
            "workload.tx_size": 1000,
            "max_epochs": max_epochs,
            "duration": 60.0,
        },
    )
    tracemalloc.start()
    try:
        state = build_scenario_state(spec)
        state.sim.run(until=spec.duration)
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return state, current


def test_memory_retained_per_delivered_epoch_stays_within_2_kb_per_n_squared():
    (short, short_end), (long, long_end) = map(_run_temporal, (3, 6))
    delivered = [{node.delivered_epoch for node in state.nodes} for state in (short, long)]
    assert delivered == [{3}, {6}]
    n = len(long.nodes)
    assert (long_end - short_end) / 3 <= BYTES_PER_EPOCH_PER_N2 * n**2


def _run_straggler(duration: float):
    """``straggler-hetero`` ``dl`` under ``tracemalloc``: state, end and peak bytes."""
    spec = apply_overrides(
        get_scenario("straggler-hetero").base, {"protocol": "dl", "duration": duration}
    )
    tracemalloc.start()
    try:
        state = build_scenario_state(spec)
        state.sim.run(until=spec.duration)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return state, current, peak


def _reaches_a_record(roots) -> bool:
    """Whether a ``Transaction`` is reachable from ``roots`` through data.

    Follows instances and containers, not classes, modules or code — those
    lead to the whole process.
    """
    code_like = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, code_like):
            continue
        seen.add(id(obj))
        if type(obj) is Transaction:
            return True
        stack.extend(gc.get_referents(obj))
    return False


@pytest.fixture(scope="module")
def straggler_runs():
    """The 4 s and 8 s runs, shared by the per-transaction and per-sample budgets.

    A 1 s run first pays what the process builds once (lazy imports and
    caches), so the difference of the two runs is the same whichever tests
    ran before — without it, it read 17.0 B alone and 21.1 B after the rest
    of this module.
    """
    _run_straggler(1.0)
    return _run_straggler(4.0), _run_straggler(8.0)


def test_memory_per_committed_transaction_and_no_record_kept(straggler_runs):
    (short, short_end, short_peak), (long, long_end, long_peak) = straggler_runs
    committed = [
        max(metrics.confirmed_transactions for metrics in state.collector.per_node)
        for state in (short, long)
    ]
    extra = committed[1] - committed[0]
    assert extra > 50_000
    assert (long_end - short_end) / extra <= BYTES_PER_COMMITTED_TX
    assert (long_peak - short_peak) / extra <= BYTES_PER_COMMITTED_TX

    # 536 000 transactions were submitted, all as columns, at 5.5 B each; the
    # run holds no record, in the nodes (mempools, blocks, ledgers) or in the
    # collector ...
    submitted = sum(generator.generated for generator in long.generators)
    assert submitted > 500_000
    assert long_peak / submitted <= BYTES_PER_SUBMITTED_TX
    assert not _reaches_a_record(long.nodes)
    assert not _reaches_a_record([long.collector])
    # ... until someone asks a ledger for them.
    records = long.nodes[0].ledger.transactions()
    assert len(records) == long.collector.per_node[0].confirmed_transactions > 0
    assert type(records[0]) is Transaction


def test_a_latency_summary_costs_one_float_per_sample(straggler_runs):
    _short, (long, _end, _peak) = straggler_runs
    samples = max(metrics.confirmed_transactions for metrics in long.collector.per_node)
    assert samples > 100_000
    tracemalloc.start()
    try:
        summaries = long.collector.latency_summaries(local_only=False)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(summary.count for summary in summaries if summary is not None) == samples
    assert peak / samples <= BYTES_PER_LATENCY_SAMPLE


def test_a_finished_point_leaves_no_simulator_behind():
    """The run's graph has cycles and the event loop holds the collector off,
    so without a collection after the run the state outlives its point."""
    spec = apply_overrides(
        get_scenario("straggler-hetero").base, {"protocol": "dl", "duration": 1.0}
    )
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = [obj for obj in gc.get_objects() if type(obj) is Simulator]
        run_scenario(spec)
        left = [
            obj
            for obj in gc.get_objects()
            if type(obj) is Simulator and not any(obj is old for old in before)
        ]
    finally:
        if enabled:
            gc.enable()
    assert not left, f"{len(left)} simulator(s) outlived run_scenario"
