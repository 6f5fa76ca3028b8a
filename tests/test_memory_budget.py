"""Stated memory budgets, deterministic rather than RSS-based.

**Per committed transaction** (``straggler-hetero``, the saturating client
on a straggler cluster): what a run keeps for a committed transaction is its
row in the block's columns, shared by every node's ledger and collector —
no record object, no per-node latency sample.

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
19.9 MB and 48.7 MB (41 and 48 kB per N^2) at N=22 and N=32.

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
from tests.conftest import build_scenario_state

#: Traced bytes per additionally committed transaction, end-of-run and peak
#: (measured: 65.0 and 65.2 — the peak is the end of the run now that the
#: initial mempool fill stages no records, 15.1 MB at 4 s and 19.5 MB at 8 s;
#: with one ``Transaction`` and N latency floats kept per committed
#: transaction it was 542 and 542).
BYTES_PER_COMMITTED_TX = 80

#: Peak live scheduler entries per N^2 (measured: 6.1).
PENDING_EVENTS_PER_N2 = 8
#: ``tracemalloc`` peak bytes per N^2 (measured: 15.1 kB at N=22, 13.3 kB at N=32).
TRACED_BYTES_PER_N2 = 20_000
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
def test_traced_memory_stays_within_20_kb_per_n_squared(num_nodes):
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


def test_memory_per_committed_transaction_and_no_record_kept():
    short, short_end, short_peak = _run_straggler(4.0)
    long, long_end, long_peak = _run_straggler(8.0)
    committed = [
        max(metrics.confirmed_transactions for metrics in state.collector.per_node)
        for state in (short, long)
    ]
    extra = committed[1] - committed[0]
    assert extra > 50_000
    assert (long_end - short_end) / extra <= BYTES_PER_COMMITTED_TX
    assert (long_peak - short_peak) / extra <= BYTES_PER_COMMITTED_TX

    # 536 000 transactions were submitted, all as columns; the run holds no
    # record, in the nodes (mempools, blocks, ledgers) or in the collector ...
    assert sum(generator.generated for generator in long.generators) > 500_000
    assert not _reaches_a_record(long.nodes)
    assert not _reaches_a_record([long.collector])
    # ... until someone asks a ledger for them.
    records = long.nodes[0].ledger.transactions()
    assert len(records) == long.collector.per_node[0].confirmed_transactions > 0
    assert type(records[0]) is Transaction
