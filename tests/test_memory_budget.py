"""A stated memory budget for the large reference scenario (``columnar-scale``).

Deterministic rather than RSS-based.  Two quantities are bounded, both as
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
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.experiments import apply_overrides, get_scenario
from tests.conftest import build_scenario_state

#: Peak live scheduler entries per N^2 (measured: 6.1).
PENDING_EVENTS_PER_N2 = 8
#: ``tracemalloc`` peak bytes per N^2 (measured: 15.1 kB at N=22, 13.3 kB at N=32).
TRACED_BYTES_PER_N2 = 20_000


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
