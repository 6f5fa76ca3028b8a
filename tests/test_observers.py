"""The observer seam: ``build_experiment(observers=…)`` -> ``execute`` -> ``Stop.flush``.

An observer is anything with ``attach(state)`` / ``finish()`` / ``rows``
(:mod:`repro.trace.observers`).  The one defined here has no spec field and
no table row, so these tests pass only if the runner treats observers
generically: attach at build, finish at the horizon, write-and-clear at a
flushing stop, carry through a checkpoint.  The last test pins the span
probe's two homes, ``NodeContext.probe`` and ``Network.probe``.
"""

from __future__ import annotations

import pytest

from repro.common.errors import SnapshotError
from repro.common.snapshot import SnapshotState
from repro.core.config import NodeConfig
from repro.experiments.runner import (
    Stop,
    WorkloadSpec,
    build_experiment,
    execute,
    restore_experiment,
)
from repro.sim.bandwidth import ConstantBandwidth
from repro.sim.events import InternalCallback
from repro.sim.network import NetworkConfig
from repro.trace.recorder import read_jsonl
from repro.trace.spans import SpanRecorder

DURATION = 3.0


class CountingObserver(SnapshotState):
    """Counts processed events on a 0.5 s grid; one ``total`` row at the end."""

    _SNAPSHOT_FIELDS = ("rows", "attached", "finished", "_sim", "_tick")

    def __init__(self):
        self.rows = []
        self.attached = 0
        self.finished = 0
        self._sim = None
        self._tick = InternalCallback(self._sample)

    def attach(self, state):
        self.attached += 1
        self._sim = state.sim
        state.sim.schedule_internal(0.0, self._tick)

    def _sample(self):
        self.rows.append(
            {"kind": "count", "t": self._sim.now, "events": self._sim.processed_events}
        )
        self._sim.schedule_internal(0.5, self._tick)

    def finish(self):
        self.finished += 1
        self.rows.append({"kind": "total", "events": self._sim.processed_events})


def build(observers=None):
    rate = ConstantBandwidth(2_000_000.0)
    return build_experiment(
        "dl",
        NetworkConfig(
            num_nodes=4,
            propagation_delay=0.05,
            egress_traces=[rate] * 4,
            ingress_traces=[rate] * 4,
        ),
        DURATION,
        workload=WorkloadSpec(kind="poisson", rate_bytes_per_second=600_000.0),
        node_config=NodeConfig(max_block_size=100_000),
        observers=observers,
    )


def test_a_test_local_observer_rides_the_whole_seam(tmp_path):
    plain = execute(build(), [Stop(DURATION)])

    straight = CountingObserver()
    state = build({"count": straight})
    assert straight.attached == 1 and state.observers == {"count": straight}
    whole = tmp_path / "whole.jsonl"
    result = execute(state, [Stop(DURATION, flush={"count": whole})])
    assert straight.finished == 1
    assert straight.rows == []  # written, then cleared
    rows = read_jsonl(whole)
    assert [row["t"] for row in rows[:-1]] == [0.5 * step for step in range(7)]
    assert rows[-1] == {"kind": "total", "events": result.events_processed}
    # Behaviour-neutral, like the table's own observers.
    assert result == plain

    # The same run cut by a mid-run flush + checkpoint, continued after a restore.
    head, checkpoint, tail = (tmp_path / name for name in ("head.jsonl", "mid.ckpt", "tail.jsonl"))
    first = build({"count": CountingObserver()})
    assert execute(first, [Stop(1.25, flush={"count": head}, checkpoint=checkpoint)]) is None
    restored = restore_experiment(checkpoint, first.fingerprint)
    observer = restored.observers["count"]
    assert observer is not first.observers["count"]
    assert (observer.attached, observer.finished, observer.rows) == (1, 0, [])
    resumed = execute(restored, [Stop(DURATION, flush={"count": tail})])
    assert observer.finished == 1
    assert resumed == result
    assert head.read_bytes() + tail.read_bytes() == whole.read_bytes()


def test_flushing_an_observer_the_state_was_built_without_is_a_snapshot_error(tmp_path):
    state = build({"count": CountingObserver()})
    with pytest.raises(SnapshotError, match="built without a 'spans' observer"):
        execute(state, [Stop(DURATION, flush={"spans": tmp_path / "never.jsonl"})])
    assert not (tmp_path / "never.jsonl").exists()


def test_node_vid_and_ba_report_through_one_ctx_probe_across_a_checkpoint(tmp_path):
    recorder = SpanRecorder()
    state = build({"spans": recorder})
    checkpoint = tmp_path / "mid.ckpt"
    execute(state, [Stop(1.5, checkpoint=checkpoint)])

    restored = restore_experiment(checkpoint)
    probe = restored.observers["spans"]
    assert probe is not recorder and probe.rows == recorder.rows != []
    assert restored.network.probe is probe
    for node in restored.nodes:
        assert node.ctx.probe is probe
        automata = [*node._vid_instances.values(), *node._ba_instances.values()]
        assert automata
        # No per-automaton copy of the probe: they read the node's context.
        assert all(automaton.ctx is node.ctx for automaton in automata)
        assert not any(hasattr(automaton, "probe") for automaton in automata)

    # Instances created after the restore report to the same recorder.
    before = len(probe.rows)
    execute(restored, [Stop(DURATION)])
    names = {row["name"] for row in probe.rows[before:]}
    assert {"chunk-transfer", "ba-round", "retrieval", "commit"} <= names
