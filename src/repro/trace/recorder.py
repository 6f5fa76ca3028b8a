"""Per-run telemetry: a time-series recorder hooked into the simulator.

End-of-run summaries answer *how much*; the :class:`TraceRecorder` answers
*when and where*.  While a scenario runs it samples every node's links on a
fixed virtual-time grid — pipe queue depths, link utilisation, cumulative
traffic, epoch frontiers, confirmed bytes — and after the run it derives
per-epoch commit rows (and adversary-delivery rows when Byzantine nodes
were placed) from the ledgers.  The rows are written as JSONL next to the
summary, one self-describing object per line, so plots and ad-hoc analysis
need nothing beyond ``json.loads`` per line.

Recording is **behaviour-neutral**: the sampling callback is an
:class:`~repro.sim.events.InternalCallback` (excluded from event accounting)
that only *reads* simulator state, so a run with telemetry enabled produces
a summary bit-identical to the same run with it disabled — the golden
suite's guarantees survive turning it on.

Row kinds:

* ``meta`` — one header row: scenario name, node count, sampling interval.
* ``sample`` — per node, every ``interval`` virtual seconds: egress/ingress
  queue depth (queued + in-flight bytes), utilisation (busy-time fraction of
  the elapsed interval), cumulative transferred bytes, the node's dispersal
  and delivery epoch frontiers, and cumulative confirmed payload bytes.
* ``commit`` — per node and delivered-in epoch, after the run: the virtual
  time the epoch's retrieval phase finished delivering, the gap since the
  previous commit (the per-epoch commit latency), and what it delivered.
* ``adversary-delivery`` — one row per honest-ledger entry proposed by an
  adversarial node (placeholder deliveries included), when adversaries were
  placed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.common.errors import ConfigurationError
from repro.common.snapshot import SnapshotState
from repro.sim.events import InternalCallback


@dataclass(frozen=True)
class TelemetrySpec:
    """Opt-in per-scenario telemetry recording (rides in the spec JSON).

    Attributes:
        enabled: record a telemetry time-series for this run (default off;
            disabled runs are byte-identical to specs without the field).
        interval: virtual seconds between samples.
        out_dir: directory the per-point JSONL files are written under
            (created on demand; relative paths resolve against the working
            directory of the run).
    """

    enabled: bool = False
    interval: float = 1.0
    out_dir: str = "telemetry"

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError("telemetry interval must be positive")
        if not self.out_dir:
            raise ConfigurationError("telemetry out_dir must be non-empty")


class TraceRecorder(SnapshotState):
    """Samples link and protocol state on a virtual-time grid.

    An observer (see :mod:`repro.trace.observers`): :meth:`attach` to a
    built simulation schedules the first sample at ``t = 0`` through an
    uncounted internal callback, :meth:`finish` at the horizon derives the
    post-run rows from the ledgers, and :attr:`rows` is what gets written.
    """

    _SNAPSHOT_FIELDS = (
        "interval",
        "rows",
        "_state",
        "_tick",
        "_busy",
        "_last_sample_at",
    )

    def __init__(self, interval: float = 1.0):
        if interval <= 0:
            raise ConfigurationError("sampling interval must be positive")
        self.interval = interval
        self.rows: list[dict] = []
        #: The ``SimulationState`` being sampled (set by :meth:`attach`).
        self._state = None
        self._tick = InternalCallback(self._sample)
        #: Last-seen ``(egress_busy, ingress_busy)`` per node, for utilisation.
        self._busy: list[tuple[float, float]] = []
        self._last_sample_at = 0.0

    def attach(self, state) -> None:
        """Start sampling ``state``'s nodes on its clock (first sample at now)."""
        sim, network = state.sim, state.network
        self._state = state
        self._busy = [(0.0, 0.0)] * network.num_nodes
        self._last_sample_at = sim.now
        self.rows.append(
            {
                "kind": "meta",
                "t": sim.now,
                "num_nodes": network.num_nodes,
                "interval": self.interval,
            }
        )
        sim.schedule_internal(0.0, self._tick)

    def _sample(self) -> None:
        state = self._state
        sim, network = state.sim, state.network
        now = sim.now
        elapsed = now - self._last_sample_at
        for node_id, node in enumerate(state.nodes):
            snap = network.link_snapshot(node_id)
            egress_busy, ingress_busy = self._busy[node_id]
            if elapsed > 0:
                egress_util = (snap["egress_busy_time"] - egress_busy) / elapsed
                ingress_util = (snap["ingress_busy_time"] - ingress_busy) / elapsed
            else:
                egress_util = ingress_util = 0.0
            self._busy[node_id] = (snap["egress_busy_time"], snap["ingress_busy_time"])
            row = {
                "kind": "sample",
                "t": now,
                "node": node_id,
                "egress_queue": snap["egress_queue"],
                "ingress_queue": snap["ingress_queue"],
                "egress_util": egress_util,
                "ingress_util": ingress_util,
                "egress_bytes": snap["egress_bytes"],
                "ingress_bytes": snap["ingress_bytes"],
                "current_epoch": node.current_epoch,
                "delivered_epoch": node.delivered_epoch,
                "confirmed_bytes": state.collector.per_node[node_id].confirmed_bytes,
            }
            self.rows.append(row)
        self._last_sample_at = now
        # Re-arm for the next grid point; the run loop simply never fires it
        # once the horizon is reached.
        sim.schedule_internal(self.interval, self._tick)

    def finish(self) -> None:
        """Derive the post-run rows (commits, adversary deliveries) from ledgers."""
        adversarial_set = set(self._state.placement)
        for node in self._state.nodes:
            ledger = getattr(node, "ledger", None)
            if ledger is None:
                continue
            by_epoch: dict[int, dict] = {}
            for entry in ledger.entries:
                stats = by_epoch.setdefault(
                    entry.delivered_in_epoch,
                    {"t": 0.0, "blocks": 0, "payload_bytes": 0, "linked": 0},
                )
                stats["t"] = max(stats["t"], entry.delivered_at)
                stats["blocks"] += 1
                stats["payload_bytes"] += entry.payload_bytes
                stats["linked"] += 1 if entry.via_linking else 0
                if adversarial_set and entry.proposer in adversarial_set:
                    self.rows.append(
                        {
                            "kind": "adversary-delivery",
                            "t": entry.delivered_at,
                            "node": node.node_id,
                            "epoch": entry.epoch,
                            "delivered_in_epoch": entry.delivered_in_epoch,
                            "proposer": entry.proposer,
                            "via_linking": entry.via_linking,
                            "label": entry.block.label,
                        }
                    )
            previous = 0.0
            for epoch in sorted(by_epoch):
                stats = by_epoch[epoch]
                self.rows.append(
                    {
                        "kind": "commit",
                        "t": stats["t"],
                        "node": node.node_id,
                        "epoch": epoch,
                        "latency": stats["t"] - previous,
                        "blocks": stats["blocks"],
                        "payload_bytes": stats["payload_bytes"],
                        "linked_blocks": stats["linked"],
                    }
                )
                previous = stats["t"]


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> Path:
    """Write observer rows as one JSON object per line; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return target


def read_jsonl(path: str | Path) -> list[dict]:
    """Load an observer JSONL file back into its rows (analysis helper)."""
    rows = []
    with Path(path).open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


__all__ = ["TelemetrySpec", "TraceRecorder", "read_jsonl", "write_jsonl"]
