"""Causal span tracing: nested per-block lifecycle spans as JSONL.

Telemetry (:mod:`repro.trace.recorder`) answers *what* the cluster looked
like over time; spans answer *why* one block was slow.  A
:class:`SpanRecorder` observes the protocol through hooks planted in the
node base class, the VID and BA automata, and the network send path, and
emits one **span row** per completed lifecycle phase:

* ``commit`` — the root, one per ``(node, epoch)``: opens at the node's
  first recorded activity for that epoch and closes when the epoch is fully
  delivered;
* ``dispersal`` — at the proposer, from block cut to VID completion;
* ``chunk-transfer`` — one per chunk/return-chunk message, from
  ``Network.send`` to arrival at the receiving automaton;
* ``retrieval`` — per ``(node, epoch, slot)``, request broadcast to decode;
* ``ba-round`` — per ``(node, epoch, slot, round)``, ending when the round
  advances or the instance decides.

Rows are appended only when a span **closes**, so the file order is the
deterministic close order — a run resumed from a checkpoint writes the same
bytes as one that never stopped.  The
recorder schedules nothing and never mutates protocol state: summaries are
bit-identical with recording on or off, and the open-span bookkeeping is
snapshot-declared so checkpoints carry it across resume.

The module also holds the reductions the ``trace spans`` / ``trace flame``
CLI uses: :func:`summarise_spans` (per-phase latency percentiles, critical
path and slowest-commit drill-down) and :func:`spans_to_chrome` /
:func:`profile_to_chrome` (Chrome trace-event JSON, loadable in Perfetto
or ``chrome://tracing``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.common.errors import TraceError
from repro.common.snapshot import SnapshotState
from repro.trace.recorder import write_jsonl
from repro.vid.messages import ChunkMsg, ReturnChunkMsg


class SpanRecorder(SnapshotState):
    """Collects nested lifecycle spans; behaviour-neutral and hook-driven.

    Every hook takes the virtual ``now`` explicitly, so the recorder holds
    no simulator or network references — its whole state is the closed rows
    plus the open-span bookkeeping, all snapshot-declared.
    """

    _SNAPSHOT_FIELDS = (
        "rows",
        "_next_id",
        "_open_commit",
        "_open_dispersal",
        "_open_retrieval",
        "_open_ba",
        "_open_transfers",
        "_ba_decided",
    )

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []
        self._next_id = 0
        # (node, epoch) -> (span_id, start)
        self._open_commit: dict[tuple[int, int], tuple[int, float]] = {}
        # (node, epoch) -> (span_id, start)
        self._open_dispersal: dict[tuple[int, int], tuple[int, float]] = {}
        # (node, epoch, slot) -> (span_id, start)
        self._open_retrieval: dict[tuple[int, int, int], tuple[int, float]] = {}
        # (node, epoch, slot) -> (span_id, round, start)
        self._open_ba: dict[tuple[int, int, int], tuple[int, int, float]] = {}
        # (src, dst, kind, epoch, proposer) -> FIFO of (span_id, parent, start)
        self._open_transfers: dict[
            tuple[int, int, str, int, int], list[tuple[int, int | None, float]]
        ] = {}
        self._ba_decided: set[tuple[int, int, int]] = set()

    # -- lifecycle ---------------------------------------------------------

    def attach(self, state) -> None:
        """Install the recorder as the probe on the network and every node.

        The probe has one home per side of the send/recv seam:
        ``Network.probe`` and each node's ``NodeContext.probe``, which the
        node shares with its VID and BA automata.
        """
        self.rows.append(
            {"kind": "meta", "t": state.sim.now, "num_nodes": state.network.num_nodes}
        )
        state.network.probe = self
        for node in state.nodes:
            node.ctx.probe = self

    def finish(self) -> None:
        """End of run: drop still-open spans (aborted work emits no rows)."""
        self._open_commit.clear()
        self._open_dispersal.clear()
        self._open_retrieval.clear()
        self._open_ba.clear()
        self._open_transfers.clear()
        self._ba_decided.clear()

    def write_jsonl(self, path: str | Path) -> Path:
        """Write the recorded rows as JSON-lines; returns the path."""
        return write_jsonl(path, self.rows)

    # -- span bookkeeping --------------------------------------------------

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def _commit_id(self, node: int, epoch: int, now: float) -> int:
        """The root span for ``(node, epoch)``, opened at first activity."""
        key = (node, epoch)
        open_span = self._open_commit.get(key)
        if open_span is None:
            open_span = (self._new_id(), now)
            self._open_commit[key] = open_span
        return open_span[0]

    def _close(
        self,
        name: str,
        span_id: int,
        parent: int | None,
        node: int,
        epoch: int,
        start: float,
        end: float,
        **extra: Any,
    ) -> None:
        row = {
            "kind": "span",
            "id": span_id,
            "parent": parent,
            "name": name,
            "node": node,
            "epoch": epoch,
            "start": start,
            "end": end,
        }
        row.update(extra)
        self.rows.append(row)

    # -- protocol hooks (called with explicit virtual `now`) ---------------

    def on_dispersal_start(self, node: int, epoch: int, now: float) -> None:
        self._open_dispersal[(node, epoch)] = (self._new_id(), now)

    def on_dispersal_complete(self, node: int, epoch: int, now: float) -> None:
        open_span = self._open_dispersal.pop((node, epoch), None)
        if open_span is None:
            return
        span_id, start = open_span
        parent = self._commit_id(node, epoch, start)
        self._close("dispersal", span_id, parent, node, epoch, start, now)

    def on_retrieval_start(self, node: int, epoch: int, slot: int, now: float) -> None:
        self._open_retrieval[(node, epoch, slot)] = (self._new_id(), now)

    def on_retrieval_done(self, node: int, epoch: int, slot: int, now: float) -> None:
        open_span = self._open_retrieval.pop((node, epoch, slot), None)
        if open_span is None:
            return
        span_id, start = open_span
        parent = self._commit_id(node, epoch, start)
        self._close(
            "retrieval", span_id, parent, node, epoch, start, now, slot=slot
        )

    def on_ba_round(
        self, node: int, epoch: int, slot: int, round_number: int, now: float
    ) -> None:
        key = (node, epoch, slot)
        if key in self._ba_decided:
            return
        self._close_ba_round(key, now)
        self._open_ba[key] = (self._new_id(), round_number, now)

    def on_ba_decide(
        self, node: int, epoch: int, slot: int, value: bool, now: float
    ) -> None:
        key = (node, epoch, slot)
        if key in self._ba_decided:
            return
        self._close_ba_round(key, now, decision=int(value))
        self._ba_decided.add(key)

    def _close_ba_round(
        self, key: tuple[int, int, int], now: float, **extra: Any
    ) -> None:
        open_span = self._open_ba.pop(key, None)
        if open_span is None:
            return
        span_id, round_number, start = open_span
        node, epoch, slot = key
        parent = self._commit_id(node, epoch, start)
        self._close(
            "ba-round",
            span_id,
            parent,
            node,
            epoch,
            start,
            now,
            slot=slot,
            round=round_number,
            **extra,
        )

    def on_commit(self, node: int, epoch: int, now: float) -> None:
        open_span = self._open_commit.pop((node, epoch), None)
        if open_span is None:
            return
        span_id, start = open_span
        self._close("commit", span_id, None, node, epoch, start, now)

    # -- network hooks -----------------------------------------------------

    def on_message_send(self, src: int, dst: int, msg: Any, now: float) -> None:
        """Open a chunk-transfer span for dispersal and retrieval payloads.

        The parent is resolved at open time: a ``ChunkMsg`` rides the
        proposer's open dispersal, a ``ReturnChunkMsg`` the requester's open
        retrieval.  Linked retrievals (no open retrieval span) parent to the
        root-less ``None`` and are tolerated by every consumer.
        """
        msg_type = type(msg)
        if msg_type is ChunkMsg:
            instance = msg.instance
            open_parent = self._open_dispersal.get((src, instance.epoch))
            key = (src, dst, "chunk", instance.epoch, instance.proposer)
        elif msg_type is ReturnChunkMsg:
            instance = msg.instance
            open_parent = self._open_retrieval.get(
                (dst, instance.epoch, instance.proposer)
            )
            key = (src, dst, "return-chunk", instance.epoch, instance.proposer)
        else:
            return
        parent = open_parent[0] if open_parent is not None else None
        self._open_transfers.setdefault(key, []).append(
            (self._new_id(), parent, now)
        )

    def _transfer_done(
        self, src: int, dst: int, kind: str, epoch: int, proposer: int, now: float
    ) -> None:
        fifo = self._open_transfers.get((src, dst, kind, epoch, proposer))
        if not fifo:
            return
        span_id, parent, start = fifo.pop(0)
        node = src if kind == "chunk" else dst
        self._close(
            "chunk-transfer",
            span_id,
            parent,
            node,
            epoch,
            start,
            now,
            src=src,
            dst=dst,
            proposer=proposer,
            transfer=kind,
        )

    def on_chunk_arrived(
        self, src: int, dst: int, epoch: int, proposer: int, now: float
    ) -> None:
        self._transfer_done(src, dst, "chunk", epoch, proposer, now)

    def on_return_chunk_arrived(
        self, src: int, dst: int, epoch: int, proposer: int, now: float
    ) -> None:
        self._transfer_done(src, dst, "return-chunk", epoch, proposer, now)


# ---------------------------------------------------------------------------
# Reductions: span rows -> summaries / Chrome trace events

#: Lifecycle phases in causal order (used for stable summary ordering).
SPAN_PHASES = ("dispersal", "chunk-transfer", "retrieval", "ba-round", "commit")


def _percentile(durations: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over an already-sorted duration list."""
    if not durations:
        return 0.0
    rank = min(len(durations) - 1, max(0, int(round(fraction * (len(durations) - 1)))))
    return durations[rank]


def _span_rows(rows: Iterable[Mapping[str, Any]]) -> list[Mapping[str, Any]]:
    spans = [row for row in rows if row.get("kind") == "span"]
    if not spans:
        raise TraceError("no span rows (was span recording enabled?)")
    return spans


def critical_path(
    commit: Mapping[str, Any], children: Mapping[int, list[Mapping[str, Any]]]
) -> list[dict[str, Any]]:
    """The latest-finishing child chain under one commit span.

    At each level the child whose ``end`` is largest is the one the commit
    actually waited for; ties break on span id, which is deterministic.
    """
    path: list[dict[str, Any]] = []
    current = commit
    while True:
        below = children.get(current["id"])
        if not below:
            return path
        current = max(below, key=lambda row: (row["end"], row["id"]))
        step = {
            "name": current["name"],
            "node": current["node"],
            "start": current["start"],
            "end": current["end"],
            "duration": current["end"] - current["start"],
        }
        for extra in ("slot", "round", "src", "dst", "transfer"):
            if extra in current:
                step[extra] = current[extra]
        path.append(step)


def summarise_spans(rows: Iterable[Mapping[str, Any]], top: int = 5) -> dict[str, Any]:
    """Reduce span rows to phase statistics and a slowest-commit drill-down.

    Returns a dict with:

    * ``phases`` — per span name: count and duration mean/p50/p90/p99/max;
    * ``commits`` — committed-block count and latency stats;
    * ``slowest`` — the ``top`` slowest commits, each with its critical
      path and per-phase time under that block.
    """
    spans = _span_rows(rows)
    by_name: dict[str, list[float]] = {}
    children: dict[int, list[Mapping[str, Any]]] = {}
    commits: list[Mapping[str, Any]] = []
    for row in spans:
        by_name.setdefault(row["name"], []).append(row["end"] - row["start"])
        parent = row.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(row)
        if row["name"] == "commit":
            commits.append(row)

    phases = {}
    ordered = [name for name in SPAN_PHASES if name in by_name]
    ordered += sorted(set(by_name) - set(SPAN_PHASES))
    for name in ordered:
        durations = sorted(by_name[name])
        phases[name] = {
            "count": len(durations),
            "mean": sum(durations) / len(durations),
            "p50": _percentile(durations, 0.50),
            "p90": _percentile(durations, 0.90),
            "p99": _percentile(durations, 0.99),
            "max": durations[-1],
        }

    slowest = []
    ranked = sorted(
        commits, key=lambda row: (row["start"] - row["end"], row["id"])
    )
    for commit in ranked[:top]:
        per_phase: dict[str, float] = {}
        stack = list(children.get(commit["id"], ()))
        while stack:
            row = stack.pop()
            per_phase[row["name"]] = (
                per_phase.get(row["name"], 0.0) + row["end"] - row["start"]
            )
            stack.extend(children.get(row["id"], ()))
        slowest.append(
            {
                "node": commit["node"],
                "epoch": commit["epoch"],
                "start": commit["start"],
                "end": commit["end"],
                "latency": commit["end"] - commit["start"],
                "phase_seconds": dict(sorted(per_phase.items())),
                "critical_path": critical_path(commit, children),
            }
        )

    commit_durations = sorted(row["end"] - row["start"] for row in commits)
    return {
        "num_spans": len(spans),
        "phases": phases,
        "commits": {
            "count": len(commit_durations),
            "mean_latency": (
                sum(commit_durations) / len(commit_durations)
                if commit_durations
                else 0.0
            ),
            "p50_latency": _percentile(commit_durations, 0.50),
            "p90_latency": _percentile(commit_durations, 0.90),
            "max_latency": commit_durations[-1] if commit_durations else 0.0,
        },
        "slowest": slowest,
    }


def spans_to_chrome(rows: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Lower span rows to Chrome trace-event JSON (Perfetto-loadable).

    Complete events (``ph: "X"``), one track (``tid``) per node, virtual
    seconds scaled to trace microseconds.
    """
    events = []
    for row in _span_rows(rows):
        args = {"id": row["id"], "epoch": row["epoch"]}
        for extra in ("slot", "round", "src", "dst", "transfer", "decision"):
            if extra in row:
                args[extra] = row[extra]
        if row.get("parent") is not None:
            args["parent"] = row["parent"]
        events.append(
            {
                "name": row["name"],
                "cat": "lifecycle",
                "ph": "X",
                "ts": row["start"] * 1e6,
                "dur": (row["end"] - row["start"]) * 1e6,
                "pid": 0,
                "tid": row["node"],
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def profile_to_chrome(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Lower a ``repro-profile-v1`` payload to Chrome trace-event JSON.

    The profiler keeps aggregates, not a timeline, so each callback kind
    renders as one sequential complete event sized by its total host
    seconds — a flame-graph-shaped view of where the wall clock went.
    """
    if payload.get("format") != "repro-profile-v1":
        raise TraceError("not a repro-profile-v1 payload")
    events = []
    cursor = 0.0
    for entry in payload.get("kinds", ()):
        duration = entry["seconds"] * 1e6
        events.append(
            {
                "name": entry["kind"],
                "cat": "profile",
                "ph": "X",
                "ts": cursor,
                "dur": duration,
                "pid": 0,
                "tid": 0,
                "args": {"events": entry["events"], "seconds": entry["seconds"]},
            }
        )
        cursor += duration
    return {"traceEvents": events, "displayTimeUnit": "ms"}


__all__ = [
    "SPAN_PHASES",
    "SpanRecorder",
    "critical_path",
    "profile_to_chrome",
    "spans_to_chrome",
    "summarise_spans",
]
