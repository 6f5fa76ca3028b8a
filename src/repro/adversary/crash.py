"""Fail-silent adversaries."""

from __future__ import annotations

from repro.common.snapshot import SnapshotState
from repro.sim.messages import Message
from repro.sim.process import Process


class CrashedNode(SnapshotState):
    """A node that is silent from the start.

    It neither proposes nor responds to any message, which is
    indistinguishable (to the rest of the cluster) from a node whose
    messages are delayed forever — the worst case an asynchronous BFT
    protocol must make progress under, as long as at most ``f`` nodes
    behave this way.
    """

    _SNAPSHOT_FIELDS = ("node_id", "messages_ignored")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.messages_ignored = 0

    def start(self) -> None:  # pragma: no cover - intentionally empty
        return

    def on_message(self, src: int, msg: Message) -> None:
        self.messages_ignored += 1


class CrashAfterNode(SnapshotState):
    """Wraps a correct node and silences it after ``crash_time``.

    Before the crash the wrapped node behaves normally; afterwards all
    incoming messages are swallowed, so the node stops participating in
    dispersals, votes and retrievals.  The ``clock`` is anything with a
    ``now`` property (the simulator or the instant router).
    """

    _SNAPSHOT_FIELDS = ("inner", "_clock", "crash_time", "messages_ignored")

    def __init__(self, inner: Process, clock, crash_time: float):
        if crash_time < 0:
            raise ValueError("crash_time must be non-negative")
        self.inner = inner
        self._clock = clock
        self.crash_time = crash_time
        self.messages_ignored = 0

    @property
    def crashed(self) -> bool:
        return self._clock.now >= self.crash_time

    def start(self) -> None:
        if not self.crashed:
            self.inner.start()

    def on_message(self, src: int, msg: Message) -> None:
        if self.crashed:
            self.messages_ignored += 1
            return
        self.inner.on_message(src, msg)


__all__ = ["CrashAfterNode", "CrashedNode"]
