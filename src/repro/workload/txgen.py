"""Client transaction generators.

The paper generates load with "a thread on each node that generates
transactions in a Poisson arrival process" (S6.1): a :class:`PoissonSource`
with a constant, bursty or diurnal rate profile, whose arrivals are drawn
when the node reads its queue.  The throughput experiments additionally
need an "infinitely-backlogged system" (S6.2), modelled here by a
saturating generator that keeps each node's mempool topped up so block
formation is never starved.
"""

from __future__ import annotations

import math
import random

from repro.common.snapshot import SnapshotState
from repro.core.node_base import BFTNodeBase
from repro.core.txbatch import TxBatch
from repro.sim.events import Simulator

#: Default transaction size in bytes.  The HoneyBadger evaluation (which the
#: paper follows) uses ~250-byte transactions.
DEFAULT_TX_SIZE = 250


class ConstantRate(SnapshotState):
    """A constant offered load of ``rate`` bytes per second (``"poisson"``)."""

    __slots__ = ("rate",)
    _SNAPSHOT_FIELDS = ("rate",)

    #: Seconds a :class:`PoissonSource` may draw ahead before re-drawing
    #: against the then-current rate; a constant rate never needs to.
    step = None

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError("offered load must be positive")
        self.rate = rate

    def arrival_rate(self, t: float, tx_size: int) -> float:
        """Arrivals per second at virtual time ``t``."""
        return 1.0 / (tx_size / self.rate)


class BurstyRateProfile(SnapshotState):
    """An on/off load profile with mean ``mean_rate`` bytes per second.

    The client population is quiet most of the time and then bursts: for
    ``duty * period`` seconds out of every ``period`` the offered load is
    ``mean_rate / duty`` and zero otherwise, so the long-run average equals
    ``mean_rate``.  This is the classic packet-train / flash-crowd shape that
    a constant-rate Poisson sweep never exercises.

    A plain class rather than a closure so a source holding one can be
    checkpointed (closures don't pickle).
    """

    __slots__ = ("period", "on_rate", "on_for")
    _SNAPSHOT_FIELDS = ("period", "on_rate", "on_for")

    step = 0.25

    def __init__(self, mean_rate: float, period: float = 20.0, duty: float = 0.25):
        if mean_rate <= 0:
            raise ValueError("mean_rate must be positive")
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0 < duty <= 1:
            raise ValueError("duty must be in (0, 1]")
        self.period = period
        self.on_rate = mean_rate / duty
        self.on_for = duty * period

    def arrival_rate(self, t: float, tx_size: int) -> float:
        return self.on_rate / tx_size if t % self.period < self.on_for else 0.0


class DiurnalRateProfile(SnapshotState):
    """A sinusoidal day/night load profile with mean ``mean_rate`` bytes/s.

    The offered load swings between ``mean * (1 - amplitude)`` and
    ``mean * (1 + amplitude)`` over each ``period`` (one simulated "day"),
    starting at the trough so short runs see the ramp-up.  Picklable for the
    same reason as :class:`BurstyRateProfile`.
    """

    __slots__ = ("mean_rate", "period", "amplitude")
    _SNAPSHOT_FIELDS = ("mean_rate", "period", "amplitude")

    step = 0.25

    def __init__(self, mean_rate: float, period: float = 60.0, amplitude: float = 0.8):
        if mean_rate <= 0:
            raise ValueError("mean_rate must be positive")
        if period <= 0:
            raise ValueError("period must be positive")
        if not 0 <= amplitude < 1:
            raise ValueError("amplitude must be in [0, 1)")
        self.mean_rate = mean_rate
        self.period = period
        self.amplitude = amplitude

    def arrival_rate(self, t: float, tx_size: int) -> float:
        swing = 1.0 - self.amplitude * math.cos(2.0 * math.pi * t / self.period)
        return self.mean_rate * swing / tx_size


class PoissonSource(SnapshotState):
    """One node's clients: a Poisson arrival process whose rate follows ``profile``.

    The source schedules nothing.  :meth:`start` hands it to the node's
    mempool, and every read of the queue (``ready_to_propose``,
    ``take_batch``) first calls :meth:`submit_until`, which submits every
    arrival stamped at or before the read — a row stamped exactly at the
    read instant is pending — as one :class:`TxBatch` of exact stamps, and
    holds the first later draw for the next read.  Nothing in a node acts
    on a submission, so the queue a read sees is the one a client pushing
    each arrival on time would have built.

    Each arrival is drawn from the time of the one before against the rate
    there.  A profile with a ``step`` draws at most that far ahead: a draw
    beyond it is discarded and re-drawn ``step`` later at the then-current
    rate (free by memorylessness where the rate is constant across the
    step; the error at a breakpoint, on/off edges included, is bounded by
    one step), and zero-rate stretches advance by the same step.
    """

    _SNAPSHOT_FIELDS = ("_sim", "_node", "_profile", "_tx_size", "_rng", "_stop_at", "_next", "_sequence", "generated", "generated_bytes")

    def __init__(
        self,
        sim: Simulator,
        node: BFTNodeBase,
        profile: ConstantRate | BurstyRateProfile | DiurnalRateProfile,
        tx_size: int = DEFAULT_TX_SIZE,
        seed: int | None = None,
        stop_at: float | None = None,
    ):
        if tx_size <= 0:
            raise ValueError("transaction size must be positive")
        self._sim = sim
        self._node = node
        self._profile = profile
        self._tx_size = tx_size
        self._rng = random.Random(seed)
        self._stop_at = math.inf if stop_at is None else stop_at
        #: The drawn arrival no read has reached yet.
        self._next = math.inf
        self._sequence = 0
        self.generated = 0
        self.generated_bytes = 0

    def start(self) -> None:
        """Draw the first arrival and attach to the node's mempool."""
        self._next = self._draw(self._sim.now)
        self._node.mempool.source = self

    def _draw(self, at: float) -> float:
        profile = self._profile
        while True:
            rate = profile.arrival_rate(at, self._tx_size)
            if rate > 0:
                delay = self._rng.expovariate(rate)
                if profile.step is None or delay <= profile.step:
                    return at + delay
            at += profile.step

    def submit_until(self, now: float) -> None:
        """Submit every arrival stamped at or before ``now`` (and before ``stop_at``)."""
        stamps = []
        at = self._next
        while at <= now and at < self._stop_at:
            stamps.append(at)
            at = self._draw(at)
        self._next = at
        if stamps:
            count = len(stamps)
            n, node_id = self._node.params.n, self._node.node_id
            first = self._sequence + 1
            tx_ids = range(first * n + node_id, (first + count) * n + node_id, n)
            self._sequence += count
            self._node.submit_batch(TxBatch.uniform(node_id, tx_ids, stamps, self._tx_size))
            self.generated += count
            self.generated_bytes += count * self._tx_size


class SaturatingTransactionGenerator(SnapshotState):
    """Keeps a node's mempool backlogged so it always has a full block to propose.

    Used for the "infinitely-backlogged" throughput measurements (S6.2): at a
    fixed refill interval the generator tops the mempool up to a target
    number of pending bytes.  Each top-up is one :class:`TxBatch` of a
    ``range`` of ids (``seq * N + node``, ``seq`` counting up across
    refills) and the refill's one stamp and size, so a refill costs one
    ``submit_batch`` call and O(1) bytes however many transactions it adds.
    Transactions are stamped with their submission time, so latency numbers
    from a saturating run are meaningless by design (the paper likewise only
    reports throughput for these runs).

    ``stop_at`` stops refilling at that virtual time (``None`` = never), the
    same drain-phase knob the Poisson source offers.
    """

    _SNAPSHOT_FIELDS = ("_sim", "_node", "_target", "_tx_size", "_interval", "_stop_at", "_sequence", "generated", "generated_bytes")

    def __init__(
        self,
        sim: Simulator,
        node: BFTNodeBase,
        target_pending_bytes: int = 8_000_000,
        tx_size: int = DEFAULT_TX_SIZE,
        refill_interval: float = 0.05,
        stop_at: float | None = None,
    ):
        if target_pending_bytes <= 0:
            raise ValueError("target_pending_bytes must be positive")
        if tx_size <= 0:
            raise ValueError("transaction size must be positive")
        if refill_interval <= 0:
            raise ValueError("refill_interval must be positive")
        self._sim = sim
        self._node = node
        self._target = target_pending_bytes
        self._tx_size = tx_size
        self._interval = refill_interval
        self._stop_at = stop_at
        self._sequence = 0
        self.generated = 0
        self.generated_bytes = 0

    def start(self) -> None:
        """Fill the mempool immediately and keep it topped up."""
        self._refill()

    def _refill(self) -> None:
        now = self._sim.now
        if self._stop_at is not None and now >= self._stop_at:
            return
        missing = self._target - self._node.mempool.pending_bytes
        if missing > 0:
            count = -(-missing // self._tx_size)  # ceil division
            n, node_id = self._node.params.n, self._node.node_id
            first = self._sequence + 1
            tx_ids = range(first * n + node_id, (first + count) * n + node_id, n)
            self._sequence += count
            batch = TxBatch.uniform(node_id, tx_ids, now, self._tx_size)
            self._node.submit_batch(batch)
            self.generated += count
            self.generated_bytes += count * self._tx_size
        self._sim.schedule(self._interval, self._refill)


__all__ = [
    "BurstyRateProfile",
    "ConstantRate",
    "DiurnalRateProfile",
    "PoissonSource",
    "SaturatingTransactionGenerator",
]
