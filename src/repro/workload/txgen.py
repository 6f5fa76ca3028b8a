"""Client transaction generators.

The paper generates load with "a thread on each node that generates
transactions in a Poisson arrival process" (S6.1).  The throughput
experiments additionally need an "infinitely-backlogged system" (S6.2),
modelled here by a saturating generator that keeps each node's mempool
topped up so block formation is never starved.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import numpy as np

from repro.common.snapshot import SnapshotState
from repro.core.block import Transaction
from repro.core.node_base import BFTNodeBase
from repro.core.txbatch import TxBatch
from repro.sim.events import Simulator

#: Default transaction size in bytes.  The HoneyBadger evaluation (which the
#: paper follows) uses ~250-byte transactions.
DEFAULT_TX_SIZE = 250


class PoissonTransactionGenerator(SnapshotState):
    """Feeds one node transactions following a Poisson arrival process.

    Args:
        sim: the discrete-event simulator driving virtual time.
        node: the node whose mempool receives the transactions.
        rate_bytes_per_second: offered load in payload bytes per second.
        tx_size: size of each transaction in bytes.
        seed: RNG seed (generators with different seeds are independent).
        stop_at: stop generating at this virtual time (None = never).
    """

    _SNAPSHOT_FIELDS = ("_sim", "_node", "_tx_size", "_mean_interarrival", "_rng", "_stop_at", "_sequence", "generated", "generated_bytes")

    def __init__(
        self,
        sim: Simulator,
        node: BFTNodeBase,
        rate_bytes_per_second: float,
        tx_size: int = DEFAULT_TX_SIZE,
        seed: int | None = None,
        stop_at: float | None = None,
    ):
        if rate_bytes_per_second <= 0:
            raise ValueError("offered load must be positive")
        if tx_size <= 0:
            raise ValueError("transaction size must be positive")
        self._sim = sim
        self._node = node
        self._tx_size = tx_size
        self._mean_interarrival = tx_size / rate_bytes_per_second
        self._rng = random.Random(seed)
        self._stop_at = stop_at
        self._sequence = 0
        self.generated = 0
        self.generated_bytes = 0

    def start(self) -> None:
        """Schedule the first arrival."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        delay = self._rng.expovariate(1.0 / self._mean_interarrival)
        self._sim.schedule(delay, self._arrive)

    def _arrive(self) -> None:
        now = self._sim.now
        if self._stop_at is not None and now >= self._stop_at:
            return
        self._sequence += 1
        tx = Transaction(
            tx_id=self._sequence * self._node.params.n + self._node.node_id,
            origin=self._node.node_id,
            created_at=now,
            size=self._tx_size,
        )
        self._node.submit_transaction(tx)
        self.generated += 1
        self.generated_bytes += self._tx_size
        self._schedule_next()


class BurstyRateProfile(SnapshotState):
    """An on/off load profile with mean ``mean_rate`` bytes per second.

    The client population is quiet most of the time and then bursts: for
    ``duty * period`` seconds out of every ``period`` the offered load is
    ``mean_rate / duty`` and zero otherwise, so the long-run average equals
    ``mean_rate``.  This is the classic packet-train / flash-crowd shape that
    a constant-rate Poisson sweep never exercises.

    A plain class rather than a closure so a generator holding one can be
    checkpointed (closures don't pickle).
    """

    __slots__ = ("period", "on_rate", "on_for")
    _SNAPSHOT_FIELDS = ("period", "on_rate", "on_for")

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

    def __call__(self, t: float) -> float:
        return self.on_rate if t % self.period < self.on_for else 0.0


class DiurnalRateProfile(SnapshotState):
    """A sinusoidal day/night load profile with mean ``mean_rate`` bytes/s.

    The offered load swings between ``mean * (1 - amplitude)`` and
    ``mean * (1 + amplitude)`` over each ``period`` (one simulated "day"),
    starting at the trough so short runs see the ramp-up.  Picklable for the
    same reason as :class:`BurstyRateProfile`.
    """

    __slots__ = ("mean_rate", "period", "amplitude")
    _SNAPSHOT_FIELDS = ("mean_rate", "period", "amplitude")

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

    def __call__(self, t: float) -> float:
        return self.mean_rate * (
            1.0 - self.amplitude * math.cos(2.0 * math.pi * t / self.period)
        )


def bursty_rate_profile(
    mean_rate: float, period: float = 20.0, duty: float = 0.25
) -> Callable[[float], float]:
    """Build a :class:`BurstyRateProfile` (kept as the stable factory API)."""
    return BurstyRateProfile(mean_rate, period=period, duty=duty)


def diurnal_rate_profile(
    mean_rate: float, period: float = 60.0, amplitude: float = 0.8
) -> Callable[[float], float]:
    """Build a :class:`DiurnalRateProfile` (kept as the stable factory API)."""
    return DiurnalRateProfile(mean_rate, period=period, amplitude=amplitude)


class ModulatedPoissonTransactionGenerator(SnapshotState):
    """A Poisson arrival process whose rate follows a time-varying profile.

    ``rate_at`` gives the instantaneous offered load in bytes per second.
    The exponential clock is sampled against the rate at the current virtual
    time, but never further than ``max_step`` seconds ahead: a draw that
    lands beyond the horizon is discarded and re-drawn there, which by
    memorylessness simulates the non-homogeneous process exactly wherever
    the rate is constant across a step, and bounds the error from a rate
    breakpoint (including on/off edges of the bursty profile) to one
    ``max_step`` window.  Zero-rate stretches advance on the same horizon.
    """

    _SNAPSHOT_FIELDS = ("_sim", "_node", "_rate_at", "_tx_size", "_rng", "_stop_at", "_max_step", "_sequence", "generated", "generated_bytes")

    def __init__(
        self,
        sim: Simulator,
        node: BFTNodeBase,
        rate_at: Callable[[float], float],
        tx_size: int = DEFAULT_TX_SIZE,
        seed: int | None = None,
        stop_at: float | None = None,
        max_step: float = 0.25,
    ):
        if tx_size <= 0:
            raise ValueError("transaction size must be positive")
        if max_step <= 0:
            raise ValueError("max_step must be positive")
        self._sim = sim
        self._node = node
        self._rate_at = rate_at
        self._tx_size = tx_size
        self._rng = random.Random(seed)
        self._stop_at = stop_at
        self._max_step = max_step
        self._sequence = 0
        self.generated = 0
        self.generated_bytes = 0

    def start(self) -> None:
        """Schedule the first arrival."""
        self._schedule_next()

    def _schedule_next(self) -> None:
        rate = self._rate_at(self._sim.now)
        if rate <= 0:
            self._sim.schedule(self._max_step, self._schedule_next)
            return
        delay = self._rng.expovariate(rate / self._tx_size)
        if delay > self._max_step:
            # Past the sampling horizon: re-draw there at the then-current
            # rate (memorylessness makes the discard statistically free).
            self._sim.schedule(self._max_step, self._schedule_next)
            return
        self._sim.schedule(delay, self._arrive)

    def _arrive(self) -> None:
        now = self._sim.now
        if self._stop_at is not None and now >= self._stop_at:
            return
        self._sequence += 1
        tx = Transaction(
            tx_id=self._sequence * self._node.params.n + self._node.node_id,
            origin=self._node.node_id,
            created_at=now,
            size=self._tx_size,
        )
        self._node.submit_transaction(tx)
        self.generated += 1
        self.generated_bytes += self._tx_size
        self._schedule_next()


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
    same drain-phase knob the Poisson generators offer.
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


class ColumnarPoissonTransactionGenerator(SnapshotState):
    """Batched Poisson arrivals: one vectorised draw per scheduling window.

    Statistically the same homogeneous Poisson process as
    :class:`PoissonTransactionGenerator`, generated window-by-window via the
    order-statistics property: the number of arrivals in a window of length
    ``W`` is Poisson(``rate * W``) and, given the count, the arrival times
    are independent uniforms over the window, sorted.  One numpy draw per
    window replaces one simulator event per transaction.

    The batch for a window is submitted (as one :class:`TxBatch`) when the
    window *closes*, so no transaction is ever available to block formation
    before its stamped arrival time; the price is that availability lags
    arrival by at most ``window`` seconds.  Latency measurements still use
    the exact per-transaction arrival stamps.
    """

    _SNAPSHOT_FIELDS = ("_sim", "_node", "_tx_size", "_rate_tx", "_rng", "_stop_at", "_window", "_sequence", "generated", "generated_bytes")

    def __init__(
        self,
        sim: Simulator,
        node: BFTNodeBase,
        rate_bytes_per_second: float,
        tx_size: int = DEFAULT_TX_SIZE,
        seed: int | None = None,
        stop_at: float | None = None,
        window: float = 0.25,
    ):
        if rate_bytes_per_second <= 0:
            raise ValueError("offered load must be positive")
        if tx_size <= 0:
            raise ValueError("transaction size must be positive")
        if window <= 0:
            raise ValueError("window must be positive")
        self._sim = sim
        self._node = node
        self._tx_size = tx_size
        self._rate_tx = rate_bytes_per_second / tx_size
        self._rng = np.random.default_rng(seed)
        self._stop_at = stop_at
        self._window = window
        self._sequence = 0
        self.generated = 0
        self.generated_bytes = 0

    def start(self) -> None:
        """Open the first scheduling window."""
        self._sim.schedule(self._window, self._close_window)

    def _close_window(self) -> None:
        now = self._sim.now
        start = now - self._window
        if self._stop_at is not None and start >= self._stop_at:
            return
        end = now if self._stop_at is None else min(now, self._stop_at)
        span = end - start
        count = int(self._rng.poisson(self._rate_tx * span))
        if count:
            arrivals = start + span * self._rng.random(count)
            arrivals.sort()
            n, node_id = self._node.params.n, self._node.node_id
            first = self._sequence + 1
            tx_ids = range(first * n + node_id, (first + count) * n + node_id, n)
            self._sequence += count
            batch = TxBatch.uniform(node_id, tx_ids, arrivals, self._tx_size)
            self._node.submit_batch(batch)
            self.generated += count
            self.generated_bytes += count * self._tx_size
        self._sim.schedule(self._window, self._close_window)
