"""Time-varying bandwidth traces for the simulated pipes.

The paper throttles each node's ingress and egress independently, either to
a constant (spatial-variation experiment, S6.3), or following a
Gauss-Markov process sampled every second (temporal-variation experiment).
Traces here are piecewise-constant rate functions; the pipe integrates them
exactly to find when a transfer finishes, and follows them segment by
segment (:meth:`BandwidthTrace.segment_at`) so a transfer that fits the
current segment needs no lookup at all.
"""

from __future__ import annotations

import bisect
import math
from typing import Protocol, Sequence


class BandwidthTrace(Protocol):
    """A piecewise-constant rate function in bytes per second."""

    def rate_at(self, time: float) -> float:
        """Instantaneous rate at ``time`` (bytes/second)."""
        ...

    def finish_time(self, start: float, size: int) -> float:
        """Earliest time at which ``size`` bytes complete if started at ``start``."""
        ...

    def segment_at(self, time: float) -> tuple[float, float, float]:
        """The constant-rate segment ``(start, end, rate)`` in force at ``time``.

        ``rate == rate_at(t)`` for every ``t`` in ``[start, end)``, and a
        transfer of ``size`` bytes begun at such a ``t`` finishes at exactly
        ``t + size / rate`` — the expression :meth:`finish_time` evaluates —
        whenever ``rate > 0`` and that instant is no later than ``end``.
        """
        ...


class ConstantBandwidth:
    """A trace with a single constant rate (or unlimited if ``rate`` is None)."""

    def __init__(self, rate: float | None):
        if rate is not None and rate <= 0:
            raise ValueError(f"bandwidth must be positive, got {rate}")
        self._rate = rate

    def rate_at(self, time: float) -> float:
        return math.inf if self._rate is None else self._rate

    def finish_time(self, start: float, size: int) -> float:
        if self._rate is None:
            return start
        return start + size / self._rate

    def segment_at(self, time: float) -> tuple[float, float, float]:
        return -math.inf, math.inf, self.rate_at(time)


class PiecewiseConstantBandwidth:
    """A trace defined by breakpoints ``[(t0, r0), (t1, r1), ...]``.

    The rate is ``r_i`` on ``[t_i, t_{i+1})`` and ``r_last`` after the final
    breakpoint.  Rates of zero are allowed (the transfer simply waits).
    """

    def __init__(self, breakpoints: Sequence[tuple[float, float]]):
        if not breakpoints:
            raise ValueError("need at least one breakpoint")
        times = [t for t, _ in breakpoints]
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("breakpoint times must be strictly increasing")
        if any(rate < 0 for _, rate in breakpoints):
            raise ValueError("rates must be non-negative")
        self._times = times
        self._rates = [r for _, r in breakpoints]

    def rate_at(self, time: float) -> float:
        return self.segment_at(time)[2]

    def segment_at(self, time: float) -> tuple[float, float, float]:
        # Like ``rate_at`` always did, a time before the first breakpoint
        # reads the first segment; ``start > time`` then tells the caller
        # that nothing flows yet (``finish_time`` waits for ``start``).
        times = self._times
        index = max(bisect.bisect_right(times, time) - 1, 0)
        end = times[index + 1] if index + 1 < len(times) else math.inf
        return times[index], end, self._rates[index]

    def finish_time(self, start: float, size: int) -> float:
        remaining = float(size)
        if remaining <= 0:
            return start
        index = bisect.bisect_right(self._times, start) - 1
        if index < 0:
            index = 0
        current = max(start, self._times[0])
        while True:
            rate = self._rates[index]
            if index + 1 < len(self._times):
                segment_end = self._times[index + 1]
                if rate > 0:
                    needed = remaining / rate
                    if current + needed <= segment_end:
                        return current + needed
                    remaining -= rate * (segment_end - current)
                current = segment_end
                index += 1
            else:
                if rate <= 0:
                    # No more breakpoints and zero rate: the transfer never
                    # finishes.  Return infinity so callers can detect it.
                    return math.inf
                return current + remaining / rate
