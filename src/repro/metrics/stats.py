"""Small statistics helpers shared by the metrics collector and experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _interpolate(ordered: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of an ascending, non-empty ``ordered`` sample."""
    rank = (q / 100) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    fraction = rank - low
    return float(ordered[low] * (1 - fraction) + ordered[high] * fraction)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values`` by linear interpolation.

    Raises:
        ValueError: if ``values`` is empty or ``q`` is outside [0, 100].
    """
    if not len(values):
        raise ValueError("cannot take a percentile of an empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return _interpolate(sorted(values), q)


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    p5: float
    p50: float
    p95: float
    p99: float

    def as_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p5": self.p5,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


def summarise(values: Sequence[float] | np.ndarray) -> Summary:
    """Mean and percentile summary of ``values`` (which must be non-empty).

    The results are pinned bit for bit by the golden summaries, so both
    reductions are defined down to the rounding:

    * the mean is the samples added **one at a time in sample order** in
      IEEE-754 double precision, ``((v0 + v1) + v2) + ...``, divided by the
      count.  Neither ``sum()`` (compensated since CPython 3.12) nor
      ``ndarray.sum`` (pairwise) is that; the last element of
      ``np.add.accumulate`` is, without a Python step per sample;
    * a percentile interpolates between its two neighbouring order
      statistics as ``lo * (1 - f) + hi * f`` (:func:`percentile`), all four
      from one sort.
    """
    samples = np.asarray(values, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("cannot summarise an empty sequence")
    ordered = np.sort(samples)
    return Summary(
        count=int(samples.size),
        mean=float(np.add.accumulate(samples)[-1]) / int(samples.size),
        p5=_interpolate(ordered, 5),
        p50=_interpolate(ordered, 50),
        p95=_interpolate(ordered, 95),
        p99=_interpolate(ordered, 99),
    )
