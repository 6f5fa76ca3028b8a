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


#: Samples per ``np.add.accumulate`` call of the mean: the running total is
#: carried from chunk to chunk, so the scratch is this many floats, not n.
_ACCUMULATE_CHUNK = 4096


def _sequential_sum(samples: np.ndarray) -> float:
    """``((v0 + v1) + v2) + ...`` of a non-empty sample, a chunk at a time."""
    total = samples[:1]
    for start in range(1, len(samples), _ACCUMULATE_CHUNK):
        chunk = np.concatenate((total, samples[start : start + _ACCUMULATE_CHUNK]))
        total = np.add.accumulate(chunk)[-1:]
    return float(total[0])


def summarise(values: Sequence[float] | np.ndarray) -> Summary:
    """Mean and percentile summary of ``values`` (which must be non-empty;
    a copy is summarised, so an array passed in is left as it is)."""
    return summarise_in_place(np.array(values, dtype=np.float64))


def summarise_in_place(samples: np.ndarray) -> Summary:
    """:func:`summarise` of a ``float64`` buffer the caller hands over: it is
    reordered, and nothing of its size is allocated beside it.

    The results are pinned bit for bit by the golden summaries, so both
    reductions are defined down to the rounding:

    * the mean is the samples added **one at a time in sample order** in
      IEEE-754 double precision, ``((v0 + v1) + v2) + ...``, divided by the
      count.  Neither ``sum()`` (compensated since CPython 3.12) nor
      ``ndarray.sum`` (pairwise) is that; ``np.add.accumulate`` is, without
      a Python step per sample, run over chunks with the total carried;
    * a percentile interpolates between its two neighbouring order
      statistics as ``lo * (1 - f) + hi * f`` (:func:`percentile`), all
      eight read after one in-place ``partition`` at their ranks, which
      puts the same values there as a full sort would.
    """
    count = int(samples.size)
    if count == 0:
        raise ValueError("cannot summarise an empty sequence")
    mean = _sequential_sum(samples) / count
    quantiles = (5, 50, 95, 99)
    ranks = {side(q / 100 * (count - 1)) for q in quantiles for side in (math.floor, math.ceil)}
    samples.partition(sorted(ranks))
    p5, p50, p95, p99 = (_interpolate(samples, q) for q in quantiles)
    return Summary(count=count, mean=mean, p5=p5, p50=p50, p95=p95, p99=p99)
