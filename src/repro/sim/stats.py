"""Online statistics used by the measurement layer.

These are deliberately dependency-light (no numpy in the hot path): the
simulator records per-event observations at high rates, so each ``add`` must
be a handful of arithmetic operations.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

__all__ = ["RunningStat", "Histogram"]


class RunningStat:
    """Welford online mean/variance with min/max tracking."""

    __slots__ = ("count", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.total = 0.0

    def add(self, x: float) -> None:
        """Fold one observation into the statistic."""
        self.count += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if self.min is None or x < self.min:
            self.min = x
        if self.max is None or x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        """Record a batch of observations."""
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations so far."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0 for fewer than two observations."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        """Sample standard deviation of the observations so far."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RunningStat(n={self.count}, mean={self.mean:.3g}, sd={self.stdev:.3g})"


class Histogram:
    """Sample-retaining histogram with exact percentiles.

    Retains raw samples up to ``max_samples`` then switches to reservoir
    sampling, so memory stays bounded for long runs while percentiles stay
    statistically representative.
    """

    def __init__(self, max_samples: int = 100_000, rng=None) -> None:
        self._samples: List[float] = []
        self._max = max_samples
        self._seen = 0
        self._rng = rng
        self.stat = RunningStat()

    def add(self, x: float) -> None:
        """Record one observation."""
        self.stat.add(x)
        self._seen += 1
        if len(self._samples) < self._max:
            self._samples.append(x)
        else:
            # Reservoir sampling keeps a uniform subsample.
            if self._rng is None:
                import random

                self._rng = random.Random(0xE52)
            j = self._rng.randrange(self._seen)
            if j < self._max:
                self._samples[j] = x

    @property
    def count(self) -> int:
        """Number of observations recorded so far."""
        return self._seen

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations so far."""
        return self.stat.mean

    @property
    def max(self) -> Optional[float]:
        """Largest observation so far (None when empty)."""
        return self.stat.max

    @property
    def min(self) -> Optional[float]:
        """Smallest observation so far (None when empty)."""
        return self.stat.min

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile ``p`` in [0, 100] of the retained samples."""
        if not self._samples:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        return percentile_of_sorted(sorted(self._samples), p)

    def samples(self) -> Sequence[float]:
        """The retained (possibly subsampled) raw observations."""
        return tuple(self._samples)


def percentile_of_sorted(xs: Sequence[float], p: float) -> float:
    """Percentile of an already-sorted sequence (linear interpolation)."""
    if not xs:
        return 0.0
    if len(xs) == 1:
        return xs[0]
    rank = (p / 100.0) * (len(xs) - 1)
    lo = int(rank)
    frac = rank - lo
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] * (1 - frac) + xs[lo + 1] * frac
