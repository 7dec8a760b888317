"""Online summary statistics: moments of a stream, and a kept sample.

Two types share one recurrence:

* :class:`Moments` folds each observation into count, mean, variance
  (Welford's algorithm), minimum and maximum as it arrives and keeps
  nothing else — a fixed handful of bytes however many observations
  it has seen. Every :class:`~repro.metrics.collector.MetricsRegistry`
  sample is one.
* :class:`SummaryStats` also keeps the sample, for exact percentiles:
  the result latencies an experiment reports. ``add`` sits on the
  simulator's hot path, so it only appends; the sample is folded into
  a :class:`Moments` lazily, on first read, by replaying the identical
  sequence of float operations, which makes the lazy results
  bit-for-bit equal to eager accumulation.

Storage contract: a :class:`SummaryStats` sample is one ``array('d')``
column — 8 bytes per observation, no boxed ``float`` kept per sample.
A C double *is* a Python float, so every read is bit-for-bit what a
list of floats would give; the array does the number check (ints and
bools convert, anything else raises ``TypeError`` where it is added),
and :meth:`SummaryStats.values` hands out a copy. :meth:`Moments.add`
converts and checks a non-``float`` exactly as the column would.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, List, Optional

__all__ = ["Moments", "SummaryStats"]


def _double(value: float) -> float:
    """*value* as the C double an ``array('d')`` stores (or its error)."""
    return array("d", (value,))[0]


class Moments:
    """Count, mean, variance, minimum and maximum — no sample kept.

    >>> m = Moments()
    >>> for v in [1.0, 2.0, 3.0]:
    ...     m.add(v)
    >>> m.count, m.mean, m.variance
    (3, 2.0, 1.0)
    """

    __slots__ = ("count", "_mean", "_m2", "_min", "_max")

    def __init__(self) -> None:
        #: Observations folded so far.
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation in (Welford's recurrence).

        Raises ``TypeError`` for anything that is not a real number.
        """
        if value.__class__ is not float:
            value = _double(value)
        count = self.count + 1
        self.count = count
        mean = self._mean
        delta = value - mean
        mean += delta / count
        self._mean = mean
        self._m2 += delta * (value - mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        """Sample mean; ``nan`` when empty."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance; ``nan`` with fewer than 2 samples."""
        count = self.count
        return self._m2 / (count - 1) if count > 1 else math.nan

    @property
    def stdev(self) -> float:
        var = self.variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self.count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self.count else math.nan

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        if not self.count:
            return "<Moments empty>"
        return (
            f"<Moments n={self.count} mean={self.mean:.4g} "
            f"min={self.minimum:.4g} max={self.maximum:.4g}>"
        )


class SummaryStats:
    """Accumulates numeric observations and summarizes them.

    >>> s = SummaryStats()
    >>> for v in [1.0, 2.0, 3.0]:
    ...     s.add(v)
    >>> s.mean
    2.0
    """

    __slots__ = ("_values", "_moments")

    def __init__(self, values: Optional[Iterable[float]] = None) -> None:
        self._values = array("d")
        if values is not None:
            self._values.extend(values)
        #: The moments of the first ``_moments.count`` values.
        self._moments = Moments()

    def add(self, value: float) -> None:
        """Record one observation (hot path: just an append).

        Raises ``TypeError`` for anything that is not a real number.
        """
        self._values.append(value)

    def _folded(self) -> Moments:
        """The moments, with not-yet-seen observations folded in."""
        moments = self._moments
        values = self._values
        add = moments.add
        for index in range(moments.count, len(values)):
            add(values[index])
        return moments

    def merge(self, other: "SummaryStats") -> "SummaryStats":
        """Return a new :class:`SummaryStats` over both samples."""
        return SummaryStats(self._values + other._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        """Sample mean; ``nan`` when empty."""
        return self._folded().mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance; ``nan`` with fewer than 2 samples."""
        return self._folded().variance

    @property
    def stdev(self) -> float:
        return self._folded().stdev

    @property
    def minimum(self) -> float:
        return self._folded().minimum

    @property
    def maximum(self) -> float:
        return self._folded().maximum

    def percentile(self, q: float) -> float:
        """Exact percentile with linear interpolation; *q* in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q!r}")
        if not self._values:
            return math.nan
        ordered = sorted(self._values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        lower = math.floor(rank)
        upper = math.ceil(rank)
        if lower == upper:
            return ordered[lower]
        frac = rank - lower
        lo = ordered[lower]
        hi = ordered[upper]
        if lo == hi:
            return lo
        result = lo * (1.0 - frac) + hi * frac
        # Interpolating subnormal values can underflow below the
        # bracketing order statistics; clamp so the percentile always
        # lies within [lo, hi] (and hence within [minimum, maximum]).
        if result < lo:
            return lo
        if result > hi:
            return hi
        return result

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def values(self) -> List[float]:
        """A copy of the raw sample, in insertion order."""
        return self._values.tolist()

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        if not self._values:
            return "<SummaryStats empty>"
        return (
            f"<SummaryStats n={self.count} mean={self.mean:.4g} "
            f"min={self.minimum:.4g} max={self.maximum:.4g}>"
        )
