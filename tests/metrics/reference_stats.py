"""The list-backed ``SummaryStats``, kept verbatim as a test reference.

This is ``repro.metrics.stats`` as it was before the sample moved into
an ``array('d')`` column: every observation a boxed ``float`` in a
Python list. ``test_stats_differential.py`` drives it and the shipped
class with the same programs and requires every read to be equal.
Do not optimise it — its value is that it is the obvious implementation.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional

__all__ = ["SummaryStats"]


class SummaryStats:
    """Accumulates numeric observations and summarizes them.

    >>> s = SummaryStats()
    >>> for v in [1.0, 2.0, 3.0]:
    ...     s.add(v)
    >>> s.mean
    2.0
    """

    __slots__ = ("_values", "_mean", "_min", "_max", "_reduced")

    def __init__(self, values: Optional[Iterable[float]] = None) -> None:
        self._values: List[float] = []
        self._mean = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: How many leading values are folded into the moments already.
        self._reduced = 0
        if values is not None:
            for value in values:
                self._values.append(float(value))

    def add(self, value: float) -> None:
        """Record one observation (hot path: just an append)."""
        self._values.append(float(value))

    def _reduce(self) -> None:
        """Fold not-yet-seen observations into the running moments."""
        values = self._values
        n = len(values)
        index = self._reduced
        if index == n:
            return
        mean = self._mean
        minimum = self._min
        maximum = self._max
        while index < n:
            value = values[index]
            index += 1
            mean += (value - mean) / index
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        self._mean = mean
        self._min = minimum
        self._max = maximum
        self._reduced = n

    def merge(self, other: "SummaryStats") -> "SummaryStats":
        """Return a new :class:`SummaryStats` over both samples."""
        return SummaryStats(self._values + other._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        """Sample mean; ``nan`` when empty."""
        if not self._values:
            return math.nan
        self._reduce()
        return self._mean

    @property
    def minimum(self) -> float:
        if not self._values:
            return math.nan
        self._reduce()
        return self._min

    @property
    def maximum(self) -> float:
        if not self._values:
            return math.nan
        self._reduce()
        return self._max

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
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def values(self) -> List[float]:
        """A copy of the raw sample, in insertion order."""
        return list(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        if not self._values:
            return "<SummaryStats empty>"
        return (
            f"<SummaryStats n={self.count} mean={self.mean:.4g} "
            f"min={self.minimum:.4g} max={self.maximum:.4g}>"
        )
