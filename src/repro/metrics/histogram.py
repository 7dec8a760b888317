"""Fixed-bucket latency histograms.

:class:`~repro.metrics.stats.SummaryStats` keeps every observation so it
can answer exact percentiles; that is the right trade-off for experiment
results but not for always-on observability, where a single run records
millions of latencies across dozens of metric names.
:class:`LatencyHistogram` is the constant-memory complement: a fixed set
of log-spaced bucket boundaries (default ``DEFAULT_LATENCY_EDGES``,
100 µs – 100 s in a 1-2-5 progression), an overflow bucket, and
quantile estimates (p50/p90/p99/p999) by linear interpolation inside
the covering bucket, clamped to the observed min/max so single-bucket
distributions report exact values.

Bucket semantics: bucket *i* counts values ``edges[i-1] < v <=
edges[i]`` — a value landing exactly on a boundary belongs to the
bucket whose upper edge it is. Values above the last edge go to the
overflow bucket; quantiles that fall in the overflow bucket report the
observed maximum.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

__all__ = ["LatencyHistogram", "DEFAULT_LATENCY_EDGES"]

#: Default bucket upper edges in seconds: a 1-2-5 progression per decade
#: from 100 µs to 100 s (19 buckets plus the overflow bucket).
DEFAULT_LATENCY_EDGES: Tuple[float, ...] = tuple(
    base * scale
    for base in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
    for scale in (1.0, 2.0, 5.0)
) + (100.0,)

_NAN = float("nan")


class LatencyHistogram:
    """A fixed-bucket histogram with interpolated quantiles.

    Memory is ``O(len(edges))`` regardless of how many values are
    added; ``add`` costs one binary search over the (small) edge list.
    """

    __slots__ = ("edges", "counts", "overflow", "count", "total", "_min", "_max")

    def __init__(self, edges: Optional[Sequence[float]] = None) -> None:
        chosen = tuple(edges) if edges is not None else DEFAULT_LATENCY_EDGES
        if not chosen:
            raise ValueError("at least one bucket edge is required")
        if any(b <= a for a, b in zip(chosen, chosen[1:])):
            raise ValueError(f"edges must be strictly increasing: {chosen!r}")
        self.edges: Tuple[float, ...] = chosen
        self.counts: List[int] = [0] * len(chosen)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self._min = _NAN
        self._max = _NAN

    def add(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.edges, value)
        if index == len(self.edges):
            self.overflow += 1
        else:
            self.counts[index] += 1
        self.count += 1
        self.total += value
        if not (self._min <= value):  # also true on the first add (NaN)
            self._min = value
        if not (self._max >= value):
            self._max = value

    # -- summary values ------------------------------------------------

    @property
    def maximum(self) -> float:
        """Largest observed value (NaN when empty)."""
        return self._max

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (``0 <= q <= 100``), NaN when empty.

        Linear interpolation between the covering bucket's edges,
        clamped to the observed min/max; quantiles falling in the
        overflow bucket report the observed maximum.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {q!r}")
        if self.count == 0:
            return _NAN
        target = (q / 100.0) * self.count
        if target <= 0:
            return self._min
        cumulative = 0.0
        lower = 0.0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count:
                reached = cumulative + bucket_count
                if reached >= target:
                    upper = self.edges[index]
                    fraction = (target - cumulative) / bucket_count
                    estimate = lower + (upper - lower) * fraction
                    return min(max(estimate, self._min), self._max)
                cumulative = reached
            lower = self.edges[index]
        return self._max  # target falls in the overflow bucket

    @property
    def p50(self) -> float:
        """Median estimate."""
        return self.percentile(50.0)

    @property
    def p90(self) -> float:
        """90th-percentile estimate."""
        return self.percentile(90.0)

    @property
    def p99(self) -> float:
        """99th-percentile estimate."""
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        """99.9th-percentile estimate."""
        return self.percentile(99.9)

    # -- combination ---------------------------------------------------

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """A new histogram holding this one's observations plus *other*'s.

        Both histograms must share the exact same bucket edges — merged
        counts are meaningless otherwise, so a mismatch raises
        :class:`ValueError` instead of silently re-bucketing. Neither
        operand is mutated; the parallel experiment driver uses this to
        combine per-worker-slice histograms into fleet-wide percentiles
        (mirroring :meth:`SummaryStats.merge
        <repro.metrics.stats.SummaryStats.merge>`).
        """
        if self.edges != other.edges:
            raise ValueError(
                f"cannot merge histograms with different edges: "
                f"{len(self.edges)} vs {len(other.edges)} buckets"
            )
        merged = LatencyHistogram(self.edges)
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.overflow = self.overflow + other.overflow
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        for value in (self._min, other._min):
            # Skip NaN (an empty operand) without poisoning the result.
            if value == value and not (merged._min <= value):
                merged._min = value
        for value in (self._max, other._max):
            if value == value and not (merged._max >= value):
                merged._max = value
        return merged

    # -- inspection ----------------------------------------------------

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"<LatencyHistogram n={self.count} "
            f"buckets={len(self.edges)}+overflow>"
        )
