"""The deque-of-tuples ``TimeSeries``, kept verbatim as a test reference.

This is ``repro.obs.telemetry.TimeSeries`` as it was before the ring
became two ``array('d')`` columns: one ``(t, value)`` tuple per point
in a bounded ``deque``. ``test_timeseries_differential.py`` drives it
and the shipped class with the same programs and requires every read to
be equal. Do not optimise it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from operator import itemgetter
from typing import Deque, List, Optional, Tuple

__all__ = ["TimeSeries"]

DEFAULT_CAPACITY = 720

_TIME = itemgetter(0)


class TimeSeries:
    """A bounded ring buffer of ``(time, value)`` points.

    Appends must be time-ordered (the scraper only ever appends "now").
    When the buffer is full the oldest point is evicted and ``dropped``
    incremented, so windowed queries silently clip to retained history
    — :meth:`delta_over` falls back to the oldest retained point as its
    baseline in that case rather than inventing a zero that predates
    eviction.
    """

    __slots__ = ("name", "capacity", "_points", "dropped")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.name = name
        self.capacity = capacity
        self._points: Deque[Tuple[float, float]] = deque(maxlen=capacity)
        #: Points evicted by the ring bound.
        self.dropped = 0

    def append(self, t: float, value: float) -> None:
        """Record *value* at time *t* (must not precede the last point)."""
        if self._points and t < self._points[-1][0]:
            raise ValueError(
                f"non-monotonic append to {self.name!r}: "
                f"{t} < {self._points[-1][0]}"
            )
        if len(self._points) == self.capacity:
            self.dropped += 1
        self._points.append((t, value))

    def __len__(self) -> int:
        return len(self._points)

    def points(self) -> List[Tuple[float, float]]:
        """All retained points, oldest first."""
        return list(self._points)

    def last(self) -> Optional[Tuple[float, float]]:
        """The newest point, or ``None`` when empty."""
        return self._points[-1] if self._points else None

    def value_at(self, at: float) -> Optional[float]:
        """Value of the newest point with ``t <= at`` (``None`` if none)."""
        index = bisect_right(self._points, at, key=_TIME)
        return self._points[index - 1][1] if index else None

    def delta_over(self, window: float, at: Optional[float] = None) -> float:
        """Increase over ``(at - window, at]`` for a cumulative series.

        The baseline is the newest point with ``t <= at - window``. If
        no retained point is that old, the baseline is ``0.0`` when the
        window genuinely reaches back before the first scrape (counters
        start at zero at t=0), or the oldest *retained* value when the
        ring has already evicted history — the honest answer for a
        clipped window.
        """
        points = self._points
        if not points:
            return 0.0
        if at is None:
            at = points[-1][0]
        current = self.value_at(at)
        if current is None:
            return 0.0
        index = bisect_right(points, at - window, key=_TIME)
        if index:
            baseline = points[index - 1][1]
        else:
            baseline = points[0][1] if self.dropped else 0.0
        return current - baseline

    def __repr__(self) -> str:
        return (
            f"<TimeSeries {self.name!r} n={len(self._points)}"
            f"/{self.capacity} dropped={self.dropped}>"
        )
