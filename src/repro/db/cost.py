"""Cost model: executed work → simulated service time.

The paper's motivating example — "a search operation involves traversal
of database tables with many comparison operations, which only results
in a few lines of output" — is exactly what this model captures: service
time scales with rows *examined*, not rows returned. Constants are
calibrated so a full scan of the 42,000-record experiment table costs
roughly 0.2 s, in the ballpark of a 2003-era MySQL table traversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .executor import ExecutionStats

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Converts :class:`ExecutionStats` into seconds of service time."""

    base: float = 0.002
    """Fixed per-query overhead: parse, plan, buffer management."""

    per_row_examined: float = 5e-6
    """Cost of touching one row (comparison + buffer access)."""

    per_row_returned: float = 2e-5
    """Cost of materializing one result row onto the wire."""

    per_row_sorted: ClassVar[float] = 2e-6
    """Multiplier applied as n·log2(n) for ORDER BY."""

    per_row_written: ClassVar[float] = 5e-5
    """Cost of one insert/update/delete, including index maintenance."""

    def service_time(self, stats: ExecutionStats) -> float:
        """Seconds of backend CPU/IO time for the statement's work."""
        time = self.base
        time += stats.rows_examined * self.per_row_examined
        time += stats.rows_returned * self.per_row_returned
        time += stats.rows_written * self.per_row_written
        if stats.sorted_rows > 1:
            time += self.per_row_sorted * stats.sorted_rows * math.log2(
                stats.sorted_rows
            )
        return time
