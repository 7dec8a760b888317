"""Cost model: executed work → simulated service time.

The paper's motivating example — "a search operation involves traversal
of database tables with many comparison operations, which only results
in a few lines of output" — is exactly what this model captures: service
time scales with rows *examined*, not rows returned. Constants are
calibrated so a full scan of the 42,000-record experiment table costs
roughly 0.2 s, in the ballpark of a 2003-era MySQL table traversal.
"""

from __future__ import annotations

from .executor import ExecutionStats

__all__ = ["service_time"]

#: Fixed per-query overhead: parse, plan, buffer management.
BASE_TIME = 0.002
#: Cost of touching one row (comparison + buffer access).
PER_ROW_EXAMINED = 5e-6
#: Cost of materializing one result row onto the wire.
PER_ROW_RETURNED = 2e-5
#: Cost of one row update, including index maintenance.
PER_ROW_WRITTEN = 5e-5


def service_time(stats: ExecutionStats) -> float:
    """Seconds of backend CPU/IO time for the statement's work."""
    time = BASE_TIME
    time += stats.rows_examined * PER_ROW_EXAMINED
    time += stats.rows_returned * PER_ROW_RETURNED
    time += stats.rows_written * PER_ROW_WRITTEN
    return time
