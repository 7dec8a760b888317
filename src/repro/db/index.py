"""Secondary indexes: hash (equality) and sorted (range).

Indexes map column values to row ids. The planner prefers a hash index
for equality predicates and a sorted index for ranges; both support the
other's lookups where meaningful (a sorted index also answers equality).
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, List, Tuple

__all__ = ["HashIndex", "SortedIndex"]


class HashIndex:
    """value → ascending list of row ids; O(1) equality lookup.

    A list, not a set: a unique column maps each value to one row id,
    and a one-element list is a quarter of a one-element set's bytes.
    Keeping it sorted makes :meth:`lookup` a copy instead of a sort.
    """

    kind = "hash"

    def __init__(self, column: str) -> None:
        self.column = column
        self._map: Dict[Any, List[int]] = {}

    def insert(self, value: Any, row_id: int) -> None:
        """Index *row_id* under *value* (a repeat pair is a no-op)."""
        ids = self._map.get(value)
        if ids is None:
            self._map[value] = [row_id]
            return
        pos = bisect.bisect_left(ids, row_id)
        if pos == len(ids) or ids[pos] != row_id:
            ids.insert(pos, row_id)

    def remove(self, value: Any, row_id: int) -> None:
        """Drop the (value, row id) pair if present."""
        ids = self._map.get(value)
        if ids is None:
            return
        pos = bisect.bisect_left(ids, row_id)
        if pos < len(ids) and ids[pos] == row_id:
            del ids[pos]
            if not ids:
                del self._map[value]

    def lookup(self, value: Any) -> List[int]:
        """Row ids with exactly *value* in the indexed column, ascending."""
        ids = self._map.get(value)
        return ids[:] if ids is not None else []

    def __len__(self) -> int:
        return sum(len(ids) for ids in self._map.values())

    def distinct_values(self) -> int:
        """Number of distinct indexed values."""
        return len(self._map)


class SortedIndex:
    """Sorted (value, row id) pairs; O(log n) range lookup.

    Inserts keep the list sorted via ``bisect.insort`` — O(n) per insert,
    which is fine for bulk-load-then-query workloads; tables built row by
    row should create the index after loading.
    """

    kind = "sorted"

    def __init__(self, column: str) -> None:
        self.column = column
        self._entries: List[Tuple[Any, int]] = []

    def insert(self, value: Any, row_id: int) -> None:
        """Insert keeping the entries sorted (O(n))."""
        bisect.insort(self._entries, (value, row_id))

    def remove(self, value: Any, row_id: int) -> None:
        """Drop the (value, row id) pair if present."""
        pos = bisect.bisect_left(self._entries, (value, row_id))
        if pos < len(self._entries) and self._entries[pos] == (value, row_id):
            del self._entries[pos]

    def bulk_load(self, pairs: Iterable[Tuple[Any, int]]) -> None:
        """Replace contents with *pairs* (sorted once; O(n log n))."""
        self._entries = sorted(pairs)

    def lookup(self, value: Any) -> List[int]:
        """Row ids with exactly *value*."""
        return self.range(low=value, high=value, low_open=False, high_open=False)

    def range(
        self,
        low: Any = None,
        high: Any = None,
        low_open: bool = False,
        high_open: bool = False,
    ) -> List[int]:
        """Row ids whose value lies in the given (half-)open interval."""
        entries = self._entries
        if low is None:
            start = 0
        elif low_open:
            start = bisect.bisect_right(entries, (low, float("inf")))
        else:
            start = bisect.bisect_left(entries, (low, -1))
        if high is None:
            stop = len(entries)
        elif high_open:
            stop = bisect.bisect_left(entries, (high, -1))
        else:
            stop = bisect.bisect_right(entries, (high, float("inf")))
        return [row_id for _, row_id in entries[start:stop]]

    def __len__(self) -> int:
        return len(self._entries)
