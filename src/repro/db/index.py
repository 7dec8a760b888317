"""Secondary index: a hash index answering equality and ``IN`` lookups.

An index maps column values to row ids.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, List, Tuple

__all__ = ["HashIndex"]


class HashIndex:
    """value → ascending list of row ids; O(1) equality lookup.

    A list, not a set: a unique column maps each value to one row id,
    and a one-element list is a quarter of a one-element set's bytes.
    Keeping it sorted makes :meth:`lookup` a copy instead of a sort.
    """

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

    def bulk_load(self, pairs: Iterable[Tuple[Any, int]]) -> None:
        """Replace contents with *pairs*, given in ascending row id order.

        Ascending ids make each posting an ``append``: the lists come
        out exactly as per-pair :meth:`insert` calls would leave them.
        """
        postings: Dict[Any, List[int]] = {}
        get = postings.get
        for value, row_id in pairs:
            ids = get(value)
            if ids is None:
                postings[value] = [row_id]
            else:
                ids.append(row_id)
        self._map = postings

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
