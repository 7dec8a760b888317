"""A block-mapped filesystem for the file server.

Files are sequences of extents (start block, length). Contiguous layout
models a freshly written file; fragmented layout scatters fixed-size
extents across the disk, which is what makes request ordering matter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ServiceError

__all__ = ["Extent", "FileSystem"]


@dataclass(frozen=True)
class Extent:
    """A run of consecutive blocks belonging to one file."""

    start: int
    length: int


class FileSystem:
    """Named files mapped onto a block device.

    Allocation is first-fit over a simple block cursor; fragmented files
    draw extent positions from the supplied RNG, so layouts are
    deterministic per seed.
    """

    def __init__(self, total_blocks: int = 100_000) -> None:
        if total_blocks < 1:
            raise ValueError(f"total_blocks must be >= 1: {total_blocks!r}")
        self.total_blocks = total_blocks
        self._files: Dict[str, List[Extent]] = {}
        self._cursor = 0

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def __len__(self) -> int:
        return len(self._files)

    def create(
        self,
        name: str,
        blocks: int,
        fragmented: bool = False,
        extent_size: int = 8,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Create *name* spanning *blocks* blocks.

        Contiguous files get one extent at the allocation cursor;
        fragmented files are split into ``extent_size``-block extents
        placed uniformly at random (requires *rng*).
        """
        if name in self._files:
            raise ServiceError(f"file exists: {name!r}")
        if blocks < 1:
            raise ServiceError(f"blocks must be >= 1: {blocks!r}")
        if not fragmented:
            if self._cursor + blocks > self.total_blocks:
                raise ServiceError("filesystem full")
            self._files[name] = [Extent(self._cursor, blocks)]
            self._cursor += blocks
            return
        if rng is None:
            raise ServiceError("fragmented layout requires an rng")
        extents: List[Extent] = []
        remaining = blocks
        while remaining > 0:
            length = min(extent_size, remaining)
            start = rng.randrange(0, self.total_blocks - length)
            extents.append(Extent(start, length))
            remaining -= length
        self._files[name] = extents

    def extents_of(self, name: str) -> List[Extent]:
        """The extents of *name*; raises :class:`ServiceError` if missing."""
        extents = self._files.get(name)
        if extents is None:
            raise ServiceError(f"no such file: {name!r}")
        return list(extents)

    def size_of(self, name: str) -> int:
        """File size in blocks."""
        return sum(extent.length for extent in self.extents_of(name))

    def first_block(self, name: str) -> int:
        """The file's first block (used for elevator ordering)."""
        return self.extents_of(name)[0].start
