"""Disk model: seek-distance-dependent access times.

The paper's §II observes that backend QoS notions are heterogeneous:
"the file servers may cluster requests whose accesses are in adjacent
disk layout". That only matters if seeks cost something, so the disk
model charges

* a fixed per-operation overhead (controller + rotational latency),
* a seek time proportional to the head's travel distance in blocks,
* a transfer time per block read.

The head position is stateful: serving requests in block order is
genuinely cheaper than serving them FCFS, which is what the elevator
scheduler (and the broker's batch clustering) exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = ["DiskModel"]


@dataclass
class DiskModel:
    """One disk arm with a stateful head position.

    Defaults approximate a 2003-era 7200 rpm drive: ~4 ms rotational +
    controller overhead, up to ~9 ms full-stroke seek, ~25 MB/s
    sustained transfer with 4 KiB blocks (~0.16 ms/block).
    """

    total_blocks: int = 100_000
    per_operation: ClassVar[float] = 0.004
    full_seek: ClassVar[float] = 0.009
    per_block_transfer: ClassVar[float] = 0.00016

    def __post_init__(self) -> None:
        if self.total_blocks < 1:
            raise ValueError(f"total_blocks must be >= 1: {self.total_blocks!r}")
        self.head = 0
        self.seeks = 0
        self.total_seek_distance = 0
        self.blocks_read = 0

    def seek_time(self, target: int) -> float:
        """Time to move the head to *target* (without moving it)."""
        distance = abs(target - self.head)
        return self.full_seek * distance / self.total_blocks

    def access(self, start_block: int, block_count: int) -> float:
        """Account a read of *block_count* blocks at *start_block*.

        Returns the service time and moves the head to the end of the
        extent. Sequential blocks within the extent transfer without
        additional seeks.
        """
        if not 0 <= start_block < self.total_blocks:
            raise ValueError(f"block out of range: {start_block!r}")
        if block_count < 1:
            raise ValueError(f"block_count must be >= 1: {block_count!r}")
        seek = self.seek_time(start_block)
        distance = abs(start_block - self.head)
        if distance:
            self.seeks += 1
            self.total_seek_distance += distance
        self.head = min(start_block + block_count - 1, self.total_blocks - 1)
        self.blocks_read += block_count
        return self.per_operation + seek + block_count * self.per_block_transfer

    def __repr__(self) -> str:
        return (
            f"<DiskModel head={self.head} seeks={self.seeks} "
            f"travel={self.total_seek_distance}>"
        )
