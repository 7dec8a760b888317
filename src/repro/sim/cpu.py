"""Host CPU model with context-switch costs.

The paper's §II motivation: "Accesses to backend servers usually means
I/O operations which incur context switch between heterogeneous codes
... Increased context switch uses more portion of CPU resources and
results in higher instruction cache misses"; and §III's remedy:
"Accesses to backend servers are done in bulk at service brokers to
reduce the number of context switchings."

:class:`HostCpu` models one core: work is executed in slices, and
whenever the running task differs from the previous one, a fixed
context-switch penalty (direct cost plus cache-refill cost) is charged
before the slice runs. The ABL-CSW ablation benchmark uses this to show
bulk broker processing beating interleaved per-process API access on
the same total work.
"""

from __future__ import annotations

from typing import Hashable, Optional

from .core import Simulation
from .resources import Resource

__all__ = ["HostCpu"]


class HostCpu:
    """A single CPU core shared by named tasks.

    Parameters
    ----------
    sim:
        The owning simulation.
    context_switch_cost:
        Seconds charged when the core switches to a different task
        (scheduler overhead plus instruction-cache refill).
    """

    def __init__(self, sim: Simulation, context_switch_cost: float = 5e-5) -> None:
        if context_switch_cost < 0:
            raise ValueError(
                f"context_switch_cost must be >= 0: {context_switch_cost!r}"
            )
        self.sim = sim
        self.context_switch_cost = context_switch_cost
        self._core = Resource(sim, capacity=1)
        self._last_task: Optional[Hashable] = None
        self.switches = 0
        self.busy_time = 0.0

    def run(self, task_id: Hashable, duration: float):
        """Execute *duration* seconds of work as *task_id*.

        A ``yield from`` generator. The slice waits for the core, pays
        the switch penalty if the core last ran a different task, then
        occupies the core for *duration*.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0: {duration!r}")
        grant = self._core.request()
        yield grant
        try:
            if self._last_task is not None and self._last_task != task_id:
                self.switches += 1
                self.busy_time += self.context_switch_cost
                yield self.context_switch_cost
            self._last_task = task_id
            self.busy_time += duration
            yield duration
        finally:
            self._core.release(grant)

    def __repr__(self) -> str:
        return (
            f"<HostCpu switches={self.switches} busy={self.busy_time:.4g}s "
            f"last={self._last_task!r}>"
        )
