"""Independent simulation partitions on real cores: fork, run, collect.

:func:`run_partitions` takes a model the caller has already cut into
partitions that exchange **no** messages, gives each a private
:class:`~repro.sim.core.Simulation`, runs it to the common horizon and
returns what its ``finalize()`` produced (DESIGN.md §14.2). A
partition's trajectory depends only on its own seed and builder, so the
worker count decides where a partition runs and never what it computes.
The one user is ``run_sharded_qos_experiment(workers=N)``, which
partitions the sharded §V.B topology by shard.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Sequence, Tuple

from ..errors import SimError
from .core import Simulation

__all__ = ["Partition", "run_partitions", "available_workers"]

#: ``(name, seed, builder)``: ``builder(sim)`` builds the partition's
#: model inside *sim* and returns ``finalize()``, whose picklable value is
#: the result. Builders run in the worker; forked, they may be closures.
Partition = Tuple[str, int, Callable[[Simulation], Callable[[], Any]]]


def available_workers() -> int:
    """Usable worker-process count (CPU affinity aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _run_one(partition: Partition, until: float) -> Any:
    _name, seed, builder = partition
    sim = Simulation(seed=seed)
    finalize = builder(sim)
    sim.run(until=until)
    return finalize()


def _worker_main(partitions: Sequence[Partition], until: float, conn) -> None:
    """Worker process body: run the assigned partitions, pipe the values."""
    name = None
    try:
        values = []
        for partition in partitions:
            name = partition[0]
            values.append(_run_one(partition, until))
        conn.send((True, values))
    except BaseException as exc:  # noqa: BLE001 - report, then die
        try:
            conn.send((False, f"partition {name!r}: {exc!r}"))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        raise


def run_partitions(
    partitions: Sequence[Partition], until: float, workers: int = 1
) -> List[Any]:
    """Run every partition to virtual time *until*; return their values.

    The result lists each ``finalize()`` value in partition order,
    whatever the worker count. ``workers=1`` runs the partitions one
    after another in this process and lets an exception propagate
    unchanged; more workers (clamped to the partition count) are forked
    processes that each run every N-th partition and pipe the values
    back, and a failure in one raises :class:`~repro.errors.SimError`
    naming the partition.
    """
    partitions = list(partitions)
    if not partitions:
        raise SimError("run_partitions needs at least one partition")
    if workers < 1:
        raise SimError(f"workers must be >= 1: {workers!r}")
    if until <= 0:
        raise SimError(f"until must be positive: {until!r}")
    names = [partition[0] for partition in partitions]
    if len(set(names)) != len(names):
        raise SimError(f"duplicate partition names: {names!r}")
    workers = min(workers, len(partitions))
    if workers == 1:
        return [_run_one(partition, until) for partition in partitions]

    # Imported here: an in-process run never needs it.
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for index in range(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker_main,
                args=(partitions[index::workers], until, child_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)
        values: List[Any] = [None] * len(partitions)
        for index, conn in enumerate(conns):
            ok, payload = conn.recv()
            if not ok:
                raise SimError(f"parallel worker failed: {payload}")
            values[index::workers] = payload
        return values
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5.0)
