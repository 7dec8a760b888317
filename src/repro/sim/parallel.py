"""Conservative parallel simulation: independent partitions on real cores.

A :class:`ParallelSimulation` splits one logical model into named
*partitions*, each owning a private :class:`~repro.sim.core.Simulation`,
and executes them on a pool of worker processes. Synchronization is the
classic conservative time-window protocol (DESIGN.md §14):

* **Lookahead rule.** Every cross-partition message must arrive at
  least ``lookahead`` seconds after it is sent; the driver enforces
  this at :meth:`RemoteGateway.send`. ``lookahead`` must therefore be
  no larger than the minimum inter-partition link delay of the model.
* **Windowed execution.** Virtual time advances in windows of width
  ``lookahead``. Within a window every partition runs independently —
  no partition can observe another before the window's end, because
  anything sent during the window arrives at or after its edge.
* **Envelope batches at the barrier.** At each window edge the workers
  stop, serialize the messages their partitions emitted during the
  window (:func:`repro.net.message.encode_batch`), and the coordinator
  routes the batches to the destination partitions, which inject them
  before the next window starts.

Determinism contract: a partition's trajectory depends only on its own
seed, its model, and the (sorted) sequence of cross-partition messages
it receives — never on the number of workers or their scheduling.
``workers=1`` runs the same windowed protocol inline in the calling
process; ``workers=N`` forks N OS processes. Both produce identical
results for the same partition set.

The driver deliberately does **not** try to parallelize a single
arbitrary :class:`Simulation`: the model must be partitioned by the
caller (see ``run_sharded_qos_experiment(workers=N)`` for the sharded
§V.B topology, which partitions by shard).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import SimError
from ..net.message import decode_batch, encode_batch
from .core import Simulation

__all__ = [
    "RemoteEnvelope",
    "RemoteGateway",
    "PartitionSpec",
    "PartitionResult",
    "ParallelSimulation",
    "available_workers",
]


def available_workers() -> int:
    """Usable worker-process count (CPU affinity aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


class RemoteEnvelope:
    """One cross-partition message in flight between windows."""

    __slots__ = ("source", "destination", "sent_at", "arrives_at", "payload")

    def __init__(
        self,
        source: str,
        destination: str,
        sent_at: float,
        arrives_at: float,
        payload: Any,
    ) -> None:
        self.source = source
        self.destination = destination
        self.sent_at = sent_at
        self.arrives_at = arrives_at
        self.payload = payload

    def __repr__(self) -> str:
        return (
            f"RemoteEnvelope({self.source!r} -> {self.destination!r}, "
            f"sent_at={self.sent_at!r}, arrives_at={self.arrives_at!r}, "
            f"payload={self.payload!r})"
        )


class RemoteGateway:
    """A partition's portal to the rest of the topology.

    Model code sends with :meth:`send`; the driver drains the outbox at
    every window edge and injects inbound envelopes before the next
    window. Receive handlers run as simulation events at the envelope's
    arrival time, so remote messages are indistinguishable from local
    ones apart from the mandatory ``>= lookahead`` delay.
    """

    def __init__(self, name: str, sim: Simulation, lookahead: float) -> None:
        self.name = name
        self.sim = sim
        self.lookahead = lookahead
        self._outbox: List[RemoteEnvelope] = []
        self._handler: Optional[Callable[[RemoteEnvelope], None]] = None
        #: Counters surfaced in partition results for tests/ops.
        self.sent = 0
        self.received = 0

    def on_receive(self, handler: Callable[[RemoteEnvelope], None]) -> None:
        """Install the callable invoked (at arrival time) per envelope."""
        self._handler = handler

    def send(self, destination: str, payload: Any, delay: float) -> None:
        """Emit *payload* to partition *destination* after *delay*.

        *delay* models the inter-partition link and must be at least the
        driver's lookahead — that inequality is what makes windowed
        execution exact rather than approximate.
        """
        if delay < self.lookahead:
            raise SimError(
                f"cross-partition delay {delay!r} violates the lookahead "
                f"rule (>= {self.lookahead!r}); widen the link delay or "
                f"lower the ParallelSimulation lookahead"
            )
        now = self.sim.now
        self._outbox.append(
            RemoteEnvelope(self.name, destination, now, now + delay, payload)
        )
        self.sent += 1

    def _drain(self) -> List[RemoteEnvelope]:
        out = self._outbox
        self._outbox = []
        return out

    def _inject(self, envelopes: List[RemoteEnvelope]) -> None:
        """Schedule deliveries for the next window's inbound batch.

        Envelopes are sorted by ``(arrives_at, source, sent_at)`` before
        scheduling so the injection order — and therefore the partition's
        trajectory — is independent of worker assignment.
        """
        if not envelopes:
            return
        handler = self._handler
        if handler is None:
            raise SimError(
                f"partition {self.name!r} received envelopes but installed "
                f"no on_receive handler"
            )
        sim = self.sim
        for env in sorted(
            envelopes, key=lambda e: (e.arrives_at, e.source, e.sent_at)
        ):
            delay = env.arrives_at - sim.now
            if delay < 0:
                raise SimError(
                    f"causality violation: envelope into {self.name!r} "
                    f"arrives at {env.arrives_at!r} < now {sim.now!r}"
                )
            event = sim.event()
            event.callbacks.append(self._deliver)
            event.succeed(env, delay=delay)

    def _deliver(self, event: Any) -> None:
        self.received += 1
        self._handler(event.value)  # type: ignore[misc]


class PartitionSpec:
    """Recipe for one partition: a name, a seed, and a builder.

    ``builder(sim, gateway)`` constructs the partition's model inside
    *sim* and returns a ``finalize() -> Any`` callable producing the
    partition's (picklable) result after the run. Builders execute in
    the worker process; with the default fork start method they may be
    closures over scenario state.
    """

    __slots__ = ("name", "seed", "builder")

    def __init__(
        self,
        name: str,
        builder: Callable[[Simulation, RemoteGateway], Callable[[], Any]],
        seed: int = 0,
    ) -> None:
        self.name = name
        self.builder = builder
        self.seed = seed

    def __repr__(self) -> str:
        return f"PartitionSpec(name={self.name!r}, seed={self.seed!r})"


class PartitionResult:
    """A partition's finalized result plus gateway traffic counters."""

    __slots__ = ("name", "value", "sent", "received")

    def __init__(self, name: str, value: Any, sent: int, received: int) -> None:
        self.name = name
        self.value = value
        self.sent = sent
        self.received = received

    def __repr__(self) -> str:
        return (
            f"PartitionResult(name={self.name!r}, sent={self.sent}, "
            f"received={self.received})"
        )


class _PartitionRuntime:
    """A built partition living inside a worker (or inline)."""

    __slots__ = ("spec", "sim", "gateway", "finalize")

    def __init__(self, spec: PartitionSpec, lookahead: float) -> None:
        self.spec = spec
        self.sim = Simulation(seed=spec.seed)
        self.gateway = RemoteGateway(spec.name, self.sim, lookahead)
        self.finalize = spec.builder(self.sim, self.gateway)

    def advance(self, t_end: float, inbound: List[RemoteEnvelope]) -> bytes:
        self.gateway._inject(inbound)
        self.sim.run(until=t_end)
        return encode_batch(self.gateway._drain())

    def result(self) -> PartitionResult:
        return PartitionResult(
            self.spec.name,
            self.finalize(),
            self.gateway.sent,
            self.gateway.received,
        )


def _worker_main(specs: Sequence[PartitionSpec], lookahead: float, conn) -> None:
    """Worker process body: build partitions, serve the window protocol."""
    try:
        runtimes = {s.name: _PartitionRuntime(s, lookahead) for s in specs}
        conn.send(("ready", list(runtimes)))
        while True:
            message = conn.recv()
            op = message[0]
            if op == "advance":
                _op, t_end, inbound_by_name = message
                out: List[bytes] = []
                for name, runtime in runtimes.items():
                    batch = decode_batch(inbound_by_name.get(name, b""))
                    out.append(runtime.advance(t_end, batch))
                conn.send(("done", out))
            elif op == "finish":
                conn.send(
                    ("results", [r.result() for r in runtimes.values()])
                )
                return
            else:  # pragma: no cover - defensive
                raise SimError(f"unknown coordinator op: {op!r}")
    except BaseException as exc:  # noqa: BLE001 - report, then die
        try:
            conn.send(("error", repr(exc)))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        raise


class ParallelSimulation:
    """Coordinator for windowed parallel execution of partitions.

    Parameters
    ----------
    partitions:
        The :class:`PartitionSpec` recipes. Each becomes one
        sub-simulation; partitions are assigned to workers round-robin.
    lookahead:
        Window width — must not exceed the minimum cross-partition link
        delay (the gateway enforces the per-message inequality).
    workers:
        OS processes to fork. ``1`` (the default) runs the same
        protocol inline without forking; values above the partition
        count are clamped.
    """

    def __init__(
        self,
        partitions: Sequence[PartitionSpec],
        lookahead: float,
        workers: int = 1,
    ) -> None:
        if not partitions:
            raise SimError("ParallelSimulation needs at least one partition")
        if lookahead <= 0:
            raise SimError(f"lookahead must be positive: {lookahead!r}")
        if workers < 1:
            raise SimError(f"workers must be >= 1: {workers!r}")
        names = [p.name for p in partitions]
        if len(set(names)) != len(names):
            raise SimError(f"duplicate partition names: {names!r}")
        self.partitions = list(partitions)
        self.lookahead = float(lookahead)
        self.workers = min(workers, len(self.partitions))

    # -- shared window bookkeeping -------------------------------------

    def _route(
        self,
        batches: Sequence[bytes],
        mailbox: Dict[str, List[RemoteEnvelope]],
    ) -> None:
        known = {p.name for p in self.partitions}
        for blob in batches:
            for env in decode_batch(blob):
                if env.destination not in known:
                    raise SimError(
                        f"envelope for unknown partition "
                        f"{env.destination!r} from {env.source!r}"
                    )
                mailbox.setdefault(env.destination, []).append(env)

    def _windows(self, until: float):
        t = 0.0
        while t < until:
            t_end = min(t + self.lookahead, until)
            yield t_end
            t = t_end

    # -- execution strategies ------------------------------------------

    def run(self, until: float) -> Dict[str, PartitionResult]:
        """Advance every partition to virtual time *until*.

        Returns ``{partition name: PartitionResult}``. Unlike
        :meth:`Simulation.run`, *until* is mandatory: "run to
        exhaustion" is not well defined across partitions that might
        wake each other indefinitely.
        """
        if until <= 0:
            raise SimError(f"until must be positive: {until!r}")
        if self.workers == 1:
            return self._run_inline(until)
        return self._run_forked(until)

    def _run_inline(self, until: float) -> Dict[str, PartitionResult]:
        runtimes = {
            spec.name: _PartitionRuntime(spec, self.lookahead)
            for spec in self.partitions
        }
        mailbox: Dict[str, List[RemoteEnvelope]] = {}
        for t_end in self._windows(until):
            inbound, mailbox = mailbox, {}
            batches = [
                runtime.advance(t_end, inbound.get(name, []))
                for name, runtime in runtimes.items()
            ]
            self._route(batches, mailbox)
        if mailbox:
            raise SimError(
                f"{sum(map(len, mailbox.values()))} envelope(s) still in "
                f"flight at until={until!r}; extend the run to deliver them"
            )
        return {name: r.result() for name, r in runtimes.items()}

    def _run_forked(self, until: float) -> Dict[str, PartitionResult]:
        # Imported here: the inline driver (workers=1) never needs it.
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        assignment: List[List[PartitionSpec]] = [
            self.partitions[i :: self.workers] for i in range(self.workers)
        ]
        owner: Dict[str, int] = {}
        for index, specs in enumerate(assignment):
            for spec in specs:
                owner[spec.name] = index
        conns = []
        procs = []
        try:
            for index, specs in enumerate(assignment):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(specs, self.lookahead, child_conn),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                conns.append(parent_conn)
                procs.append(proc)
            for conn in conns:
                self._expect(conn, "ready")
            mailbox: Dict[str, List[RemoteEnvelope]] = {}
            for t_end in self._windows(until):
                inbound, mailbox = mailbox, {}
                for index, conn in enumerate(conns):
                    per_worker = {
                        spec.name: encode_batch(inbound.get(spec.name, []))
                        for spec in assignment[index]
                        if inbound.get(spec.name)
                    }
                    conn.send(("advance", t_end, per_worker))
                for conn in conns:
                    batches = self._expect(conn, "done")
                    self._route(batches, mailbox)
            if mailbox:
                raise SimError(
                    f"{sum(map(len, mailbox.values()))} envelope(s) still "
                    f"in flight at until={until!r}; extend the run"
                )
            results: Dict[str, PartitionResult] = {}
            for conn in conns:
                conn.send(("finish",))
            for conn in conns:
                for result in self._expect(conn, "results"):
                    results[result.name] = result
            return {spec.name: results[spec.name] for spec in self.partitions}
        finally:
            for conn in conns:
                conn.close()
            for proc in procs:
                proc.join(timeout=10.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=5.0)

    @staticmethod
    def _expect(conn, expected: str):
        message = conn.recv()
        if message[0] == "error":
            raise SimError(f"parallel worker failed: {message[1]}")
        if message[0] != expected:  # pragma: no cover - protocol bug
            raise SimError(
                f"protocol error: expected {expected!r}, got {message[0]!r}"
            )
        return message[1]
