"""The networked file server.

Protocol over a stream connection:

* client → ``("mount", client_name)`` / server → ``("mounted",)``
* client → ``("read", name)`` →
  ``("ok", {"name", "blocks", "content", "service_time"})`` or ``("error", msg)``
* client → ``("read_batch", (names...))`` →
  ``("ok", [per-name result-or-error ...])`` in request order
* client → ``("bye",)``

All reads funnel through a single disk arm. The request scheduler is the
paper's §II example of a backend-specific QoS notion:

* ``"fcfs"`` — serve reads in arrival order (maximal seeking under
  concurrent random reads);
* ``"elevator"`` — C-SCAN: serve the pending read whose first block is
  the nearest at-or-above the head, wrapping at the end — "cluster
  requests whose accesses are in adjacent disk layout".
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..errors import ConnectionClosed, ServiceError
from ..metrics import MetricsRegistry
from ..net.network import Node
from ..net.transport import StreamConnection
from ..sim.core import Event, Simulation
from ..sim.resources import Store
from .disk import DiskModel
from .filesystem import FileSystem

__all__ = ["FileServer"]

#: Default file server port (NFS's).
DEFAULT_PORT = 2049

SCHEDULERS = ("fcfs", "elevator")

#: Server-side seconds to mount a session.
MOUNT_TIME = 0.001


class _PendingRead:
    """One read waiting for the disk arm."""

    __slots__ = ("name", "first_block", "done")

    def __init__(self, name: str, first_block: int, done: Event) -> None:
        self.name = name
        self.first_block = first_block
        self.done = done


class FileServer:
    """Serves a :class:`FileSystem` from one :class:`DiskModel` arm."""

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        filesystem: Optional[FileSystem] = None,
        port: int = DEFAULT_PORT,
        scheduler: str = "elevator",
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise ServiceError(f"scheduler must be one of {SCHEDULERS}: {scheduler!r}")
        self.sim = sim
        self.node = node
        self.filesystem = filesystem if filesystem is not None else FileSystem()
        self.disk = DiskModel(total_blocks=self.filesystem.total_blocks)
        self.scheduler = scheduler
        self.metrics = MetricsRegistry()
        self.listener = node.listen_stream(port)
        self.address = node.address(port)
        self._pending: List[_PendingRead] = []
        self._work = Store(sim)
        sim.process(self._accept_loop(), name=f"file:{node.name}")
        sim.process(self._arm_loop(), name=f"file-arm:{node.name}")

    # -- disk arm ---------------------------------------------------------

    def _pick_next(self) -> _PendingRead:
        if self.scheduler == "fcfs":
            return self._pending.pop(0)
        # C-SCAN elevator: nearest pending first-block at or above the
        # head; wrap to the lowest block when none remain ahead.
        head = self.disk.head
        ahead = [p for p in self._pending if p.first_block >= head]
        pool = ahead if ahead else self._pending
        chosen = min(pool, key=lambda p: p.first_block)
        self._pending.remove(chosen)
        return chosen

    def _arm_loop(self):
        while True:
            yield self._work.get()
            item = self._pick_next()
            try:
                extents = self.filesystem.extents_of(item.name)
            except ServiceError as exc:
                item.done.fail(exc)
                continue
            total_time = 0.0
            for extent in extents:
                service = self.disk.access(extent.start, extent.length)
                total_time += service
                yield service
            self.metrics.increment("file.reads")
            self.metrics.observe("file.read_time", total_time)
            item.done.succeed(
                {
                    "name": item.name,
                    "blocks": self.filesystem.size_of(item.name),
                    "content": f"<{item.name}>",
                    "service_time": total_time,
                }
            )

    def _enqueue_read(self, name: str) -> Event:
        done = Event(self.sim)
        try:
            first_block = self.filesystem.first_block(name)
        except ServiceError as exc:
            # Pre-defused: in a batch, the event may be processed before
            # the session generator gets around to yielding it.
            done.fail(exc)
            done.defused = True
            return done
        self._pending.append(_PendingRead(name, first_block, done))
        self._work.put(None)
        return done

    # -- sessions -----------------------------------------------------------

    def _accept_loop(self):
        while True:
            try:
                connection = yield self.listener.accept()
            except ConnectionClosed:
                return
            self.metrics.increment("file.connections")
            self.sim.process(self._session(connection))

    def _session(self, connection: StreamConnection):
        mounted = False
        while True:
            try:
                envelope = yield connection.recv()
            except ConnectionClosed:
                return
            message = envelope.payload
            if not isinstance(message, tuple) or not message:
                connection.send(("error", f"malformed message: {message!r}"))
                continue
            command = message[0]
            if command == "mount":
                yield MOUNT_TIME
                mounted = True
                connection.send(("mounted",))
                continue
            if command == "bye":
                connection.close()
                return
            if not mounted:
                connection.send(("error", "mount first"))
                continue
            reply = yield from self._serve(message)
            if not connection.closed:
                connection.send(reply)

    def _serve(self, message: tuple):
        command = message[0]
        try:
            if command == "read":
                result = yield self._enqueue_read(message[1])
                return ("ok", result)
            if command == "read_batch":
                results: List[Any] = []
                events = [self._enqueue_read(name) for name in message[1]]
                for event in events:
                    try:
                        result = yield event
                    except ServiceError as exc:
                        result = {"error": str(exc)}
                    results.append(result)
                self.metrics.increment("file.batches")
                return ("ok", results)
            return ("error", f"unknown command: {command!r}")
        except ServiceError as exc:
            self.metrics.increment("file.errors")
            return ("error", str(exc))

    def close(self) -> None:
        """Stop accepting new connections."""
        self.listener.close()

    def __repr__(self) -> str:
        return (
            f"<FileServer {self.address} scheduler={self.scheduler} "
            f"queued={len(self._pending)}>"
        )
