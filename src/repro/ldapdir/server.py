"""The networked directory server.

Protocol over a stream connection (mirrors the database server's shape):

* client → ``("bind", principal)`` / server → ``("bound",)``
* client → ``("search", base, scope, filter_or_None)``
  server → ``("ok", [ (dn, attrs), ... ], examined)`` or ``("error", msg)``
* client → ``("add", dn, attrs)`` / ``("modify", dn, changes)`` /
  ``("delete", dn)`` — server → ``("ok",)`` or ``("error", msg)``
* client → ``("unbind",)``
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConnectionClosed, ServiceError
from ..metrics import MetricsRegistry
from ..net.network import Node
from ..net.transport import StreamConnection
from ..sim.core import Simulation
from ..sim.resources import Resource
from .tree import DirectoryTree

__all__ = ["DirectoryServer"]

#: Default LDAP port.
DEFAULT_PORT = 389

#: Operations served concurrently; further ones queue.
WORKERS = 8

# Service-time model, in seconds: a search costs the base plus its
# entries examined and returned; a write costs the base plus one write.
BASE_TIME = 0.001
PER_ENTRY_EXAMINED = 8e-6
PER_ENTRY_RETURNED = 3e-5
WRITE_TIME = BASE_TIME + 1e-4
BIND_TIME = 0.002


class DirectoryServer:
    """Serves a :class:`DirectoryTree` over the simulated network."""

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        tree: Optional[DirectoryTree] = None,
        port: int = DEFAULT_PORT,
    ) -> None:
        self.sim = sim
        self.node = node
        self.tree = tree if tree is not None else DirectoryTree()
        self.metrics = MetricsRegistry()
        self.workers = Resource(sim, WORKERS)
        self.listener = node.listen_stream(port)
        self.address = node.address(port)
        sim.process(self._accept_loop(), name=f"ldap:{node.name}")

    def _accept_loop(self):
        while True:
            try:
                connection = yield self.listener.accept()
            except ConnectionClosed:
                return
            self.metrics.increment("ldap.connections")
            self.sim.process(self._session(connection))

    def _session(self, connection: StreamConnection):
        bound = False
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
            if command == "bind":
                yield BIND_TIME
                bound = True
                connection.send(("bound",))
                continue
            if command == "unbind":
                connection.close()
                return
            if not bound:
                connection.send(("error", "bind first"))
                continue
            yield from self._serve(connection, message)

    def _serve(self, connection: StreamConnection, message: tuple):
        request = self.workers.request()
        yield request
        try:
            command = message[0]
            try:
                if command == "search":
                    _, base, scope, filter_expr = message
                    matches, examined = self.tree.search(base, scope, filter_expr)
                    yield (
                        BASE_TIME
                        + examined * PER_ENTRY_EXAMINED
                        + len(matches) * PER_ENTRY_RETURNED
                    )
                    self.metrics.increment("ldap.searches")
                    self.metrics.observe("ldap.entries_examined", examined)
                    payload = [(str(e.dn), e.to_dict()) for e in matches]
                    reply = ("ok", payload, examined)
                elif command == "add":
                    _, dn, attributes = message
                    self.tree.add(dn, attributes)
                    yield WRITE_TIME
                    self.metrics.increment("ldap.writes")
                    reply = ("ok",)
                elif command == "modify":
                    _, dn, changes = message
                    self.tree.modify(dn, changes)
                    yield WRITE_TIME
                    self.metrics.increment("ldap.writes")
                    reply = ("ok",)
                elif command == "delete":
                    _, dn = message
                    self.tree.delete(dn)
                    yield WRITE_TIME
                    self.metrics.increment("ldap.writes")
                    reply = ("ok",)
                else:
                    reply = ("error", f"unknown command: {command!r}")
            except ServiceError as exc:
                self.metrics.increment("ldap.errors")
                reply = ("error", str(exc))
            if not connection.closed:
                connection.send(reply)
        finally:
            self.workers.release(request)

    def close(self) -> None:
        """Stop accepting new connections."""
        self.listener.close()

    def __repr__(self) -> str:
        return f"<DirectoryServer {self.address} entries={len(self.tree)}>"
