"""The networked database server.

Speaks a simple framed protocol over a stream connection:

* client → ``("hello", client_name)`` — authentication round trip
* server → ``("welcome", server_name)``
* client → ``("query", sql)``
* server → ``("ok", columns, rows, stats_dict)`` or ``("error", message)``
* client → ``("close",)``

Queries contend for a bounded worker pool (``max_workers``), which is
what makes an under-provisioned backend the bottleneck of the whole
request path — the paper's "hot spot" scenario.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConnectionClosed, QueryError
from ..metrics import MetricsRegistry
from ..net.network import Node
from ..net.transport import StreamConnection
from ..sim.core import Simulation
from ..sim.resources import Resource
from .cost import BASE_TIME, service_time
from .engine import Database

__all__ = ["DatabaseServer"]

#: Default database server port (MySQL's).
DEFAULT_PORT = 3306

#: Server-side seconds for the authentication handshake.
AUTH_TIME = 0.002


class DatabaseServer:
    """Serves a :class:`Database` over the simulated network.

    Parameters
    ----------
    sim, node:
        Simulation and the host to bind on.
    database:
        The engine instance to serve.
    port:
        Listening port (default 3306).
    max_workers:
        Number of queries processed concurrently; further queries queue.

    Executed work becomes virtual service time through
    :func:`~repro.db.cost.service_time`.
    """

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        database: Database,
        port: int = DEFAULT_PORT,
        max_workers: int = 8,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.database = database
        self.metrics = metrics or MetricsRegistry()
        self.workers = Resource(sim, max_workers)
        self.listener = node.listen_stream(port)
        self.address = node.address(port)
        self._accept_process = sim.process(self._accept_loop(), name=f"db:{node.name}")

    def _accept_loop(self):
        while True:
            try:
                connection = yield self.listener.accept()
            except ConnectionClosed:
                return
            self.metrics.increment("db.connections")
            self.sim.process(self._session(connection))

    def _session(self, connection: StreamConnection):
        try:
            envelope = yield connection.recv()
        except ConnectionClosed:
            return
        message = envelope.payload
        if not (isinstance(message, tuple) and message and message[0] == "hello"):
            connection.send(("error", "expected hello"))
            connection.close()
            return
        yield AUTH_TIME
        connection.send(("welcome", self.database.name))

        while True:
            try:
                envelope = yield connection.recv()
            except ConnectionClosed:
                return
            message = envelope.payload
            if not isinstance(message, tuple) or not message:
                connection.send(("error", f"malformed message: {message!r}"))
                continue
            if message[0] == "close":
                connection.close()
                return
            if message[0] != "query" or len(message) != 2:
                connection.send(("error", f"unknown command: {message[0]!r}"))
                continue
            yield from self._serve_query(connection, message[1])

    def _serve_query(self, connection: StreamConnection, sql: str):
        request = self.workers.request()
        yield request
        self.metrics.increment("db.queries")
        try:
            try:
                result = self.database.execute(sql)
            except QueryError as exc:
                yield BASE_TIME
                self.metrics.increment("db.errors")
                if not connection.closed:
                    connection.send(("error", str(exc)))
                return
            elapsed = service_time(result.stats)
            yield elapsed
            self.metrics.observe("db.service_time", elapsed)
            self.metrics.increment("db.rows_examined", result.stats.rows_examined)
            if not connection.closed:
                connection.send(
                    ("ok", result.columns, result.rows, result.stats.to_dict())
                )
        finally:
            self.workers.release(request)

    def close(self) -> None:
        """Stop accepting new connections."""
        self.listener.close()

    def __repr__(self) -> str:
        return f"<DatabaseServer {self.address} active={self.workers.in_use}>"
