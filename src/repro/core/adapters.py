"""Service adapters: how a broker talks to one backend server.

A broker is "per service based" (paper §III) and sits on top of the raw
API sets (its Figure 3). Each adapter wraps one backend server's client
API behind a uniform interface:

* ``connect()`` — a ``yield from`` generator establishing an
  authenticated connection (expensive; the pool amortizes it),
* ``execute(conn, operation, payload)`` — a ``yield from`` generator
  performing one operation and returning the result payload,
* ``close(conn)`` — orderly teardown.

Connections expose a ``closed`` attribute the pool uses for health
checks.

Import rule: this module serves the database, web and file services,
so it imports no service's client at module level. Each adapter names
its backend's client in :meth:`ServiceAdapter.client_class`, resolved
once when the adapter is constructed — a deployment loads only the
services it fronts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..errors import ProtocolError
from ..net.address import Address
from ..net.network import Node
from ..sim.core import Simulation

if TYPE_CHECKING:
    from ..db.client import DatabaseConnection
    from ..http.client import HttpConnection

__all__ = [
    "ServiceAdapter",
    "DatabaseAdapter",
    "HttpAdapter",
    "FileAdapter",
]


class ServiceAdapter:
    """Base class; subclasses implement connect/execute/close."""

    def __init__(self, sim: Simulation, node: Node, address: Address, name: str = "") -> None:
        self.sim = sim
        self.node = node
        self.address = address
        self.name = name or str(address)
        self.client = self.client_class()

    @staticmethod
    def client_class() -> Optional[type]:
        """The backend's client API class (imported here, not at module level)."""
        return None

    def connect(self):  # pragma: no cover - abstract
        """Establish one connection; a ``yield from`` generator."""
        raise NotImplementedError

    def execute(self, connection: Any, operation: str, payload: Any):  # pragma: no cover
        """Perform one operation; a ``yield from`` generator."""
        raise NotImplementedError

    def close(self, connection: Any):  # pragma: no cover - abstract
        """Tear the connection down; a ``yield from`` generator."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class DatabaseAdapter(ServiceAdapter):
    """Fronts a :class:`repro.db.DatabaseServer`.

    Operations:

    * ``"query"`` — payload is a SQL string; returns a
      :class:`repro.db.QueryResult`.
    """

    @staticmethod
    def client_class() -> type:
        from ..db.client import DatabaseClient

        return DatabaseClient

    def connect(self):
        connection = yield from self.client.connect(
            self.sim, self.node, self.address, client_name=f"broker:{self.name}"
        )
        return connection

    def execute(self, connection: DatabaseConnection, operation: str, payload: Any):
        if operation != "query":
            raise ProtocolError(f"database adapter: unknown operation {operation!r}")
        result = yield from connection.query(payload)
        return result

    def close(self, connection: DatabaseConnection):
        yield from connection.close()


class HttpAdapter(ServiceAdapter):
    """Fronts a :class:`repro.http.BackendWebServer`.

    Operations:

    * ``"get"`` — payload is ``(path, params)``; returns an
      :class:`HttpResponse`.
    """

    @staticmethod
    def client_class() -> type:
        from ..http.client import HttpClient

        return HttpClient

    def connect(self):
        connection = yield from self.client.open(self.sim, self.node, self.address)
        return connection

    def execute(self, connection: HttpConnection, operation: str, payload: Any):
        if operation != "get":
            raise ProtocolError(f"http adapter: unknown operation {operation!r}")
        path, params = payload
        response = yield from connection.get(path, dict(params or {}))
        return response

    def close(self, connection: HttpConnection):
        connection.close()
        return
        yield  # pragma: no cover - makes this a generator


class FileAdapter(ServiceAdapter):
    """Fronts a :class:`repro.fileserver.FileServer`.

    Operations:

    * ``"read"`` — payload is a file name; returns the result dict.
    * ``"read_batch"`` — payload is a tuple of names; returns the list
      of per-file results in request order.
    """

    @staticmethod
    def client_class() -> type:
        from ..fileserver.client import FileClient

        return FileClient

    def connect(self):
        connection = yield from self.client.connect(
            self.sim, self.node, self.address, name=f"broker:{self.name}"
        )
        return connection

    def execute(self, connection: Any, operation: str, payload: Any):
        if operation == "read":
            result = yield from connection.read(payload)
            return result
        if operation == "read_batch":
            results = yield from connection.read_batch(payload)
            return results
        raise ProtocolError(f"file adapter: unknown operation {operation!r}")

    def close(self, connection: Any):
        yield from connection.close()
