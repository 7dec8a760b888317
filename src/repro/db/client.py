"""Client-side database access over the simulated network.

This is the raw building block both access models share. The API-based
baseline opens a fresh connection per request (handshake + auth every
time); the broker keeps a :class:`DatabaseConnection` open and reuses it.

Usage inside a process generator::

    conn = yield from DatabaseClient.connect(sim, node, server_address)
    rows = yield from conn.query("SELECT * FROM t WHERE id = 7")
    yield from conn.close()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..errors import ProtocolError, QueryError
from ..net.address import Address
from ..net.network import Node
from ..net.transport import StreamConnection
from ..sim.core import Simulation

__all__ = ["DatabaseClient", "DatabaseConnection", "QueryResult"]


@dataclass(frozen=True)
class QueryResult:
    """Rows returned by one query, plus the server's work accounting."""

    #: Never mutated after construction (``stats`` is copied, not
    #: edited, downstream), and a cached result is re-sent on every
    #: hit: size it once (:func:`repro.net.message.estimate_size`).
    __wire_memo__ = True

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    stats: Dict[str, Any]

    def __len__(self) -> int:
        return len(self.rows)


class DatabaseConnection:
    """An established, authenticated connection to a database server."""

    def __init__(self, sim: Simulation, stream: StreamConnection) -> None:
        self.sim = sim
        self._stream = stream

    @property
    def closed(self) -> bool:
        return self._stream.closed

    def query(self, sql: str):
        """Run *sql*; a ``yield from`` generator returning :class:`QueryResult`."""
        self._stream.send(("query", sql))
        envelope = yield self._stream.recv()
        reply = envelope.payload
        if reply[0] == "ok":
            return QueryResult(columns=reply[1], rows=reply[2], stats=reply[3])
        if reply[0] == "error":
            raise QueryError(reply[1])
        raise ProtocolError(f"unexpected reply: {reply!r}")

    def close(self):
        """Orderly shutdown; a ``yield from`` generator."""
        if not self._stream.closed:
            self._stream.send(("close",))
            self._stream.close()
        return
        yield  # pragma: no cover - makes this a generator


class DatabaseClient:
    """Factory for :class:`DatabaseConnection`."""

    @staticmethod
    def connect(sim: Simulation, node: Node, address: Address, client_name: str = ""):
        """Connect and authenticate; ``yield from`` this generator.

        Costs one TCP handshake round trip plus one authentication round
        trip — the setup cost the API-based model pays per request and
        the broker amortizes over a persistent connection.
        """
        stream = yield from node.connect_stream(address)
        stream.send(("hello", client_name or node.name))
        envelope = yield stream.recv()
        reply = envelope.payload
        if not (isinstance(reply, tuple) and reply and reply[0] == "welcome"):
            stream.close()
            raise ProtocolError(f"authentication failed: {reply!r}")
        return DatabaseConnection(sim, stream)
