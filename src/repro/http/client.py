"""HTTP client over the simulated network.

Two usage modes mirror the paper's two access models:

* :meth:`HttpClient.fetch` — one-shot: connect, request, response,
  close (what a per-request API call costs);
* :meth:`HttpClient.open` → :class:`HttpConnection` — persistent
  keep-alive connection (what a broker holds to its backend).
"""

from __future__ import annotations

from typing import Optional

from ..errors import ProtocolError
from ..net.address import Address
from ..net.network import Node
from ..net.transport import StreamConnection
from ..sim.core import Simulation
from .messages import HttpRequest, HttpResponse

__all__ = ["HttpClient", "HttpConnection"]


class HttpConnection:
    """A persistent (keep-alive) connection to a web server."""

    def __init__(self, sim: Simulation, stream: StreamConnection) -> None:
        self.sim = sim
        self._stream = stream

    @property
    def closed(self) -> bool:
        return self._stream.closed

    def request(self, request: HttpRequest):
        """Send *request*, await the response; a ``yield from`` generator."""
        self._stream.send(request)
        envelope = yield self._stream.recv()
        response = envelope.payload
        if not isinstance(response, HttpResponse):
            raise ProtocolError(f"expected HttpResponse, got {response!r}")
        return response

    def get(self, path: str, params: Optional[dict] = None):
        """Shorthand for a GET request."""
        return self.request(HttpRequest(method="GET", path=path, params=params or {}))

    def close(self) -> None:
        """Close the connection (the server sees EOF)."""
        self._stream.close()


class HttpClient:
    """Factory for HTTP exchanges."""

    @staticmethod
    def open(sim: Simulation, node: Node, address: Address):
        """Open a persistent connection; ``yield from`` this generator."""
        stream = yield from node.connect_stream(address)
        return HttpConnection(sim, stream)

    @staticmethod
    def fetch(sim: Simulation, node: Node, address: Address, request: HttpRequest):
        """One-shot exchange with per-request connection setup/teardown.

        Drives the stream itself — the exchange :meth:`open` plus
        :meth:`HttpConnection.request` would make, without their two
        generator frames per message.
        """
        stream = yield from node.connect_stream(address)
        try:
            stream.send(request)
            envelope = yield stream.recv()
            response = envelope.payload
            if not isinstance(response, HttpResponse):
                raise ProtocolError(f"expected HttpResponse, got {response!r}")
        finally:
            stream.close()
        return response

    @staticmethod
    def get(sim: Simulation, node: Node, address: Address, path: str, params=None):
        """One-shot GET."""
        return HttpClient.fetch(
            sim, node, address, HttpRequest(method="GET", path=path, params=params or {})
        )
