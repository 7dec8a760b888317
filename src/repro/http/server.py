"""The backend web server.

An Apache-like server with a bounded worker pool: at most ``max_clients``
requests are processed simultaneously, the rest queue FCFS (this cap —
set to 5 in the paper's experiments — is what turns the backend into the
bottleneck). It serves CGI handlers registered with :meth:`add_cgi`:
generator functions ``handler(server, request)`` that may wait on
simulation events (bounded processing time, their own database queries,
...) and return an :class:`HttpResponse` or a body string
(:func:`bounded_cgi` and :func:`item_cgi` make the two the testbeds
use). A path with no handler gets a 404.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import ConnectionClosed, HttpError
from ..metrics import Counter, MetricsRegistry
from ..net.network import Node
from ..net.transport import StreamConnection
from ..sim.core import Simulation
from ..sim.resources import Resource
from .messages import HttpRequest, HttpResponse

__all__ = ["BackendWebServer", "bounded_cgi", "item_cgi"]

#: Default HTTP port.
DEFAULT_PORT = 80

CgiHandler = Callable[["BackendWebServer", HttpRequest], object]


class BackendWebServer:
    """A capacity-limited web server with CGI resources."""

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        port: int = DEFAULT_PORT,
        max_clients: int = 5,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.node = node
        self.name = name or node.name
        #: Service-time multiplier, 1.0 when healthy; a slow-backend
        #: fault window (:class:`~repro.net.faults.SlowBackend`) raises
        #: it. CGI handlers that model processing time should multiply
        #: their waits by it.
        self.service_time_scale = 1.0
        self.metrics = MetricsRegistry()
        self.workers = Resource(sim, max_clients)
        self.listener = node.listen_stream(port)
        self.address = node.address(port)
        self._port = port
        self._cgi: Dict[str, CgiHandler] = {}
        # Insertion-ordered (dict, not set) so crash() severs sessions
        # deterministically.
        self._sessions: Dict[StreamConnection, None] = {}
        # Hot counters as registry handles, each created at its first
        # use so the registry holds exactly the names it has counted.
        self._connections: Optional[Counter] = None
        self._requests: Optional[Counter] = None
        self._cgi_requests: Optional[Counter] = None
        sim.process(self._accept_loop(), name=f"http:{self.name}")

    # -- resource registration ------------------------------------------

    def add_cgi(self, path: str, handler: CgiHandler) -> None:
        """Register a CGI generator function at *path*."""
        self._cgi[path] = handler

    # -- load inspection --------------------------------------------------

    @property
    def active_requests(self) -> int:
        """Requests currently holding a worker slot."""
        return self.workers.in_use

    @property
    def queued_requests(self) -> int:
        """Requests waiting for a worker slot."""
        return self.workers.queued

    # -- serving ---------------------------------------------------------

    def _accept_loop(self):
        while True:
            try:
                connection = yield self.listener.accept()
            except ConnectionClosed:
                return
            counter = self._connections
            if counter is None:
                counter = self._connections = self.metrics.handle("http.connections")
            counter.value += 1.0
            self.sim.process(self._session(connection))

    def _session(self, connection: StreamConnection):
        self._sessions[connection] = None
        try:
            while True:
                try:
                    envelope = yield connection.recv()
                except ConnectionClosed:
                    return
                request = envelope.payload
                if not isinstance(request, HttpRequest):
                    connection.send(HttpResponse.error(400, "not an HttpRequest"))
                    continue
                worker = self.workers.request()
                yield worker
                counter = self._requests
                if counter is None:
                    counter = self._requests = self.metrics.handle("http.requests")
                counter.value += 1.0
                try:
                    response = yield from self._serve_one(request)
                finally:
                    self.workers.release(worker)
                if connection.closed:
                    return
                connection.send(response)
        finally:
            self._sessions.pop(connection, None)

    def _serve_one(self, request: HttpRequest):
        handler = self._cgi.get(request.path)
        if handler is not None:
            counter = self._cgi_requests
            if counter is None:
                counter = self._cgi_requests = self.metrics.handle("http.cgi_requests")
            counter.value += 1.0
            try:
                outcome = handler(self, request)
                if hasattr(outcome, "send"):  # a generator: run it inline
                    outcome = yield from outcome
            except HttpError as exc:
                self.metrics.increment("http.errors")
                return HttpResponse.error(exc.status)
            except Exception as exc:  # noqa: BLE001 - CGI bugs become 500s
                self.metrics.increment("http.errors")
                return HttpResponse.error(500, f"{type(exc).__name__}: {exc}")
            if isinstance(outcome, HttpResponse):
                return outcome
            return HttpResponse.text(str(outcome))
        self.metrics.increment("http.errors")
        return HttpResponse.error(404, f"no resource at {request.path!r}")

    def close(self) -> None:
        """Stop accepting new connections (existing sessions survive)."""
        self.listener.close()

    def crash(self) -> None:
        """Simulate a server crash: stop listening AND sever every live
        session. Peers see :class:`ConnectionClosed`; in-flight requests
        are lost, as they would be on a real process kill. Recoverable
        with :meth:`restart`."""
        self.listener.close()
        self.metrics.increment("http.crashes")
        for connection in list(self._sessions):
            connection.abort()
        self._sessions.clear()

    def restart(self) -> None:
        """Recover from :meth:`crash`: rebind the listener, accept again.

        A no-op while the server is still listening. Resources and
        handlers survive the restart (the process comes back with the
        same configuration); connections do not.
        """
        if not self.listener.closed:
            return
        self.listener = self.node.listen_stream(self._port)
        self.metrics.increment("http.restarts")
        self.sim.process(self._accept_loop(), name=f"http:{self.name}")

    def __repr__(self) -> str:
        return (
            f"<BackendWebServer {self.address} active={self.active_requests} "
            f"queued={self.queued_requests}>"
        )


def bounded_cgi(service_time: float) -> CgiHandler:
    """A CGI script that takes exactly *service_time* seconds (§V.B)."""

    def cgi(server, request):
        yield service_time
        return HttpResponse.text("served")

    return cgi


def item_cgi(service_time: float) -> CgiHandler:
    """An item-lookup CGI script taking *service_time* seconds.

    CGI handlers honour the slow-backend fault hook themselves: the
    time is scaled by the server's ``service_time_scale``.
    """

    def cgi(server, request):
        yield service_time * server.service_time_scale
        return HttpResponse.text(f"item={request.param('id', '?')}")

    return cgi
