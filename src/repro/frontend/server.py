"""The front-end web server.

Apache-prefork-like: every in-flight request occupies one server process
out of :data:`MAX_PROCESSES`. When backend accesses stall, processes pile up
— the paper's observation that "processes trapped in accessing
overloaded backend resources essentially exacerbate the overall
performance".

An optional *admission* hook implements the centralized broker model:
it inspects each request before a process is allocated and may reject
it with 503 (see :class:`repro.core.centralized.CentralizedController`).

Web applications running here reach the broker tier through a
:class:`~repro.core.client.BrokerClient`; since the shard tier landed
they address a *service*, not a broker — with a
:class:`~repro.core.sharding.ShardDirectory` installed on the client,
each call resolves through the service's consistent-hash ring to the
owning shard's live leader, and single-broker services keep using the
static route table.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..core.pipeline import RequestContext
from ..errors import ConnectionClosed
from ..metrics import MetricsRegistry
from ..net.network import Node
from ..net.transport import StreamConnection
from ..sim.core import Simulation
from ..sim.resources import Resource
from ..http.messages import HttpRequest, HttpResponse
from .app import PARSE_TIME, WebApplication, qos_of

__all__ = ["FrontendWebServer"]

#: Admission hook signature: request -> (accept, reason).
AdmissionHook = Callable[[HttpRequest], tuple]

#: Server processes, hence requests in flight at once.
MAX_PROCESSES = 150


class FrontendWebServer:
    """Receives client requests and runs web applications."""

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        port: int = 80,
        admission: Optional[AdmissionHook] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.node = node
        self.name = name or node.name
        self.admission = admission
        self.metrics = MetricsRegistry()
        self.processes = Resource(sim, MAX_PROCESSES)
        self.listener = node.listen_stream(port)
        self.address = node.address(port)
        self._apps: Dict[str, WebApplication] = {}
        # Hot-path metric handles (per-QoS ones resolved lazily).
        metrics_ = self.metrics
        self._requests = metrics_.handle("frontend.requests")
        self._completed = metrics_.handle("frontend.completed")
        self._response_time = metrics_.sample_handle("frontend.response_time")
        self._requests_by_qos: Dict[int, object] = {}
        self._completed_by_qos: Dict[int, object] = {}
        self._response_time_by_qos: Dict[int, object] = {}
        sim.process(self._accept_loop(), name=f"frontend:{self.name}")

    def register_app(self, app: WebApplication) -> None:
        """Mount *app* at its path."""
        self._apps[app.path] = app

    def _accept_loop(self):
        while True:
            try:
                connection = yield self.listener.accept()
            except ConnectionClosed:
                return
            self.sim.process(self._session(connection))

    def _session(self, connection: StreamConnection):
        while True:
            try:
                envelope = yield connection.recv()
            except ConnectionClosed:
                return
            request = envelope.payload
            if not isinstance(request, HttpRequest):
                connection.send(HttpResponse.error(400, "not an HttpRequest"))
                continue
            qos = qos_of(request)
            self._requests.inc()
            by_qos = self._requests_by_qos
            counter = by_qos.get(qos)
            if counter is None:
                counter = by_qos[qos] = self.metrics.handle(
                    f"frontend.requests.qos{qos}"
                )
            counter.inc()
            # The end-to-end request context is born here, at the front
            # end; applications read `request.context` and their broker
            # calls extend the same per-request timeline.
            ctx = RequestContext.originate(now=self.sim._now, origin=self.name)
            ctx.qos_level = qos
            # Rebuild instead of dataclasses.replace(): replace() pays
            # per-call field introspection on this per-request path.
            request = HttpRequest(
                method=request.method,
                path=request.path,
                params=request.params,
                headers=request.headers,
                body=request.body,
                context=ctx,
            )

            if self.admission is not None:
                admitted_at = self.sim.now
                accepted, reason = self.admission(request)
                ctx.record_stage(
                    "frontend-admission",
                    admitted_at,
                    self.sim.now,
                    "admitted" if accepted else reason,
                )
                if not accepted:
                    self.metrics.increment("frontend.rejected")
                    self.metrics.increment(f"frontend.rejected.qos{qos}")
                    ctx.completed_at = self.sim.now
                    obs = self.sim.obs
                    if obs is not None:
                        obs.finish(ctx, status="503")
                    connection.send(HttpResponse.error(503, reason))
                    continue

            started = self.sim.now
            process_slot = self.processes.request()
            yield process_slot
            ctx.record_stage("frontend-process-wait", started, self.sim.now)
            app_started = self.sim.now
            try:
                response = yield from self._run_app(request)
            finally:
                self.processes.release(process_slot)
            now = self.sim._now
            ctx.record_stage("frontend-app", app_started, now)
            ctx.completed_at = now
            elapsed = now - started
            self._response_time.add(elapsed)
            rt_qos = self._response_time_by_qos.get(qos)
            if rt_qos is None:
                rt_qos = self._response_time_by_qos[qos] = (
                    self.metrics.sample_handle(f"frontend.response_time.qos{qos}")
                )
            rt_qos.add(elapsed)
            self._completed.inc()
            done_qos = self._completed_by_qos.get(qos)
            if done_qos is None:
                done_qos = self._completed_by_qos[qos] = self.metrics.handle(
                    f"frontend.completed.qos{qos}"
                )
            done_qos.inc()
            obs = self.sim.obs
            if obs is not None:
                obs.finish(ctx, status=str(response.status))
            if connection.closed:
                return
            connection.send(response)

    def _run_app(self, request: HttpRequest):
        app = self._apps.get(request.path)
        if app is None:
            self.metrics.increment("frontend.errors")
            return HttpResponse.error(404, f"no application at {request.path!r}")
        yield PARSE_TIME
        try:
            outcome = app.handler(self, request)
            if hasattr(outcome, "send"):
                outcome = yield from outcome
        except Exception as exc:  # noqa: BLE001 - app bugs become 500s
            self.metrics.increment("frontend.errors")
            return HttpResponse.error(500, f"{type(exc).__name__}: {exc}")
        if isinstance(outcome, HttpResponse):
            return outcome
        return HttpResponse.text(str(outcome))

    def close(self) -> None:
        """Stop accepting new connections."""
        self.listener.close()

    def __repr__(self) -> str:
        return f"<FrontendWebServer {self.address} busy={self.processes.in_use}>"
