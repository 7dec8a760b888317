"""The API-based baseline: stateless, isolated, per-request backend access.

This is the access model the paper argues against (its Figure 1): every
backend operation pays connection establishment + authentication +
teardown, nothing is shared between application processes, no QoS, no
caching, no clustering. The :class:`ApiBackendGateway` implements it
faithfully so broker-vs-API comparisons are like-for-like. It is also
the contrast case for the shard tier: API callers must name a concrete
backend *address* per call, while broker callers name a *service* and
let the :class:`~repro.core.sharding.ShardDirectory` (or the classic
route table) resolve the serving broker.

All methods are ``yield from`` generators.

The gateway reaches the database and web services, but a run that only
makes HTTP calls should not load the database package: its client API
is imported the first time this gateway uses it and kept on the
instance, so no call after the first pays for it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Tuple

from ..http.client import HttpClient
from ..http.messages import HttpRequest
from ..metrics import Counter, MetricsRegistry, Moments
from ..net.address import Address
from ..net.network import Node
from ..sim.core import Simulation

__all__ = ["ApiBackendGateway"]


class ApiBackendGateway:
    """Per-request backend access APIs, one connection per operation."""

    def __init__(self, sim: Simulation, node: Node) -> None:
        self.sim = sim
        self.node = node
        self.metrics = MetricsRegistry()
        # Per access kind: its calls counter, the shared connections
        # counter and its time sample, resolved at the kind's first call.
        self._handles: Dict[str, Tuple[Counter, Counter, Moments]] = {}

    def _account(self, kind: str, started: float) -> None:
        handles = self._handles.get(kind)
        if handles is None:
            metrics = self.metrics
            handles = self._handles[kind] = (
                metrics.handle(f"api.{kind}.calls"),
                metrics.handle("api.connections"),
                metrics.sample_handle(f"api.{kind}.time"),
            )
        calls, connections, time = handles
        calls.value += 1.0
        connections.value += 1.0
        time.add(self.sim.now - started)

    # -- database ------------------------------------------------------

    @cached_property
    def _database(self) -> type:
        from ..db.client import DatabaseClient

        return DatabaseClient

    def db_query(self, address: Address, sql: str):
        """Connect, authenticate, run one query, tear down."""
        started = self.sim.now
        connection = yield from self._database.connect(self.sim, self.node, address)
        try:
            result = yield from connection.query(sql)
        finally:
            yield from connection.close()
        self._account("db", started)
        return result

    # -- web -----------------------------------------------------------

    def http_get(self, address: Address, path: str):
        """One-shot HTTP GET with its own connection."""
        started = self.sim.now
        request = HttpRequest(method="GET", path=path)
        response = yield from HttpClient.fetch(self.sim, self.node, address, request)
        self._account("http", started)
        return response
