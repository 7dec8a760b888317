"""The service broker (distributed model).

A :class:`ServiceBroker` is the dedicated middleware process the paper
proposes: it owns the access point to one backend service, receives
request messages from web applications over UDP, and runs every request
through a composable :class:`~repro.core.pipeline.StagePipeline`:

* answering cache hits immediately (:class:`CacheLookupStage`),
* applying QoS admission control — threshold + per-class intensity
  gates (:class:`AdmissionStage`), answering rejected requests at once
  with an adaptive low-fidelity reply (:class:`FidelityFallbackStage`),
* queueing admitted requests in QoS order (:class:`EnqueueStage`),
* clustering compatible requests into batched backend accesses
  (:class:`ClusterStage`),
* executing them over pooled persistent connections to (possibly
  replicated) backends chosen by a load balancer
  (:class:`ExecuteStage`),
* and caching results for future requests (:class:`CacheFillStage`).

The stage list is a constructor argument (``stages=``), so the
distributed and centralized models — and any custom policy — are stage
configurations rather than separate code paths. See
:mod:`repro.core.pipeline`. Outside the request path, the broker can
stream its load to the centralized model's listener
(:meth:`ServiceBroker.report_load_to`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence

from ..errors import (
    BrokerError,
    ConnectionClosed,
    NetworkError,
    ServiceError,
)
from ..metrics import MetricsRegistry
from ..net.address import Address
from ..net.network import Node
from ..sim.core import Simulation
from .admission import AdmissionController
from .adapters import ServiceAdapter
from .cache import ResultCache
from .clustering import ClusteringConfig
from .fidelity import FidelityPolicy
from .loadbalance import BackendState, Balancer, LeastOutstandingBalancer
from .peering import CombinableAdvert, JournalSync, RouteAdvert, TxnStateUpdate
from .pipeline import BrokerStage, RequestContext, StagePipeline, stage_plan
from .pool import ConnectionPool
from .protocol import BrokerReply, BrokerRequest, ReplyStatus
from .qos import QoSPolicy
from .queueing import BrokerQueue, QueuedRequest
from .transactions import TransactionTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .peering import BrokerPeerGroup

__all__ = ["ServiceBroker", "DEFAULT_BROKER_PORT"]

#: Default UDP port brokers listen on.
DEFAULT_BROKER_PORT = 7000

#: Peer-plane message types, checked with one tuple isinstance so the
#: request hot path pays the same two type checks as before sharding.
_PEER_MESSAGES = (TxnStateUpdate, JournalSync, RouteAdvert, CombinableAdvert)


class ServiceBroker:
    """One broker fronting one backend service.

    Parameters
    ----------
    sim, node:
        Simulation and the host the broker process runs on (usually the
        front-end web server's host or a dedicated middleware host).
    service:
        The service name requests must carry (e.g. ``"db"``).
    adapters:
        One :class:`ServiceAdapter` per backend replica.
    qos:
        The :class:`QoSPolicy` (threshold, fractions, rate limits).
    cache, clustering, transactions:
        Optional features; pass ``None`` to disable.
    pool_size:
        Persistent connections kept per backend replica.
    dispatchers:
        Concurrent dispatcher processes (default: total pool capacity).
    stages:
        The broker's stage plan — an ordered list of
        :class:`~repro.core.pipeline.BrokerStage` objects. Defaults to
        ``stage_plan("distributed")``; pass ``stage_plan("centralized")``
        for the centralized model (see
        :func:`~repro.core.pipeline.stage_plan`), or any custom list.
        Plans are per-broker (stages bind to exactly one broker).
    """

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        service: str,
        adapters: Sequence[ServiceAdapter],
        port: int = DEFAULT_BROKER_PORT,
        qos: Optional[QoSPolicy] = None,
        cache: Optional[ResultCache] = None,
        clustering: Optional[ClusteringConfig] = None,
        balancer: Optional[Balancer] = None,
        pool_size: int = 2,
        dispatchers: Optional[int] = None,
        transactions: Optional[TransactionTracker] = None,
        priority_queueing: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        name: str = "",
        stages: Optional[Sequence[BrokerStage]] = None,
    ) -> None:
        if not adapters:
            raise BrokerError("a broker needs at least one backend adapter")
        self.sim = sim
        self.node = node
        self.service = service
        self.name = name or f"broker:{service}"
        self.qos = qos or QoSPolicy()
        self.metrics = metrics or MetricsRegistry()
        self.cache = cache
        if cache is not None:
            # Mirror CacheStats onto broker.cache.* registry counters so
            # per-broker cache accounting lives with the other metrics.
            cache.bind_metrics(self.metrics)
        self.clustering = clustering
        self.transactions = transactions
        self.fidelity = FidelityPolicy()
        self.balancer = balancer or LeastOutstandingBalancer()
        self.backends: List[BackendState] = [
            BackendState(
                adapter, ConnectionPool(sim, adapter, pool_size, self.metrics)
            )
            for adapter in adapters
        ]
        self.admission = AdmissionController(sim, self.qos, metrics=self.metrics)
        # With priority queueing the backlog is served in QoS order; with
        # FCFS (the paper's binary forward-or-drop testbed) admission is
        # the only differentiation mechanism and the bounded queue is
        # drained in arrival order.
        self.priority_queueing = priority_queueing
        queue_priority = self.priority_of if priority_queueing else (lambda _r: 0)
        self.queue = BrokerQueue(sim, priority_of=queue_priority)
        self._port = port
        self._pool_size = pool_size
        self.socket = node.datagram_socket(port)
        self.address = self.socket.address
        #: Set by :meth:`BrokerPeerGroup.join`; enables txn-state gossip.
        self.peer_group: Optional["BrokerPeerGroup"] = None
        #: Set by :meth:`ShardGroup.add` when this broker is a shard
        #: replica; ``None`` in unsharded (degenerate) topologies.
        self.shard_group = None
        #: ``(service, shard) → leader name`` learned from RouteAdverts.
        self.shard_view: dict = {}
        #: Per-peer shadow of replicated journal entries
        #: (``origin name → {request_id: request}``), fed by JournalSync.
        self.shard_shadow: dict = {}
        #: ``combine key → CombinableAdvert`` learned from peers; the
        #: query-combine stage yields to a peer with a fresh advert.
        self.combinable_adverts: dict = {}
        #: Optional :class:`~repro.core.cachetier.SharedCacheTier`;
        #: installed by :meth:`SharedCacheTier.attach` (via the
        #: cache-tier stage plan). ``None`` keeps the legacy single-broker
        #: behaviour byte-identical.
        self.cache_tier = None
        #: False while crashed (see :meth:`crash` / :meth:`restart`).
        self.alive = True
        #: True once :meth:`begin_drain` ran: the receive loop refuses
        #: new requests (raced arrivals get an immediate ``DROPPED``
        #: reply) while queued/in-flight work finishes. Survives a
        #: crash/restart cycle so a resurrected mid-drain broker keeps
        #: refusing work until its drain completes.
        self.draining = False
        #: True once :meth:`decommission` ran; a retired broker is
        #: permanently gone (``restart`` refuses to revive it).
        self.retired = False
        #: Optional :class:`~repro.core.lifecycle.RecoveryJournal`;
        #: installed by :meth:`BrokerSupervisor.watch` (or directly).
        self.journal = None
        self._heartbeat: Optional[Address] = None
        self._load_report: Optional[tuple] = None
        #: The request path as an ordered, composable stage list.
        self.pipeline = StagePipeline(
            self, stages if stages is not None else stage_plan("distributed")
        )
        worker_count = (
            dispatchers if dispatchers is not None else len(self.backends) * pool_size
        )
        if worker_count < 1:
            raise BrokerError(f"dispatchers must be >= 1: {worker_count!r}")
        self._worker_count = worker_count
        self._processes: List[Any] = []
        self._spawn_processes()

    def _spawn_processes(self) -> None:
        """Start (or re-start, after a crash) the broker's processes."""
        sim = self.sim
        self._processes = [
            sim.process(self._receive_loop(), name=f"{self.name}:rx")
        ]
        for index in range(self._worker_count):
            self._processes.append(
                sim.process(self._dispatcher(), name=f"{self.name}:dispatch{index}")
            )

    # -- derived state ---------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Admitted requests not yet answered (queued + in service)."""
        return self.admission.outstanding

    def drop_ratio(self, level: int) -> float:
        """Fraction of level-*level* arrivals rejected by QoS admission.

        Counts only ``broker.drops.*`` (admission-gate rejections);
        backpressure sheds are accounted separately under
        ``broker.shed.*`` (see :meth:`record_shed`).
        """
        arrivals = self.metrics.counter(f"broker.arrivals.qos{level}")
        drops = self.metrics.counter(f"broker.drops.qos{level}")
        return drops / arrivals if arrivals else 0.0

    def record_shed(self, level: int, reason: str) -> None:
        """Count one backpressure shed, kept apart from admission drops."""
        metrics = self.metrics
        metrics.increment("broker.shed")
        metrics.increment(f"broker.shed.{reason}")
        metrics.increment(f"broker.shed.qos{level}")

    def load_gauges(self) -> "dict[str, Any]":
        """Live load readings keyed exactly like the listener's samples.

        Returns ``name -> zero-argument callable`` for this broker's
        outstanding count plus every :meth:`BrokerQueue.gauges
        <repro.core.queueing.BrokerQueue.gauges>` reading, under the
        ``broker.load.<name>`` / ``broker.load.<name>.queue_depth``
        names :class:`~repro.core.centralized.LoadListener` already
        observes from :class:`~repro.core.centralized.LoadReport`
        datagrams — so scraped gauge series and streamed load reports
        describe the same quantities under the same keys.
        """
        prefix = f"broker.load.{self.name}"
        gauges: "dict[str, Any]" = {prefix: lambda: float(self.outstanding)}
        for key, reader in self.queue.gauges().items():
            gauges[f"{prefix}.{key}"] = reader
        return gauges

    def priority_of(self, request: BrokerRequest) -> int:
        """A request's effective QoS level (transaction escalation aware)."""
        if self.transactions is not None:
            return self.qos.clamp(self.transactions.effective_level(request))
        return self.qos.clamp(request.qos_level)

    def describe_pipeline(self) -> List[str]:
        """The broker's configured stage names, in execution order."""
        return self.pipeline.describe()

    # -- receive path (never blocks) -------------------------------------

    def _receive_loop(self):
        """Demultiplex datagrams and feed requests to the ingress stages.

        Only transport-level concerns live here (peer gossip, malformed
        payloads); all request processing is pipeline stages.
        """
        recv = self.socket.recv
        sim = self.sim
        name = self.name
        adopt = RequestContext.adopt
        run_ingress = self.pipeline.run_ingress
        while True:
            envelope = yield recv()
            message = envelope.payload
            if isinstance(message, _PEER_MESSAGES):
                if type(message) is TxnStateUpdate:
                    if self.transactions is not None:
                        self.transactions.observe_remote(
                            message.txn_id, message.step
                        )
                        self.metrics.increment("peering.updates_received")
                elif self.peer_group is not None:
                    self.peer_group.handle(self, message)
                else:
                    self.metrics.increment("broker.malformed")
                continue
            if not isinstance(message, BrokerRequest):
                self.metrics.increment("broker.malformed")
                continue
            if self.draining:
                # Refuse raced arrivals during a graceful drain with an
                # immediate DROPPED reply, bypassing the pipeline so the
                # admission ledger and recovery journal never see them.
                self.metrics.increment("broker.drain.refused")
                self.socket.sendto(
                    BrokerReply(
                        request_id=message.request_id,
                        status=ReplyStatus.DROPPED,
                        payload="broker draining",
                        fidelity=0.0,
                        error="draining",
                        broker=name,
                        context=message.context,
                    ),
                    message.reply_to,
                )
                continue
            run_ingress(adopt(message, now=sim._now, broker=name))

    # -- dispatch path -----------------------------------------------------

    def _dispatcher(self):
        """Pull queued requests and run them through the dispatch stages."""
        queue_get = self.queue.get
        run_dispatch = self.pipeline.run_dispatch
        while True:
            item: QueuedRequest = yield queue_get()
            yield from run_dispatch(item)

    # -- direct execution (prefetcher, warmup) -----------------------------

    def execute_direct(self, operation: str, payload: Any):
        """Run one backend call outside admission; ``yield from`` this.

        Used by the prefetcher and by warm-up code; the result is
        returned but *not* automatically cached (callers decide). By
        design this bypasses the stage pipeline: prefetches must not
        consume admission slots or skew per-request metrics.
        """
        backend = self.balancer.pick(self.backends)
        backend.note_dispatch()
        started = self.sim.now
        try:
            connection = yield from backend.pool.acquire()
        except (ConnectionClosed, NetworkError):
            backend.note_completion(self.sim.now - started, error=True)
            raise
        try:
            result = yield from backend.adapter.execute(connection, operation, payload)
        except (ConnectionClosed, NetworkError):
            backend.pool.release(connection, discard=True)
            backend.note_completion(self.sim.now - started, error=True)
            raise
        except ServiceError:
            backend.pool.release(connection)
            backend.note_completion(self.sim.now - started, error=True)
            raise
        backend.pool.release(connection)
        backend.note_completion(self.sim.now - started)
        return result

    # -- lifecycle (crash / restart / heartbeats) --------------------------

    def crash(self) -> None:
        """Kill the broker process mid-flight (a ``BrokerCrash`` fault).

        Models a real process death: the receive/dispatcher processes
        are interrupted, the UDP socket is unbound (datagrams sent while
        down vanish, exactly like datagrams to a dead host), the backlog
        is discarded, and the admission ledger is cleared. An installed
        :class:`~repro.core.lifecycle.RecoveryJournal` keeps the set of
        admitted-but-unanswered requests so a supervisor can fail them
        fast and :meth:`restart` can replay or shed them.
        """
        if not self.alive:
            return
        self.alive = False
        self.metrics.increment("broker.crashes")
        for process in self._processes:
            if process.is_alive:
                # The event the process was blocked on survives the kill
                # (a pooled connection's recv, a queue get, ...). Nobody
                # listens to it any more: mark it cancelled where the
                # owning queue looks at that, and defused so a later
                # failure (e.g. a link fault severing the idle
                # connection) does not abort the whole simulation.
                target = process._target
                if target is not None:
                    target.defused = True
                    if hasattr(target, "cancelled"):
                        target.cancelled = True
                process.defused = True
                process.interrupt("broker-crash")
        self._processes = []
        self.queue.reset()
        self.admission.outstanding = 0
        self.socket.close()

    def restart(self) -> None:
        """Bring a crashed broker back: fresh socket, pools, processes.

        Work journaled before the crash is replayed through the ingress
        pipeline or shed with a degraded reply, according to the
        installed journal's policy (see
        :class:`~repro.core.lifecycle.RecoveryJournal`).
        """
        if self.alive or self.retired:
            return
        self.alive = True
        self.metrics.increment("broker.restarts")
        self.socket = self.node.datagram_socket(self._port)
        self.address = self.socket.address
        for backend in self.backends:
            # Connections the killed dispatchers had checked out never
            # come back; rebuild each pool rather than leak its slots.
            backend.pool = ConnectionPool(
                self.sim, backend.adapter, self._pool_size, self.metrics
            )
            backend.outstanding = 0
        self._spawn_processes()
        if self._heartbeat is not None:
            self._start_heartbeat()
        if self._load_report is not None:
            self._start_load_report()
        if self.journal is not None:
            self.journal.recover(self)

    def begin_drain(self) -> None:
        """Stop accepting new work ahead of a graceful decommission.

        The receive loop answers raced arrivals with an immediate
        ``DROPPED`` reply (``error="draining"``); already-queued and
        in-flight requests keep draining through the dispatchers, and
        heartbeats keep flowing so the supervisor still covers a crash
        mid-drain. Idempotent. The pool-level protocol around this —
        ring removal first, hand-off, deregistration, then
        :meth:`decommission` — lives in
        :class:`~repro.core.autoscale.BrokerPool`.
        """
        if self.draining:
            return
        self.draining = True
        self.metrics.increment("broker.drain.begin")

    def decommission(self) -> None:
        """Terminate a drained broker for good.

        Unlike :meth:`crash` this is an orderly exit — the caller is
        responsible for having quiesced the queue, ledger, and journal
        first (see :class:`~repro.core.autoscale.BrokerPool`). Residual
        state is deliberately left in place (not zeroed) so chaos
        invariants can audit that the drain really finished clean. A
        retired broker refuses :meth:`restart`.
        """
        if not self.alive:
            return
        self.alive = False
        self.retired = True
        self.metrics.increment("broker.drained")
        for process in self._processes:
            if process.is_alive:
                target = process._target
                if target is not None:
                    target.defused = True
                    if hasattr(target, "cancelled"):
                        target.cancelled = True
                process.defused = True
                process.interrupt("broker-drained")
        self._processes = []
        self.socket.close()

    def residue(self) -> "dict[str, int]":
        """What a finished drain must leave at zero: backlog, held
        admissions and journaled requests (chaos invariants audit it)."""
        journal = self.journal
        return {
            "queue_depth": len(self.queue),
            "outstanding": self.admission.outstanding,
            "journal_pending": journal.pending_count if journal else 0,
        }

    def start_heartbeat(self, address: Address) -> None:
        """Emit liveness heartbeats to *address* every ``HEARTBEAT_INTERVAL`` s.

        Normally installed by
        :meth:`~repro.core.lifecycle.BrokerSupervisor.watch`. The
        heartbeat process dies with the broker on :meth:`crash` and is
        revived by :meth:`restart` — silence is the death signal.
        """
        self._heartbeat = address
        self._start_heartbeat()

    def _start_heartbeat(self) -> None:
        self._processes.append(
            self.sim.process(
                self._heartbeat_loop(), name=f"{self.name}:heartbeat"
            )
        )

    def _heartbeat_loop(self):
        from .lifecycle import HEARTBEAT_INTERVAL, Heartbeat  # local import avoids a cycle

        address = self._heartbeat
        seq = 0
        while True:
            self.socket.sendto(
                Heartbeat(broker=self.name, sent_at=self.sim.now, seq=seq),
                address,
            )
            seq += 1
            yield HEARTBEAT_INTERVAL

    # -- replies and load reports -----------------------------------------

    def send_reply(self, request: BrokerRequest, reply: BrokerReply) -> None:
        """Send *reply* to the request's ``reply_to`` address."""
        if self.journal is not None:
            self.journal.record_answered(request.request_id)
        self.socket.sendto(reply, request.reply_to)

    def report_load_to(self, address: Address, interval: float = 0.1):
        """Stream load reports to *address* every *interval* seconds.

        Feeds the centralized model's
        :class:`~repro.core.centralized.LoadListener` (§IV). The reporter
        is no step of any request's path; like the heartbeat it dies with
        the broker on :meth:`crash` and is revived by :meth:`restart`.
        Returns the reporter process.
        """
        self._load_report = (address, interval)
        return self._start_load_report()

    def _start_load_report(self):
        process = self.sim.process(
            self._load_report_loop(), name=f"{self.name}:load-report"
        )
        self._processes.append(process)
        return process

    def _load_report_loop(self):
        from .centralized import LoadReport, ShardLoadReport  # avoids a cycle

        address, interval = self._load_report
        while True:
            yield interval
            group = self.shard_group
            if group is None:
                report = LoadReport(
                    broker=self.name,
                    service=self.service,
                    outstanding=self.outstanding,
                    queue_depth=len(self.queue),
                    threshold=self.qos.threshold,
                    sent_at=self.sim.now,
                )
            else:
                # Shard replicas only report while leading: the
                # listener's load is bounded by the shard count, not the
                # replica count (every replica runs a reporter, so the
                # reporting role follows bully elections automatically —
                # a demoted broker falls silent, the promoted one starts
                # claiming the role). Leadership is re-checked every
                # tick, at send time.
                if group.leader is not self:
                    continue
                report = ShardLoadReport(
                    broker=self.name,
                    service=self.service,
                    outstanding=self.outstanding,
                    queue_depth=len(self.queue),
                    threshold=self.qos.threshold,
                    sent_at=self.sim.now,
                    shard=group.index,
                    leader=group.leader is self,
                )
            self.socket.sendto(report, address)

    def __repr__(self) -> str:
        return (
            f"<ServiceBroker {self.name} service={self.service!r} "
            f"outstanding={self.outstanding} queue={len(self.queue)}>"
        )
