"""The broker's composable stage pipeline.

The paper describes the broker as a *sequence of mechanisms* — admission
control, cache lookup, QoS queueing, clustering, pooled execution,
fidelity degradation (§III-§IV) — and this module makes that sequence
explicit. A :class:`ServiceBroker` no longer hard-wires its control
flow; it runs an ordered list of :class:`BrokerStage` objects assembled
into a :class:`StagePipeline`, and every request carries a
:class:`RequestContext` from the moment the front end creates it,
through the net layer, through every stage, to the backend adapter and
back.

:func:`stage_plan` expresses the paper's models as *stage plans* rather
than code paths: one of three base lists — ``"distributed"``
(admission at the broker, §III), ``"centralized"`` (the same without the
admission gate: the front end admits from streamed load reports, §IV)
and ``"fault-tolerant"`` (deadlines, breakers, retry, failover and a
degraded-reply fallback around execution) — composed with optional
stages, each of which names its own anchor (``ShardRouteStage.anchor ==
("after", "validate")``).

The context records a per-stage timeline (enter/exit timestamps and the
stage's decision) and the pipeline mirrors it into the broker's
:class:`~repro.metrics.MetricsRegistry` (``broker.stage.<name>.time``
samples, ``broker.stage.<name>.<decision>`` counters); with a trace
collector attached, the stages also note request events on the context
(``broker.arrival``, ``pipeline.complete``, ...), which become span
events on the request's trace.
"""

from __future__ import annotations

from enum import Enum
from inspect import isgeneratorfunction
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import (
    BrokerError,
    ConnectionClosed,
    NetworkError,
    ServiceError,
)
from .faulttolerance import (
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
    available_backends,
)
from .protocol import BrokerReply, BrokerRequest, ReplyStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .broker import ServiceBroker
    from .loadbalance import BackendState
    from .queueing import QueuedRequest

__all__ = [
    "StageOutcome",
    "StageRecord",
    "RequestContext",
    "BatchContext",
    "BrokerStage",
    "StagePipeline",
    "ValidateServiceStage",
    "ShardRouteStage",
    "ArrivalStage",
    "TimeoutBudgetStage",
    "CacheLookupStage",
    "CacheTierStage",
    "QueryCombineStage",
    "ThrottleStage",
    "AdmissionStage",
    "FidelityFallbackStage",
    "EnqueueStage",
    "BackpressureStage",
    "ClusterStage",
    "CircuitBreakerStage",
    "RetryStage",
    "FailoverStage",
    "ExecuteStage",
    "CacheFillStage",
    "ReplyStage",
    "execute_batch_on",
    "stage_plan",
    "NAMED_PLANS",
]


class StageOutcome(Enum):
    """What a stage tells the pipeline to do next."""

    CONTINUE = "continue"
    """Proceed to the next stage."""

    REPLY = "reply"
    """``ctx.reply`` is set; send it and stop processing the request."""

    QUEUED = "queued"
    """The request was handed to the broker queue; a dispatcher resumes
    it at the first dispatch stage."""

    DONE = "done"
    """Dispatch finished; replies (if any) have been sent by the stage."""


class StageRecord:
    """One entry of a request's per-stage timeline."""

    __slots__ = ("stage", "entered", "exited", "decision")

    def __init__(
        self, stage: str, entered: float, exited: float, decision: str = ""
    ) -> None:
        self.stage = stage
        self.entered = entered
        self.exited = exited
        self.decision = decision

    @property
    def duration(self) -> float:
        """Simulated seconds spent in the stage."""
        return self.exited - self.entered

    def __repr__(self) -> str:
        return (
            f"<StageRecord {self.stage} +{self.duration:.6f}s "
            f"{self.decision or 'continue'}>"
        )


class RequestContext:
    """Mutable per-request state threaded through every broker stage.

    A context is created where the request originates (the front-end
    side's :class:`~repro.core.client.BrokerClient`, or a
    :class:`~repro.frontend.server.FrontendWebServer` for HTTP-level
    requests), rides the request message through the net layer (it
    contributes no simulated wire bytes — see
    :func:`repro.net.message.estimate_size`), and is then threaded
    through every pipeline stage to the adapter and back: the broker's
    reply carries the same context object, so the caller can inspect
    the complete end-to-end timeline.
    """

    #: Fields of this object never count toward simulated message sizes.
    __wire_bytes__ = 0

    __slots__ = (
        "request",
        "origin",
        "created_at",
        "broker",
        "received_at",
        "qos_level",
        "effective_level",
        "protected",
        "admission",
        "reply",
        "enqueued_at",
        "dispatched_at",
        "completed_at",
        "backend",
        "batch_size",
        "deadline",
        "stages",
        "annotations",
        "parent",
        "_decision",
    )

    def __init__(
        self,
        request: Optional[BrokerRequest] = None,
        created_at: float = 0.0,
        origin: str = "",
    ) -> None:
        self.request = request
        self.origin = origin
        self.created_at = created_at
        self.broker = ""
        self.received_at: Optional[float] = None
        self.qos_level = request.qos_level if request is not None else 1
        self.effective_level = self.qos_level
        self.protected = False
        self.admission: Optional[Any] = None
        self.reply: Optional[BrokerReply] = None
        self.enqueued_at: Optional[float] = None
        self.dispatched_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self.backend = ""
        self.batch_size = 1
        self.deadline: Optional[float] = None
        self.stages: List[StageRecord] = []
        self.annotations: Dict[str, Any] = {}
        #: The enclosing request's context, when this request is a
        #: nested broker call made on behalf of a front-end request
        #: (set via ``BrokerClient.call(..., parent=...)``). The obs
        #: layer uses it to nest child traces under the parent's trace.
        self.parent: Optional["RequestContext"] = None
        self._decision = ""

    # -- lifecycle -------------------------------------------------------

    @classmethod
    def originate(cls, now: float, origin: str = "") -> "RequestContext":
        """Create a fresh context at the point a request enters the system."""
        return cls(created_at=now, origin=origin)

    @classmethod
    def adopt(
        cls, request: BrokerRequest, now: float, broker: str = ""
    ) -> "RequestContext":
        """The context for *request* at broker ingress.

        Reuses the context the front end attached (recording the network
        transit as a ``"net"`` stage) or creates a fresh one for bare
        requests sent without a context.
        """
        ctx = request.context
        if ctx is None:
            ctx = cls(request=request, created_at=now)
        else:
            ctx.request = request
            ctx.record_stage("net", request.sent_at, now, "udp")
        ctx.broker = broker
        ctx.received_at = now
        return ctx

    # -- per-stage records ----------------------------------------------

    def record_stage(
        self, stage: str, entered: float, exited: float, decision: str = ""
    ) -> StageRecord:
        """Append one :class:`StageRecord` to the timeline and return it."""
        record = StageRecord(stage, entered, exited, decision)
        self.stages.append(record)
        return record

    def set_decision(self, decision: str) -> None:
        """Stages call this to label the record the pipeline is writing."""
        self._decision = decision

    def take_decision(self, default: str = "") -> str:
        """Consume the pending stage decision (pipeline internal)."""
        decision, self._decision = self._decision, ""
        return decision or default

    def annotate(self, key: str, value: Any) -> None:
        """Attach free-form metadata to the request (visible end to end)."""
        self.annotations[key] = value

    def add_event(self, time: float, name: str, **fields: Any) -> None:
        """Note a point event for the request's trace.

        Kept under the ``"obs.events"`` annotation, which
        :func:`~repro.obs.spans.trace_from_context` turns into span
        events on the request's root span. Callers guard with
        ``sim.obs is not None``, so untraced runs keep nothing.
        """
        events = self.annotations.get("obs.events")
        if events is None:
            events = self.annotations["obs.events"] = []
        events.append((time, name, fields))

    # -- inspection ------------------------------------------------------

    def stage_names(self) -> List[str]:
        """The names of the stages traversed so far, in order."""
        return [record.stage for record in self.stages]

    def __repr__(self) -> str:
        rid = self.request.request_id if self.request is not None else "?"
        return (
            f"<RequestContext request={rid} broker={self.broker!r} "
            f"stages={self.stage_names()}>"
        )


class BatchContext:
    """Shared state for one dispatch-path traversal.

    Dispatchers pull one queued request and run it through the dispatch
    stages; clustering may add companions, so dispatch stages operate on
    a *batch* of queued requests (usually of size one) with one combined
    backend call.

    ``fault`` classifies a *retryable* failure (``"unreachable"``,
    ``"breaker-open"``, ``"deadline"``); it stays ``None`` for service
    errors, which re-running would not fix. ``candidates`` optionally
    narrows the replicas :class:`ExecuteStage` balances across (the
    circuit-breaker stage sets it); ``None`` means all of them.
    """

    __slots__ = (
        "broker",
        "items",
        "operation",
        "payload",
        "backend",
        "candidates",
        "started",
        "latency",
        "result",
        "failure",
        "fault",
        "payloads",
    )

    def __init__(self, broker: "ServiceBroker", items: List["QueuedRequest"]) -> None:
        self.broker = broker
        self.items = items
        self.operation = ""
        self.payload: Any = None
        self.backend: Optional["BackendState"] = None
        self.candidates: Optional[List["BackendState"]] = None
        self.started = 0.0
        self.latency = 0.0
        self.result: Any = None
        self.failure: Optional[str] = None
        self.fault: Optional[str] = None
        self.payloads: List[Any] = []

    @property
    def requests(self) -> List[BrokerRequest]:
        """The batched requests, leader first."""
        return [item.request for item in self.items]

    @property
    def contexts(self) -> List[RequestContext]:
        """The request contexts of the batch (skipping bare items)."""
        return [item.context for item in self.items if item.context is not None]

    @property
    def deadline(self) -> Optional[float]:
        """The tightest request deadline in the batch, if any is set."""
        deadlines = [
            ctx.deadline for ctx in self.contexts if ctx.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def __len__(self) -> int:
        return len(self.items)

    def __repr__(self) -> str:
        return f"<BatchContext size={len(self.items)} op={self.operation!r}>"


class BrokerStage:
    """One replaceable step of the broker's request path.

    Subclasses override :meth:`on_request` (ingress path, synchronous —
    it must never block) and/or :meth:`on_batch` (dispatch path; may be
    a ``yield from`` generator that advances simulated time). A stage
    instance belongs to exactly one broker; :meth:`bind` is called once
    when the pipeline is assembled.
    """

    #: Stage name used in metrics, traces, and ``describe()`` output.
    name = "stage"

    #: True for the stage that hands requests to the broker queue; it
    #: marks the boundary between the ingress and dispatch sections.
    boundary = False

    #: Where :func:`stage_plan` places the stage when it is passed as an
    #: extra: ``("after", name)`` or ``("before", name)`` of a base
    #: stage. ``None`` for the base stages, which an extra can only
    #: replace (by sharing its name).
    anchor: Optional[Tuple[str, str]] = None

    def __init__(self) -> None:
        self.broker: Optional["ServiceBroker"] = None

    def bind(self, broker: "ServiceBroker") -> None:
        """Attach the stage to *broker* (stages are per-broker objects)."""
        if self.broker is not None and self.broker is not broker:
            raise BrokerError(
                f"stage {self.name!r} is already bound to {self.broker.name!r}; "
                "stage plans cannot be shared between brokers"
            )
        self.broker = broker

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Process one arriving request; ingress stages override this."""
        return StageOutcome.CONTINUE

    def on_batch(self, batch: BatchContext):
        """Process one dispatch batch; dispatch stages override this.

        May return a :class:`StageOutcome` directly or be a generator
        (the pipeline ``yield from``-s it and uses its return value).
        """
        return StageOutcome.CONTINUE

    @classmethod
    def summary(cls) -> str:
        """The first line of the stage's docstring (for ``describe()``)."""
        doc = cls.__doc__ or ""
        for line in doc.splitlines():
            line = line.strip()
            if line:
                return line
        return ""

    def __repr__(self) -> str:
        bound = self.broker.name if self.broker is not None else "unbound"
        return f"<{type(self).__name__} {self.name!r} ({bound})>"


# ---------------------------------------------------------------------------
# Ingress stages (synchronous; run in the broker's receive loop)
# ---------------------------------------------------------------------------


class ValidateServiceStage(BrokerStage):
    """Rejects requests naming a service this broker does not front."""

    name = "validate"

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Answer with an ERROR reply when the service name mismatches."""
        broker = self.broker
        request = ctx.request
        if request.service == broker.service:
            return StageOutcome.CONTINUE
        ctx.set_decision("unknown-service")
        ctx.reply = BrokerReply(
            request_id=request.request_id,
            status=ReplyStatus.ERROR,
            error=f"unknown service {request.service!r}",
            broker=broker.name,
            context=ctx,
        )
        return StageOutcome.REPLY


class ShardRouteStage(BrokerStage):
    """Routes each request to the shard owning its key (consistent hash).

    The routing decision is made once, at the front end:
    :class:`~repro.core.client.BrokerClient` resolves the owning shard's
    live leader through the same
    :class:`~repro.core.sharding.ShardDirectory` this stage checks, from
    the same key (:meth:`~repro.core.protocol.BrokerRequest.key`). A
    request the directory sent here is therefore always owned locally
    and continues down the pipeline. A key this shard does not
    own can only come from a datagram addressed past the directory; it
    is answered with an ERROR reply (decision ``wrong-shard``), as
    :class:`ValidateServiceStage` answers an unknown service — no broker
    relays a request to another.

    Without a directory, or for services the directory does not know,
    every request routes local: the degenerate single-shard
    configuration is a pass-through.
    """

    name = "shard-route"
    anchor = ("after", "validate")

    def __init__(self, directory=None, shard: int = 0) -> None:
        super().__init__()
        #: The :class:`~repro.core.sharding.ShardDirectory`, or ``None``
        #: for a degenerate always-local stage.
        self.directory = directory
        #: The shard index this broker serves.
        self.shard = shard

    def bind(self, broker: "ServiceBroker") -> None:
        """Bind and pre-resolve the routing counter."""
        super().bind(broker)
        self._local = broker.metrics.handle("broker.shard.local")

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Continue when this shard owns the key; else answer ERROR."""
        directory = self.directory
        request = ctx.request
        if directory is not None and directory.knows(request.service):
            owner = directory.shard_of(request.service, request.key())
            if owner != self.shard:
                ctx.set_decision("wrong-shard")
                ctx.reply = BrokerReply(
                    request_id=request.request_id,
                    status=ReplyStatus.ERROR,
                    error=f"shard {self.shard} does not own this key "
                    f"(shard {owner} does)",
                    broker=self.broker.name,
                    context=ctx,
                )
                return StageOutcome.REPLY
        self._local.inc()
        ctx.set_decision("local")
        return StageOutcome.CONTINUE


class ArrivalStage(BrokerStage):
    """Arrival accounting: metrics, intensity window, transaction state.

    Clamps the QoS level, feeds the admission controller's sliding
    arrival window, advances transaction tracking (publishing txn-state
    gossip to peers when configured), and computes the request's
    effective priority and protection flag.
    """

    name = "arrival"

    def bind(self, broker: "ServiceBroker") -> None:
        """Bind and pre-resolve the arrival counters."""
        super().bind(broker)
        self._arrivals = broker.metrics.handle("broker.arrivals")
        self._arrivals_by_level: Dict[int, Any] = {}

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Record the arrival and stamp QoS/transaction state on *ctx*."""
        broker = self.broker
        request = ctx.request
        level = broker.qos.clamp(request.qos_level)
        ctx.qos_level = level
        self._arrivals.inc()
        by_level = self._arrivals_by_level
        counter = by_level.get(level)
        if counter is None:
            counter = by_level[level] = broker.metrics.handle(
                f"broker.arrivals.qos{level}"
            )
        counter.inc()
        broker.admission.record_arrival(level)
        if broker.transactions is not None:
            advanced_to = broker.transactions.observe(request)
            if advanced_to is not None and broker.peer_group is not None:
                broker.peer_group.publish(broker, request.txn_id, advanced_to)
        if broker.sim.obs is not None:
            ctx.add_event(
                broker.sim.now, "broker.arrival",
                broker=broker.name, request_id=request.request_id, qos=level,
                operation=request.operation,
            )
        ctx.effective_level = broker.priority_of(request)
        ctx.protected = (
            broker.transactions.protected(request)
            if broker.transactions is not None
            else False
        )
        return StageOutcome.CONTINUE


class TimeoutBudgetStage(BrokerStage):
    """Stamps each request with its completion deadline from the QoS spec.

    The paper's fidelity adaptation is time-based — "the longer a
    request is allowed to be processed, the higher fidelity it will
    receive" (§III) — so the fault-tolerant plan makes the allowance
    explicit: the request's QoS class maps to a completion budget
    (:meth:`QoSPolicy.deadline <repro.core.qos.QoSPolicy.deadline>`),
    and retry/failover stop burning time on a dead backend once the
    budget is spent — the request degrades instead.
    """

    name = "timeout"

    def __init__(self) -> None:
        super().__init__()
        #: Budget → preformatted decision label (budgets are per-QoS
        #: constants, so this stays tiny).
        self._budget_labels: Dict[float, str] = {}

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Attach the absolute deadline (creation time + budget)."""
        budget = self.broker.qos.deadline(ctx.qos_level)
        if budget is None:
            ctx.set_decision("unbounded")
            return StageOutcome.CONTINUE
        ctx.deadline = ctx.created_at + budget
        labels = self._budget_labels
        label = labels.get(budget)
        if label is None:
            label = labels[budget] = f"budget={budget:g}"
        ctx.set_decision(label)
        return StageOutcome.CONTINUE


class CacheLookupStage(BrokerStage):
    """Answers cacheable requests from the result cache immediately."""

    name = "cache-lookup"

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Reply from cache on a fresh hit; otherwise continue."""
        broker = self.broker
        request = ctx.request
        if broker.cache is None or not request.cacheable:
            ctx.set_decision("bypass")
            return StageOutcome.CONTINUE
        value = broker.cache.get(request.key())
        if value is None:
            ctx.set_decision("miss")
            return StageOutcome.CONTINUE
        broker.metrics.increment("broker.cache_replies")
        if broker.sim.obs is not None:
            ctx.add_event(
                broker.sim.now, "broker.cache-hit",
                broker=broker.name, request_id=request.request_id,
            )
        ctx.set_decision("hit")
        ctx.reply = BrokerReply(
            request_id=request.request_id,
            status=ReplyStatus.OK,
            payload=value,
            fidelity=1.0,
            from_cache=True,
            broker=broker.name,
            context=ctx,
        )
        return StageOutcome.REPLY


class CacheTierStage(BrokerStage):
    """Answers cacheable requests from the *shared* cross-broker tier.

    Sits right after the per-broker :class:`CacheLookupStage`: a local
    miss gets a second chance against the deployment-wide
    :class:`~repro.core.cachetier.SharedCacheTier`, so a result fetched
    through *any* broker serves subsequent requests at *every* broker
    (read-through; the fill side lives in :class:`CacheFillStage`).
    With no tier attached the stage is a pass-through and behavior is
    byte-identical to the plain plans.
    """

    name = "cache-tier"
    anchor = ("after", "cache-lookup")

    def __init__(self, tier=None) -> None:
        super().__init__()
        self.tier = tier

    def bind(self, broker: "ServiceBroker") -> None:
        """Bind; attach the broker to the tier when one was configured."""
        super().bind(broker)
        if self.tier is not None:
            self.tier.attach(broker)
        self._replies = broker.metrics.handle("broker.cachetier.replies")

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Reply from the shared tier on a fresh hit; otherwise continue."""
        broker = self.broker
        tier = broker.cache_tier
        request = ctx.request
        if tier is None or not request.cacheable:
            ctx.set_decision("bypass")
            return StageOutcome.CONTINUE
        value = tier.get(request.key())
        if value is None:
            ctx.set_decision("miss")
            ctx.annotate("cachetier", "miss")
            return StageOutcome.CONTINUE
        self._replies.inc()
        if broker.sim.obs is not None:
            ctx.add_event(
                broker.sim.now, "broker.cachetier-hit",
                broker=broker.name, request_id=request.request_id,
            )
        ctx.set_decision("hit")
        ctx.annotate("cachetier", "hit")
        ctx.reply = BrokerReply(
            request_id=request.request_id,
            status=ReplyStatus.OK,
            payload=value,
            fidelity=1.0,
            from_cache=True,
            broker=broker.name,
            context=ctx,
        )
        return StageOutcome.REPLY


def _request_tenant(request) -> str:
    """Best-effort tenant extraction from a broker request payload.

    Recognizes a ``{"tenant": ...}`` key in dict payloads and in the
    params half of ``(path, params)`` tuples; everything else maps to
    the shared ``"public"`` bucket.
    """
    payload = request.payload
    if isinstance(payload, dict):
        return str(payload.get("tenant", "public"))
    if (
        isinstance(payload, (tuple, list))
        and len(payload) == 2
        and isinstance(payload[1], dict)
    ):
        return str(payload[1].get("tenant", "public"))
    return "public"


class ThrottleStage(BrokerStage):
    """Per-tenant token-bucket rate limiting at the broker's front door.

    Placed *before* admission, so a refused request never touches the
    admission ledger or the recovery journal — it is answered with an
    immediate ``DROPPED`` reply (``error="throttled"``) and counted
    under ``broker.throttle.rejected`` / ``.qos<N>`` / ``.<tenant>``,
    deliberately distinct from admission drops (``broker.drops.*``, we
    chose not to serve) and backpressure sheds (``broker.shed.*``, we
    admitted but could not keep). Not part of any default stage plan;
    insert it explicitly. It is the one place tenants are throttled.
    """

    name = "throttle"
    anchor = ("after", "arrival")

    def __init__(self, throttle) -> None:
        super().__init__()
        #: The shared :class:`~repro.core.autoscale.TenantThrottle`.
        self.throttle = throttle

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Refuse the request when its tenant's bucket is empty."""
        broker = self.broker
        request = ctx.request
        tenant = _request_tenant(request)
        if self.throttle.allow(tenant, broker.sim._now):
            return StageOutcome.CONTINUE
        level = ctx.qos_level
        metrics = broker.metrics
        metrics.increment("broker.throttle.rejected")
        metrics.increment(f"broker.throttle.rejected.qos{level}")
        metrics.increment(f"broker.throttle.rejected.{tenant}")
        if broker.sim.obs is not None:
            ctx.add_event(
                broker.sim.now, "broker.throttle",
                broker=broker.name, request_id=request.request_id,
                qos=level, tenant=tenant,
            )
        ctx.set_decision("throttled")
        ctx.reply = BrokerReply(
            request_id=request.request_id,
            status=ReplyStatus.DROPPED,
            payload="tenant throttled",
            fidelity=0.0,
            error="throttled",
            broker=broker.name,
            context=ctx,
        )
        return StageOutcome.REPLY


class AdmissionStage(BrokerStage):
    """QoS admission control: the threshold and intensity gates.

    On rejection the request is *not* answered here — the decision is
    recorded on the context and the fidelity-fallback stage produces
    the immediate low-fidelity reply. The centralized stage plan omits
    this stage entirely (admission happens at the front end).
    """

    name = "admission"

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Apply the admission gates and record the decision."""
        broker = self.broker
        decision = broker.admission.decide(
            ctx.effective_level, protected=ctx.protected
        )
        ctx.admission = decision
        if decision.admitted:
            ctx.set_decision("admitted")
            return StageOutcome.CONTINUE
        level = ctx.qos_level
        broker.metrics.increment("broker.drops")
        broker.metrics.increment(f"broker.drops.qos{level}")
        if broker.sim.obs is not None:
            ctx.add_event(
                broker.sim.now, "broker.drop",
                broker=broker.name, request_id=ctx.request.request_id, qos=level,
                reason=decision.reason, outstanding=broker.outstanding,
            )
        ctx.set_decision(decision.reason)
        return StageOutcome.CONTINUE


class FidelityFallbackStage(BrokerStage):
    """Immediate low-fidelity replies for rejected or faulted requests.

    On the ingress path it is a pass-through for admitted requests and
    builds the paper's adaptive reply for admission-rejected ones — a
    stale cached result with decayed fidelity when one exists, else a
    "system busy" indication (§III).

    On the dispatch path (where the fault-tolerant plan installs a
    second instance) it does the same for *faulted* batches: when
    retries and failover could not reach a backend — breaker open,
    deadline exhausted, every replica unreachable — each request in the
    batch is answered degraded rather than with an error, which is
    precisely the availability story of §III ("even when the backend
    servers are not available").
    """

    name = "fidelity"

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Degrade rejected requests; admitted ones pass through."""
        broker = self.broker
        if ctx.admission is None or ctx.admission.admitted:
            ctx.set_decision("pass")
            return StageOutcome.CONTINUE
        reply = broker.fidelity.degrade(
            ctx.request,
            broker.cache,
            ctx.admission.reason,
            broker_name=broker.name,
            context=ctx,
        )
        if reply.status is ReplyStatus.DEGRADED:
            broker.metrics.increment("broker.degraded_replies")
        ctx.set_decision(reply.status.value)
        ctx.reply = reply
        return StageOutcome.REPLY

    def on_batch(self, batch: BatchContext):
        """Answer faulted batches with degraded replies; else pass."""
        broker = self.broker
        if batch.failure is None or batch.fault is None:
            for ctx in batch.contexts:
                ctx.set_decision("pass")
            return StageOutcome.CONTINUE
        for item in batch.items:
            reply = broker.fidelity.degrade(
                item.request,
                broker.cache,
                batch.failure,
                broker_name=broker.name,
                context=item.context,
            )
            if reply.status is ReplyStatus.DEGRADED:
                broker.metrics.increment("broker.degraded_replies")
            broker.metrics.increment("broker.fault.replies")
            broker.metrics.increment(
                f"broker.fault.replies.{reply.status.value}"
            )
            if item.context is not None:
                item.context.reply = reply
                item.context.set_decision(reply.status.value)
            broker.send_reply(item.request, reply)
            broker.admission.request_finished()
        return StageOutcome.DONE


class EnqueueStage(BrokerStage):
    """Hands admitted requests to the QoS priority queue.

    The boundary stage: ingress processing ends here and a dispatcher
    process resumes the request at the first dispatch stage.
    """

    name = "enqueue"
    boundary = True

    def bind(self, broker: "ServiceBroker") -> None:
        """Bind and pre-resolve the admission counters."""
        super().bind(broker)
        self._admitted = broker.metrics.handle("broker.admitted")
        self._admitted_by_level: Dict[int, Any] = {}
        #: Queue depth → preformatted decision label (bounded cache).
        self._depth_labels: Dict[int, str] = {}

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Count the admitted request and enqueue it (with its context)."""
        broker = self.broker
        broker.admission.request_started()
        level = ctx.qos_level
        self._admitted.inc()
        by_level = self._admitted_by_level
        counter = by_level.get(level)
        if counter is None:
            counter = by_level[level] = broker.metrics.handle(
                f"broker.admitted.qos{level}"
            )
        counter.inc()
        item = broker.queue.put(ctx.request, context=ctx)
        if item is None:
            # A bounded queue shed the arrival itself (reject-new, or
            # no strictly-worse victim): answer busy/degraded now.
            return self._shed_arrival(ctx)
        if broker.journal is not None:
            broker.journal.record_admitted(ctx.request)
        ctx.enqueued_at = item.enqueued_at
        depth = len(broker.queue)
        labels = self._depth_labels
        label = labels.get(depth)
        if label is None:
            label = f"depth={depth}"
            if len(labels) < 1024:
                labels[depth] = label
        ctx.set_decision(label)
        return StageOutcome.QUEUED

    def _shed_arrival(self, ctx: RequestContext) -> StageOutcome:
        """Answer an arrival the bounded queue refused to hold."""
        broker = self.broker
        # Undo the request_started() above: the request never reaches a
        # dispatcher, so nothing else will balance the ledger.
        broker.admission.request_finished()
        reason = f"shed-{broker.queue.shed_policy}"
        reply = broker.fidelity.degrade(
            ctx.request,
            broker.cache,
            reason,
            broker_name=broker.name,
            context=ctx,
        )
        if reply.status is ReplyStatus.DEGRADED:
            broker.metrics.increment("broker.degraded_replies")
        broker.record_shed(ctx.qos_level, broker.queue.shed_policy)
        if broker.sim.obs is not None:
            ctx.add_event(
                broker.sim.now, "backpressure.shed",
                broker=broker.name, request_id=ctx.request.request_id,
                qos=ctx.qos_level, reason=reason,
            )
        ctx.set_decision(f"shed={broker.queue.shed_policy}")
        ctx.reply = reply
        return StageOutcome.REPLY


class BackpressureStage(BrokerStage):
    """Bounded-queue overload protection with QoS-aware shedding.

    Binding this stage installs a capacity and shedding policy (see
    :data:`~repro.core.queueing.SHED_POLICIES`) on the broker's queue
    and answers every shed victim immediately through
    :class:`~repro.core.fidelity.FidelityPolicy` — a stale-cache
    DEGRADED reply when one exists, else a "system busy" DROPPED reply.

    The stage also tracks watermark hysteresis: when the backlog
    crosses ``high_watermark × capacity`` it flips *engaged* and counts
    ``broker.backpressure.engaged``, releasing (and counting
    ``broker.backpressure.released``) once the backlog drains below
    ``low_watermark × capacity``.
    """

    name = "backpressure"
    anchor = ("before", "enqueue")
    #: Backlog fractions of *capacity* that engage and release.
    high_watermark = 0.75
    low_watermark = 0.5

    def __init__(self, capacity: int, shed_policy: str = "drop-lowest") -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.shed_policy = shed_policy
        self.engaged = False

    def bind(self, broker: "ServiceBroker") -> None:
        """Bound the broker's queue and pre-resolve the metric handles."""
        super().bind(broker)
        broker.queue.configure(
            self.capacity, self.shed_policy, self._shed_victim
        )
        self._high = max(1, int(self.capacity * self.high_watermark))
        self._low = min(int(self.capacity * self.low_watermark), self._high - 1)
        self._engaged_counter = broker.metrics.handle(
            "broker.backpressure.engaged"
        )
        self._released_counter = broker.metrics.handle(
            "broker.backpressure.released"
        )

    def summary(self) -> str:
        """One-line description for ``repro pipeline --describe``."""
        return (
            f"bounds the queue at {self.capacity} ({self.shed_policy}); "
            f"watermarks {self.high_watermark:g}/{self.low_watermark:g}"
        )

    def on_request(self, ctx: RequestContext) -> StageOutcome:
        """Apply watermark hysteresis; requests always pass through."""
        depth = self.broker.queue._waiting
        if self.engaged:
            if depth <= self._low:
                self._transition(False)
        elif depth >= self._high:
            self._transition(True)
        ctx.set_decision("throttling" if self.engaged else "pass")
        return StageOutcome.CONTINUE

    def _transition(self, engaged: bool) -> None:
        self.engaged = engaged
        if engaged:
            self._engaged_counter.inc()
        else:
            self._released_counter.inc()

    def _shed_victim(self, item: Any, policy: str) -> None:
        """``on_shed`` hook: answer an evicted, already-admitted request."""
        broker = self.broker
        reason = f"shed-{policy}"
        ctx = item.context
        reply = broker.fidelity.degrade(
            item.request,
            broker.cache,
            reason,
            broker_name=broker.name,
            context=ctx,
        )
        if reply.status is ReplyStatus.DEGRADED:
            broker.metrics.increment("broker.degraded_replies")
        now = broker.sim._now
        if ctx is not None:
            ctx.record_stage(self.name, now, now, f"shed={policy}")
            ctx.reply = reply
            ctx.completed_at = now
        broker.send_reply(item.request, reply)
        # The victim was counted into the admission ledger at enqueue;
        # its dispatcher will never run, so balance it here.
        broker.admission.request_finished()
        level = broker.qos.clamp(item.request.qos_level)
        broker.record_shed(level, policy)
        if broker.sim.obs is not None and item.context is not None:
            item.context.add_event(
                broker.sim.now, "backpressure.shed",
                broker=broker.name, request_id=item.request.request_id,
                qos=level, reason=reason,
            )


# ---------------------------------------------------------------------------
# Dispatch stages (run inside dispatcher processes; may advance sim time)
# ---------------------------------------------------------------------------


class ClusterStage(BrokerStage):
    """Gathers compatible queued requests into one batched backend call.

    Waits the configured gather window, claims companions that share
    the leader's cluster key, and computes the combined
    ``(operation, payload)`` for the batch.
    """

    name = "cluster"

    def on_batch(self, batch: BatchContext):
        """Batch companions behind the leader and combine the call."""
        broker = self.broker
        config = broker.clustering
        leader = batch.items[0]
        if config is not None and config.max_batch > 1:
            key = config.combiner.key(leader.request)
            if key is not None:
                if config.window > 0:
                    yield config.window
                companions = broker.queue.take_matching(
                    lambda queued: config.combiner.key(queued.request) == key,
                    config.max_batch - 1,
                )
                batch.items.extend(companions)
                if companions:
                    broker.metrics.increment("broker.clustered_batches")
                    broker.metrics.observe("broker.batch_size", len(batch.items))
        if config is not None and len(batch.items) > 1:
            batch.operation, batch.payload = config.combiner.combine(
                batch.requests
            )
        else:
            head = leader.request
            batch.operation, batch.payload = head.operation, head.payload
        for ctx in batch.contexts:
            ctx.batch_size = len(batch.items)
        return StageOutcome.CONTINUE


class QueryCombineStage(BrokerStage):
    """Combines equal-shape queries queued at *different* brokers.

    :class:`ClusterStage` batches combinable queries that happen to be
    queued at the same broker; with ``B`` brokers behind a balancer,
    simultaneous arrivals of the same shape scatter and each broker
    issues its own (smaller) combined query. This stage extends the
    combining window across the peer mesh:

    1. the dispatcher about to execute a combinable shape broadcasts a
       :class:`~repro.core.peering.CombinableAdvert` over the peer
       group's gossip and holds its window open;
    2. a peer whose own dispatcher reaches the same shape while a fresh
       advert is live *yields* — it skips advertising, claiming, and
       waiting, because the advertiser will take its queued matches;
    3. when the window closes, the advertiser claims matching queued
       requests from every peer's queue (transferring each request's
       admission slot and journal entry to itself) and issues one
       combined IN-list query for the whole deployment.

    Requires the broker to have both a clustering config (for the
    combiner) and a peer group (for the gossip); otherwise it is a
    pass-through. Counters live under ``broker.cachetier.combine.*``.
    """

    name = "query-combine"
    anchor = ("after", "cluster")

    def __init__(
        self,
        window: Optional[float] = None,
        max_batch: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.window = window
        self.max_batch = max_batch

    def bind(self, broker: "ServiceBroker") -> None:
        """Bind and pre-resolve the combine counters."""
        super().bind(broker)
        metrics = broker.metrics
        self._batches = metrics.handle("broker.cachetier.combine.batches")
        self._remote_items = metrics.handle(
            "broker.cachetier.combine.remote_items"
        )
        self._yields = metrics.handle("broker.cachetier.combine.yields")

    def on_batch(self, batch: BatchContext):
        """Advertise, gather across the mesh, and re-combine the batch."""
        broker = self.broker
        config = broker.clustering
        peer_group = broker.peer_group
        if config is None or peer_group is None or config.max_batch <= 1:
            return StageOutcome.CONTINUE
        key = config.combiner.key(batch.items[0].request)
        if key is None:
            return StageOutcome.CONTINUE
        limit = self.max_batch if self.max_batch is not None else config.max_batch
        capacity = limit - len(batch.items)
        if capacity <= 0:
            return StageOutcome.CONTINUE

        now = broker.sim.now
        advert = broker.combinable_adverts.get(key)
        if (
            advert is not None
            and advert.origin != broker.name
            and now - advert.sent_at <= advert.window
        ):
            # A peer opened a window for this shape moments ago; it will
            # claim our queued matches. Execute only what we hold.
            self._yields.inc()
            for ctx in batch.contexts:
                ctx.set_decision("yield")
                ctx.annotate("combine", f"yield:{advert.origin}")
            return StageOutcome.CONTINUE

        window = self.window if self.window is not None else config.window
        peer_group.advertise_combinable(broker, key, len(batch.items), window)
        if window > 0:
            yield window

        def _matches(queued: QueuedRequest) -> bool:
            return config.combiner.key(queued.request) == key

        # Late local arrivals first, then the peers' queues.
        companions = broker.queue.take_matching(_matches, capacity)
        batch.items.extend(companions)
        capacity -= len(companions)
        claimed = 0
        for peer in peer_group.members:
            if capacity <= 0:
                break
            if peer is broker or not peer.alive:
                continue
            taken = peer.queue.take_matching(_matches, capacity)
            for item in taken:
                # Transfer ownership: the peer's admission slot closes,
                # ours opens (the reply stage releases it), and the
                # peer's journal entry is cleared so a supervisor
                # fail-fast can never answer the request a second time.
                peer.admission.request_finished()
                broker.admission.request_started()
                if peer.journal is not None:
                    peer.journal.record_answered(item.request.request_id)
                if item.context is not None:
                    item.context.annotate("combine", f"claimed:{broker.name}")
            batch.items.extend(taken)
            capacity -= len(taken)
            claimed += len(taken)
        if claimed:
            self._batches.inc()
            self._remote_items.inc(claimed)
        if len(batch.items) > 1:
            batch.operation, batch.payload = config.combiner.combine(
                batch.requests
            )
            for ctx in batch.contexts:
                ctx.batch_size = len(batch.items)
        return StageOutcome.CONTINUE


def execute_batch_on(
    broker: "ServiceBroker", batch: BatchContext, backend: "BackendState"
):
    """Run *batch*'s combined call against *backend*; ``yield from`` this.

    The shared execution core of :class:`ExecuteStage` and
    :class:`FailoverStage`: acquires a persistent connection from the
    backend's pool, runs the adapter, and retries once on transport
    failure. Records latency/result/failure on the batch; a transport
    failure additionally classifies the batch as faulted
    (``batch.fault = "unreachable"``) so downstream fault-handling
    stages know a retry elsewhere could still succeed.
    """
    batch.backend = backend
    # The batch's events land on its first request's trace.
    traced = batch.items[0].context if broker.sim.obs is not None else None
    if traced is not None:
        traced.add_event(
            broker.sim.now, "broker.dispatch",
            broker=broker.name, backend=backend.name, batch=len(batch.items),
            operation=batch.operation,
            request_id=batch.items[0].request.request_id,
        )
    backend.note_dispatch()
    batch.started = broker.sim.now
    for ctx in batch.contexts:
        ctx.dispatched_at = batch.started
        ctx.backend = backend.name
    attempts = 0
    result: Any = None
    failure: Optional[str] = None
    fault: Optional[str] = None
    while True:
        try:
            connection = yield from backend.pool.acquire()
        except (ConnectionClosed, NetworkError) as exc:
            attempts += 1
            if attempts >= 2:
                failure = f"backend unreachable: {exc}"
                fault = "unreachable"
                break
            continue
        try:
            result = yield from backend.adapter.execute(
                connection, batch.operation, batch.payload
            )
        except (ConnectionClosed, NetworkError) as exc:
            backend.pool.release(connection, discard=True)
            attempts += 1
            if attempts >= 2:
                failure = f"backend unreachable: {exc}"
                fault = "unreachable"
                break
            continue
        except ServiceError as exc:
            backend.pool.release(connection)
            failure = str(exc)
            break
        backend.pool.release(connection)
        break
    batch.latency = broker.sim.now - batch.started
    batch.result = result
    batch.failure = failure
    batch.fault = fault
    if failure is not None:
        backend.note_completion(batch.latency, error=True)
        broker.metrics.increment("broker.backend_errors")
        if fault is not None:
            broker.metrics.increment("broker.fault.unreachable")
        if traced is not None:
            traced.add_event(
                broker.sim.now, "broker.backend-error",
                broker=broker.name, backend=backend.name, error=failure,
                request_id=batch.items[0].request.request_id,
            )
        for ctx in batch.contexts:
            ctx.set_decision("error")
    else:
        backend.note_completion(batch.latency)
    return StageOutcome.CONTINUE


class ExecuteStage(BrokerStage):
    """Pooled execution of the batch against a load-balanced backend.

    Picks a backend replica (honouring ``batch.candidates`` when a
    fault-handling stage narrowed the field), acquires a persistent
    connection from its pool, runs the adapter, and retries once on
    transport failure. Records the chosen backend and service latency
    on the batch.
    """

    name = "execute"

    def on_batch(self, batch: BatchContext):
        """Run the combined call over a pooled connection."""
        broker = self.broker
        candidates = (
            batch.candidates if batch.candidates is not None else broker.backends
        )
        backend = broker.balancer.pick(candidates)
        outcome = yield from execute_batch_on(broker, batch, backend)
        return outcome


class CircuitBreakerStage(BrokerStage):
    """Per-backend circuit breakers gating dispatch (closed/open/half-open).

    :meth:`bind` installs a
    :class:`~repro.core.faulttolerance.CircuitBreaker` on every backend
    replica; dispatch completions feed it through
    :meth:`BackendState.note_completion
    <repro.core.loadbalance.BackendState.note_completion>`. Per batch,
    the stage narrows ``batch.candidates`` to the replicas whose
    breakers admit traffic. A HALF_OPEN replica is *probed*: the batch
    is routed to it alone, so recovery is detected by live traffic (the
    paper's broker "can track the traffic and monitor their workload" —
    §III — rather than pinging). With every breaker open the batch is
    marked faulted (``breaker-open``) and falls through to the fidelity
    fallback without touching a dead backend.
    """

    name = "breaker"

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 1.0,
    ) -> None:
        super().__init__()
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout

    def bind(self, broker: "ServiceBroker") -> None:
        """Bind and install a breaker on each backend lacking one."""
        super().bind(broker)
        for backend in broker.backends:
            if backend.breaker is None:
                backend.breaker = CircuitBreaker(
                    broker.sim,
                    name=backend.name,
                    failure_threshold=self.failure_threshold,
                    reset_timeout=self.reset_timeout,
                    metrics=broker.metrics,
                )

    def on_batch(self, batch: BatchContext):
        """Narrow the candidate replicas to what the breakers admit."""
        broker = self.broker
        closed: List["BackendState"] = []
        probing: List["BackendState"] = []
        for backend in broker.backends:
            breaker = backend.breaker
            if breaker is None:
                closed.append(backend)
                continue
            state = breaker.current_state()
            if state is BreakerState.CLOSED:
                closed.append(backend)
            elif state is BreakerState.HALF_OPEN and breaker.try_probe():
                probing.append(backend)
        if probing:
            # Route this batch at the recovering replica: a live probe.
            batch.candidates = probing[:1]
            decision = "probe"
        elif closed:
            batch.candidates = closed
            decision = f"closed={len(closed)}"
        else:
            batch.failure = "all backends circuit-open"
            batch.fault = "breaker-open"
            batch.candidates = None
            broker.metrics.increment("broker.fault.breaker_open")
            decision = "open"
        for ctx in batch.contexts:
            ctx.set_decision(decision)
        return StageOutcome.CONTINUE


class RetryStage(BrokerStage):
    """Re-attempts faulted executions with exponential backoff + jitter.

    Wraps an inner :class:`ExecuteStage`: while the batch keeps coming
    back with a *retryable* fault (``batch.fault`` set — transport
    failures, not service errors) and the deadline allows, it waits the
    :class:`~repro.core.faulttolerance.RetryPolicy` backoff and runs the
    execution again against whatever replicas the breakers currently
    admit. Backoff draws come from the broker-scoped ``<name>.retry``
    RNG substream, so retry schedules are reproducible and independent
    of the workload's randomness. Exhausted deadlines and exhausted
    attempts leave the batch faulted for the failover/fidelity stages.
    """

    name = "retry"

    def __init__(self, policy: Optional[RetryPolicy] = None) -> None:
        super().__init__()
        self.policy = policy or RetryPolicy()
        self.execute = ExecuteStage()
        self._rng: Optional[Any] = None

    def bind(self, broker: "ServiceBroker") -> None:
        """Bind self plus the inner execution stage; set up the RNG."""
        super().bind(broker)
        self.execute.bind(broker)
        self._rng = broker.sim.rng(f"{broker.name}.retry")

    def on_batch(self, batch: BatchContext):
        """Execute, then retry transport faults until deadline/attempts."""
        broker = self.broker
        sim = broker.sim
        deadline = batch.deadline
        if batch.fault == "breaker-open":
            # Nothing admits traffic; skip straight to the fallback.
            for ctx in batch.contexts:
                ctx.set_decision("open")
            return StageOutcome.CONTINUE
        attempt = 0
        while True:
            if deadline is not None and sim.now >= deadline:
                batch.failure = "deadline exceeded"
                batch.fault = "deadline"
                broker.metrics.increment("broker.fault.deadline")
                decision = "deadline"
                break
            batch.result = None
            batch.failure = None
            batch.fault = None
            yield from self.execute.on_batch(batch)
            attempt += 1
            if batch.failure is None:
                decision = "ok" if attempt == 1 else "recovered"
                if attempt > 1:
                    broker.metrics.increment("broker.retry.recovered")
                break
            if batch.fault is None:
                # A ServiceError: the backend answered; retrying is futile.
                decision = "service-error"
                break
            if attempt >= self.policy.max_attempts:
                broker.metrics.increment("broker.retry.exhausted")
                decision = "exhausted"
                break
            delay = self.policy.backoff(attempt, self._rng)
            if deadline is not None:
                delay = min(delay, max(0.0, deadline - sim.now))
            broker.metrics.increment("broker.retry.attempts")
            broker.metrics.observe("broker.retry.backoff", delay)
            if delay > 0:
                yield delay
            candidates = available_backends(broker.backends)
            if not candidates:
                batch.failure = "all backends circuit-open"
                batch.fault = "breaker-open"
                broker.metrics.increment("broker.fault.breaker_open")
                decision = "open"
                break
            batch.candidates = candidates
        if broker.sim.obs is not None:
            # Tracing attribution only — never touches sim state.
            retries = attempt - 1 if attempt > 0 else 0
            for ctx in batch.contexts:
                ctx.annotations["obs.retries"] = retries
        for ctx in batch.contexts:
            ctx.set_decision(decision)
        return StageOutcome.CONTINUE


class FailoverStage(BrokerStage):
    """Last-chance re-route of a still-faulted batch to another replica.

    The retry stage may spend all its attempts against replicas that
    keep failing; before the batch degrades, this stage re-routes it
    once to a breaker-admitted replica *other than* the one that just
    failed — the paper's replicated-backend story ("switch to other
    servers when some servers are not reachable", §II) distilled into a
    stage. Pass-through when the batch is healthy, the deadline is
    spent, or no alternate replica exists.
    """

    name = "failover"

    def on_batch(self, batch: BatchContext):
        """Re-run a faulted batch on an alternate admitted replica."""
        broker = self.broker
        sim = broker.sim
        if batch.failure is None or batch.fault is None:
            for ctx in batch.contexts:
                ctx.set_decision("pass")
            return StageOutcome.CONTINUE
        if batch.fault == "deadline":
            for ctx in batch.contexts:
                ctx.set_decision("deadline")
            return StageOutcome.CONTINUE
        deadline = batch.deadline
        if deadline is not None and sim.now >= deadline:
            batch.failure = "deadline exceeded"
            batch.fault = "deadline"
            broker.metrics.increment("broker.fault.deadline")
            for ctx in batch.contexts:
                ctx.set_decision("deadline")
            return StageOutcome.CONTINUE
        exclude = (batch.backend,) if batch.backend is not None else ()
        candidates = available_backends(broker.backends, exclude=exclude)
        if not candidates:
            for ctx in batch.contexts:
                ctx.set_decision("no-replica")
            return StageOutcome.CONTINUE
        broker.metrics.increment("broker.fault.failover")
        backend = broker.balancer.pick(candidates)
        batch.result = None
        batch.failure = None
        batch.fault = None
        yield from execute_batch_on(broker, batch, backend)
        if batch.failure is None:
            broker.metrics.increment("broker.fault.failover_recovered")
            decision = "recovered"
        else:
            decision = "failed"
        if broker.sim.obs is not None:
            for ctx in batch.contexts:
                ctx.annotations["obs.failover"] = decision
        for ctx in batch.contexts:
            ctx.set_decision(decision)
        return StageOutcome.CONTINUE


class CacheFillStage(BrokerStage):
    """Splits the combined result per request and fills the cache(s).

    Fresh results go into the per-broker
    :class:`~repro.core.cache.ResultCache` and — when the broker is
    attached to a :class:`~repro.core.cachetier.SharedCacheTier` — into
    the shared tier as well, completing the read-through path for every
    peer broker.
    """

    name = "cache-fill"

    def on_batch(self, batch: BatchContext):
        """Scatter the result back per request; write fresh cache entries."""
        broker = self.broker
        if batch.failure is not None:
            return StageOutcome.CONTINUE
        if broker.clustering is not None and len(batch.items) > 1:
            batch.payloads = broker.clustering.combiner.split(
                batch.requests, batch.result
            )
        else:
            batch.payloads = [batch.result]
        cache = broker.cache
        tier = broker.cache_tier
        if cache is not None or tier is not None:
            for item, payload in zip(batch.items, batch.payloads):
                if item.request.cacheable:
                    key = item.request.key()
                    if cache is not None:
                        cache.put(key, payload)
                    if tier is not None:
                        tier.put(key, payload)
        return StageOutcome.CONTINUE


class ReplyStage(BrokerStage):
    """Builds and sends the per-request replies; closes the books.

    Emits the served/queue-time/service-time metrics, sends OK replies
    (or ERROR replies when execution failed), and releases each
    request's admission slot.
    """

    name = "reply"

    def bind(self, broker: "ServiceBroker") -> None:
        """Bind and pre-resolve the serving metrics."""
        super().bind(broker)
        metrics = broker.metrics
        self._served = metrics.handle("broker.served")
        self._queue_time = metrics.sample_handle("broker.queue_time")
        self._service_time = metrics.sample_handle("broker.service_time")
        self._served_by_level: Dict[int, Any] = {}
        self._queue_time_by_level: Dict[int, Any] = {}

    def on_batch(self, batch: BatchContext):
        """Answer every request of the batch and release admission slots."""
        broker = self.broker
        started, latency = batch.started, batch.latency
        if batch.failure is not None:
            for item in batch.items:
                reply = BrokerReply(
                    request_id=item.request.request_id,
                    status=ReplyStatus.ERROR,
                    error=batch.failure,
                    broker=broker.name,
                    queue_time=started - item.enqueued_at,
                    service_time=latency,
                    context=item.context,
                )
                self._answer(item, reply)
            return StageOutcome.DONE
        for item, payload in zip(batch.items, batch.payloads):
            request = item.request
            level = broker.qos.clamp(request.qos_level)
            queue_time = started - item.enqueued_at
            self._served.inc()
            served = self._served_by_level.get(level)
            if served is None:
                served = self._served_by_level[level] = broker.metrics.handle(
                    f"broker.served.qos{level}"
                )
            served.inc()
            self._queue_time.add(queue_time)
            qt_level = self._queue_time_by_level.get(level)
            if qt_level is None:
                qt_level = self._queue_time_by_level[level] = (
                    broker.metrics.sample_handle(f"broker.queue_time.qos{level}")
                )
            qt_level.add(queue_time)
            self._service_time.add(latency)
            reply = BrokerReply(
                request_id=request.request_id,
                status=ReplyStatus.OK,
                payload=payload,
                fidelity=1.0,
                broker=broker.name,
                queue_time=queue_time,
                service_time=latency,
                context=item.context,
            )
            self._answer(item, reply)
        return StageOutcome.DONE

    def _answer(self, item: "QueuedRequest", reply: BrokerReply) -> None:
        broker = self.broker
        if item.context is not None:
            item.context.reply = reply
        broker.send_reply(item.request, reply)
        broker.admission.request_finished()


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------


class StagePipeline:
    """An ordered list of :class:`BrokerStage` objects run per request.

    The list splits at the boundary stage (normally
    :class:`EnqueueStage`): stages up to and including it form the
    *ingress* section, run synchronously in the broker's receive loop;
    stages after it form the *dispatch* section, run by dispatcher
    processes (and may advance simulated time). Per-stage latency and
    decisions are recorded on each request's :class:`RequestContext`
    and mirrored into the broker's metrics registry.
    """

    def __init__(
        self, broker: "ServiceBroker", stages: Sequence[BrokerStage]
    ) -> None:
        if not stages:
            raise BrokerError("a pipeline needs at least one stage")
        self.broker = broker
        #: The stages in execution order, fixed once the pipeline is built.
        self.stages: Tuple[BrokerStage, ...] = tuple(stages)
        self._ingress: List[BrokerStage] = []
        self._dispatch: List[BrokerStage] = []
        section = self._ingress
        for stage in self.stages:
            stage.bind(broker)
            section.append(stage)
            if stage.boundary:
                section = self._dispatch
        self._compile()

    def _compile(self) -> None:
        """Precompile the per-request execution plan (once, at construction).

        For each stage the plan pre-binds the ``on_request``/``on_batch``
        method, interns the stage's metric names into registry handles
        (``broker.stage.<name>.time`` sample, plus a per-decision
        counter cache filled lazily as decisions occur), and records
        whether ``on_batch`` is a generator function — so the
        per-request path does no f-string formatting and no dict hashing
        on metric names. A stage that advances simulated time must
        therefore write ``on_batch`` as a generator function.
        """
        metrics = self.broker.metrics
        self._pipeline_time = metrics.sample_handle("broker.pipeline.time")
        self._ingress_plan = [
            (
                stage.on_request,
                stage.name,
                metrics.sample_handle(f"broker.stage.{stage.name}.time"),
                {},
            )
            for stage in self._ingress
        ]
        self._dispatch_plan = [
            (
                stage.on_batch,
                stage.name,
                isgeneratorfunction(stage.on_batch),
                metrics.sample_handle(f"broker.stage.{stage.name}.time"),
                {},
            )
            for stage in self._dispatch
        ]

    def _decision_counter(
        self, cache: Dict[str, Any], stage_name: str, decision: str
    ):
        """The counter for one stage decision, memoized on the plan.

        Decisions are cached by their full label (``"depth=3"``), so a
        repeat decision costs one dict hit; the counter name keeps only
        the key before ``=``. The cache is bounded — pathological label
        variety falls back to an uncached handle lookup.
        """
        counter = self.broker.metrics.handle(
            f"broker.stage.{stage_name}.{decision.split('=')[0]}"
        )
        if len(cache) < 512:
            cache[decision] = counter
        return counter

    # -- inspection ------------------------------------------------------

    def describe(self) -> List[str]:
        """The configured stage names, in execution order."""
        return [stage.name for stage in self.stages]

    def __iter__(self) -> Iterator[BrokerStage]:
        return iter(self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    # -- execution -------------------------------------------------------

    def run_ingress(self, ctx: RequestContext) -> StageOutcome:
        """Run the ingress section for one arriving request.

        Ingress stages are synchronous — the simulated clock cannot
        advance inside ``on_request`` — so the timestamp is read once
        for the whole section and every stage record spans zero time,
        exactly as the generic entered/exited bookkeeping would have
        produced. A stage's time sample therefore only ever sees
        ``0.0``: once it holds one, folding another leaves mean,
        minimum and maximum at zero, so it is a count.
        """
        now = self.broker.sim._now
        continue_ = StageOutcome.CONTINUE
        reply_ = StageOutcome.REPLY
        records = ctx.stages
        outcome = continue_
        for on_request, name, time_stats, decisions in self._ingress_plan:
            outcome = on_request(ctx) or continue_
            if time_stats.count:
                time_stats.count += 1
            else:
                time_stats.add(0.0)
            # ``_value_`` skips the enum's DynamicClassAttribute descriptor.
            decision = ctx.take_decision(outcome._value_)
            records.append(StageRecord(name, now, now, decision))
            counter = decisions.get(decision)
            if counter is None:
                counter = self._decision_counter(decisions, name, decision)
            counter.value += 1.0
            if outcome is continue_:
                continue
            if outcome is reply_:
                self._complete(ctx)
            return outcome
        return outcome

    def run_dispatch(self, leader: "QueuedRequest"):
        """Run the dispatch section for one dequeued request.

        A ``yield from`` generator driven by a dispatcher process; the
        batch may grow at the clustering stage.
        """
        broker = self.broker
        sim = broker.sim
        batch = BatchContext(broker, [leader])
        done_ = StageOutcome.DONE
        for on_batch, name, is_generator, time_stats, decisions in self._dispatch_plan:
            entered = sim._now
            outcome = on_batch(batch)
            if is_generator:
                outcome = yield from outcome
            outcome = outcome or StageOutcome.CONTINUE
            exited = sim._now
            time_stats.add(exited - entered)
            value = outcome._value_
            for ctx in batch.contexts:
                decision = ctx.take_decision(value)
                ctx.stages.append(StageRecord(name, entered, exited, decision))
                counter = decisions.get(decision)
                if counter is None:
                    counter = self._decision_counter(decisions, name, decision)
                counter.value += 1.0
            if outcome is done_:
                break
        for ctx in batch.contexts:
            if ctx.reply is None:
                # A custom terminal stage answered out of band (or not
                # at all); there is nothing to stamp as completed.
                continue
            self._complete(ctx, send=False)

    def _complete(self, ctx: RequestContext, send: bool = True) -> None:
        broker = self.broker
        sim = broker.sim
        ctx.completed_at = sim._now
        if send and ctx.reply is not None and ctx.request is not None:
            broker.send_reply(ctx.request, ctx.reply)
        anchor = ctx.received_at if ctx.received_at is not None else ctx.created_at
        self._pipeline_time.add(ctx.completed_at - anchor)
        if sim.obs is not None:
            ctx.add_event(
                sim.now, "pipeline.complete",
                broker=broker.name,
                request_id=ctx.request.request_id if ctx.request else None,
                status=ctx.reply.status.value if ctx.reply is not None else None,
                stages=ctx.stage_names(),
            )

    def __repr__(self) -> str:
        return f"<StagePipeline {' -> '.join(self.describe())}>"


# ---------------------------------------------------------------------------
# Stage plans: three bases, composed with anchored extras
# ---------------------------------------------------------------------------


#: The three base plans: each one's stage classes, in execution order.
_BASE_PLANS: Dict[str, Tuple[type, ...]] = {
    "distributed": (
        ValidateServiceStage, ArrivalStage, CacheLookupStage, AdmissionStage,
        FidelityFallbackStage, EnqueueStage, ClusterStage, ExecuteStage,
        CacheFillStage, ReplyStage,
    ),
    "centralized": (
        ValidateServiceStage, ArrivalStage, CacheLookupStage,
        FidelityFallbackStage, EnqueueStage, ClusterStage, ExecuteStage,
        CacheFillStage, ReplyStage,
    ),
    "fault-tolerant": (
        ValidateServiceStage, ArrivalStage, TimeoutBudgetStage,
        CacheLookupStage, AdmissionStage, FidelityFallbackStage, EnqueueStage,
        ClusterStage, CircuitBreakerStage, RetryStage, FailoverStage,
        FidelityFallbackStage, CacheFillStage, ReplyStage,
    ),
}


def stage_plan(model: str, *extras: BrokerStage) -> List[BrokerStage]:
    """A fresh stage list: the *model* base plan composed with *extras*.

    *model* picks one of three bases:

    * ``"distributed"`` — admission happens at the broker (§III,
      Figure 2);
    * ``"centralized"`` — the same without :class:`AdmissionStage`: the
      front end admits from the brokers' streamed load reports (§IV,
      Figure 4; see :meth:`ServiceBroker.report_load_to
      <repro.core.broker.ServiceBroker.report_load_to>`);
    * ``"fault-tolerant"`` — the distributed plan hardened against
      backend faults: a :class:`TimeoutBudgetStage` at ingress, and
      breaker → retry → failover around execution before a second
      :class:`FidelityFallbackStage` turns what still failed into the
      §III degraded reply.

    An extra whose name occurs once in the base replaces that stage
    (this is how callers set the timeout, breaker and retry settings);
    any other extra goes where its class's :attr:`BrokerStage.anchor`
    says, extras on one anchor in argument order. An anchor naming no
    base stage raises :class:`BrokerError`.
    """
    try:
        plan = [stage_class() for stage_class in _BASE_PLANS[model]]
    except KeyError:
        raise BrokerError(
            f"unknown broker model {model!r}; "
            f"expected one of {sorted(_BASE_PLANS)}"
        ) from None
    names = [stage.name for stage in plan]
    anchored: Dict[Tuple[str, str], List[BrokerStage]] = {}
    for extra in extras:
        if names.count(extra.name) == 1:
            plan[names.index(extra.name)] = extra
            continue
        side, anchor = extra.anchor or ("", "")
        if side not in ("before", "after") or anchor not in names:
            raise BrokerError(
                f"unknown anchor {extra.anchor!r} for stage {extra.name!r}: "
                f"the {model} plan has {names}"
            )
        anchored.setdefault((side, anchor), []).append(extra)
    composed: List[BrokerStage] = []
    for stage in plan:
        composed += anchored.pop(("before", stage.name), ())
        composed.append(stage)
        composed += anchored.pop(("after", stage.name), ())
    return composed


#: The named plans ``repro pipeline --model`` describes:
#: ``name -> (base model, extra stage classes)``, extras at defaults.
NAMED_PLANS: Dict[str, Tuple[str, Tuple[type, ...]]] = {
    "distributed": ("distributed", ()),
    "centralized": ("centralized", ()),
    "fault-tolerant": ("fault-tolerant", ()),
    "sharded": ("distributed", (ShardRouteStage,)),
    "cache-tier": ("distributed", (CacheTierStage, QueryCombineStage)),
}
