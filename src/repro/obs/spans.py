"""Span-based request tracing over the broker's request contexts.

Every request already records a per-stage timeline on its
:class:`~repro.core.pipeline.RequestContext` (the ``stages`` list of
:class:`~repro.core.pipeline.StageRecord`, plus the
created/received/enqueued/dispatched/completed timestamps). This module
turns that timeline — at the moment a request *finishes* — into a tree
of :class:`Span` objects: client wait, network transit, per-stage
ingress and dispatch work, queue residency, backend service time, and
reply propagation, with retry/failover attribution carried as span
attributes. The request events the broker pipeline noted on the
context (arrival, cache hits, drops, sheds, dispatch, completion)
become span events (:class:`SpanEvent`) on the request's root span:
the context is the one place a request's events are recorded.

The overhead contract (see DESIGN.md §10):

* **Disabled** (the default): the only cost on any hot path is one
  attribute check — ``sim.obs is None`` — at the few completion hooks
  and request-event sites.
  Nothing is allocated, recorded, or branched beyond that, so PR 3's
  throughput and the byte-identical seeded outputs are preserved.
* **Enabled**: trace building is purely observational. It never creates
  simulation events, advances the clock, or draws randomness, so seeded
  runs produce identical results with tracing on or off; only wall-clock
  time changes.

Enable tracing by attaching a :class:`TraceCollector` to a simulation
(``collector.attach(sim)``) before the workload runs; every scenario in
:mod:`repro.workload.scenarios` accepts an ``obs=`` collector argument.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from ..metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.pipeline import RequestContext
    from ..sim.core import Simulation

__all__ = [
    "SpanEvent",
    "Span",
    "Hop",
    "Trace",
    "TraceCollector",
    "trace_from_context",
]

#: Containment tolerance when nesting spans (sim-clock floats).
_EPS = 1e-9


class SpanEvent:
    """A timestamped point event attached to a span.

    The broker pipeline notes request events (``broker.arrival``,
    ``broker.dispatch``, ``pipeline.complete``, ...) on the request's
    context while a collector is attached (see
    :meth:`~repro.core.pipeline.RequestContext.add_event`);
    :func:`trace_from_context` puts them on the request's root span in
    emission order.
    """

    __slots__ = ("time", "name", "fields")

    def __init__(
        self, time: float, name: str, fields: Optional[Dict[str, Any]] = None
    ) -> None:
        self.time = time
        self.name = name
        self.fields: Dict[str, Any] = fields if fields is not None else {}

    def __repr__(self) -> str:
        return f"<SpanEvent {self.name} @ {self.time:.6f}>"


class Span:
    """One named interval of a request's life, in simulated seconds.

    Spans nest: ``children`` are fully contained sub-intervals (a
    dispatch stage inside the broker span, a broker call inside a
    front-end application span). ``attrs`` carries attribution (stage
    decision, request id); ``events`` the request events noted on the
    context.
    """

    __slots__ = (
        "name",
        "category",
        "start",
        "end",
        "parent",
        "children",
        "attrs",
        "events",
    )

    def __init__(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.start = start
        self.end = end
        self.parent: Optional["Span"] = None
        self.children: List["Span"] = []
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self.events: List[SpanEvent] = []

    @property
    def duration(self) -> float:
        """Simulated seconds covered by the span."""
        return self.end - self.start

    def add_child(self, span: "Span") -> "Span":
        """Append *span* as a child (setting its parent) and return it."""
        span.parent = self
        self.children.append(span)
        return span

    def walk(self) -> Iterator["Span"]:
        """Pre-order iteration over this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def contains(self, other: "Span") -> bool:
        """Whether *other*'s interval lies within this span's."""
        return (
            self.start - _EPS <= other.start and other.end <= self.end + _EPS
        )

    def __repr__(self) -> str:
        return (
            f"<Span {self.name} [{self.start:.6f}, {self.end:.6f}] "
            f"children={len(self.children)}>"
        )


class Hop:
    """One segment of a request's end-to-end waterfall.

    A trace's hops partition its root span's interval with no gaps
    or overlaps — consecutive hops share a boundary timestamp — so the
    hop durations telescope: their sum equals the end-to-end latency
    (within float tolerance).
    """

    __slots__ = ("name", "start", "end")

    def __init__(self, name: str, start: float, end: float) -> None:
        self.name = name
        self.start = start
        self.end = end

    @property
    def duration(self) -> float:
        """Simulated seconds covered by the hop."""
        return self.end - self.start

    def __repr__(self) -> str:
        return f"<Hop {self.name} {self.duration * 1000:.3f}ms>"


class Trace:
    """A single request's complete trace: span tree, hops, metadata.

    ``root`` spans the request's whole life; ``hops`` is the flattened
    waterfall (see :class:`Hop`); ``children`` holds the traces of
    nested broker calls when the request originated at the front end
    (their root spans also appear inside this trace's span tree).
    """

    __slots__ = (
        "trace_id",
        "request_id",
        "origin",
        "broker",
        "backend",
        "qos_level",
        "status",
        "from_cache",
        "fidelity",
        "root",
        "hops",
        "children",
        "annotations",
    )

    def __init__(
        self,
        trace_id: int,
        root: Span,
        hops: List[Hop],
        request_id: Optional[int] = None,
        origin: str = "",
        broker: str = "",
        backend: str = "",
        qos_level: int = 1,
        status: str = "",
        from_cache: bool = False,
        fidelity: float = 1.0,
        annotations: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.root = root
        self.hops = hops
        self.request_id = request_id
        self.origin = origin
        self.broker = broker
        self.backend = backend
        self.qos_level = qos_level
        self.status = status
        self.from_cache = from_cache
        self.fidelity = fidelity
        self.children: List["Trace"] = []
        self.annotations: Dict[str, Any] = (
            annotations if annotations is not None else {}
        )

    @property
    def start(self) -> float:
        """When the request entered the system."""
        return self.root.start

    @property
    def duration(self) -> float:
        """End-to-end simulated latency."""
        return self.root.end - self.root.start

    def spans(self) -> List[Span]:
        """Every span of the trace (pre-order, root first)."""
        return list(self.root.walk())

    def validate(self) -> List[str]:
        """Check the span-tree invariants; returns violations (empty = ok).

        Invariants: every span is closed with ``end >= start``, every
        child lies within its parent (so no span closes before its
        children), and siblings are ordered by start time.
        """
        problems: List[str] = []
        for span in self.root.walk():
            if span.end is None:  # pragma: no cover - constructor forbids it
                problems.append(f"{span.name}: never closed")
                continue
            if span.end < span.start - _EPS:
                problems.append(
                    f"{span.name}: closes before it opens "
                    f"({span.end} < {span.start})"
                )
            previous_start = None
            for child in span.children:
                if not span.contains(child):
                    problems.append(
                        f"{span.name}: closes before child {child.name} "
                        f"([{span.start}, {span.end}] vs "
                        f"[{child.start}, {child.end}])"
                    )
                if previous_start is not None and child.start < previous_start:
                    problems.append(
                        f"{span.name}: children out of order at {child.name}"
                    )
                previous_start = child.start
        return problems

    def __repr__(self) -> str:
        return (
            f"<Trace #{self.trace_id} {self.origin or '?'} "
            f"{self.duration * 1000:.3f}ms spans={len(self.spans())}>"
        )


def _cut(hops: List[Hop], name: str, prev: float, at: Optional[float]) -> float:
    """Append one telescoping hop ending at *at*; returns the new prev."""
    if at is None:
        return prev
    if at < prev:
        at = prev
    hops.append(Hop(name, prev, at))
    return at


def _broker_hops(ctx: "RequestContext", end: float) -> List[Hop]:
    """The waterfall for a request that traversed a broker pipeline."""
    hops: List[Hop] = []
    prev = ctx.created_at
    prev = _cut(hops, "net.request", prev, ctx.received_at)
    if ctx.enqueued_at is not None:
        prev = _cut(hops, "ingress", prev, ctx.enqueued_at)
        if ctx.dispatched_at is not None:
            prev = _cut(hops, "queued", prev, ctx.dispatched_at)
            prev = _cut(hops, "service", prev, ctx.completed_at)
        else:
            # Never dispatched (breaker open, deadline): retry backoff
            # and the fidelity fallback happened between these cuts.
            prev = _cut(hops, "dispatch", prev, ctx.completed_at)
    else:
        # Answered at ingress: cache hit, admission drop, validation.
        prev = _cut(hops, "broker", prev, ctx.completed_at)
    if end > prev:
        _cut(hops, "net.reply", prev, end)
    return hops


def _frontend_hops(ctx: "RequestContext", end: float) -> List[Hop]:
    """The waterfall for a front-end-originated (HTTP) request."""
    hops: List[Hop] = []
    prev = ctx.created_at
    for record in ctx.stages:
        if record.stage == "client":
            continue
        if record.exited <= prev:
            continue
        if record.entered > prev:
            hops.append(Hop("idle", prev, record.entered))
            prev = record.entered
        hops.append(Hop(record.stage, prev, record.exited))
        prev = record.exited
    if end > prev or not hops:
        hops.append(Hop("tail" if hops else "request", prev, end))
    return hops


def trace_from_context(ctx: "RequestContext", trace_id: int = 0) -> Trace:
    """Build a :class:`Trace` from a finished request context.

    A pure function over the context's already-recorded timeline: it
    derives spans (network transit, broker residency, per-stage work,
    queue wait, reply propagation), nests them by interval containment,
    attaches the traces of nested broker calls (stored by the collector
    under the ``"obs.children"`` annotation) and the request events
    (noted under ``"obs.events"``), and computes the telescoping
    waterfall hops.
    """
    records = ctx.stages
    client_record = None
    for record in reversed(records):
        if record.stage == "client":
            client_record = record
            break
    completed = ctx.completed_at
    if client_record is not None:
        end = client_record.exited
    elif completed is not None:
        end = completed
    else:
        end = max((r.exited for r in records), default=ctx.created_at)

    spans: List[Span] = []
    if ctx.received_at is not None:
        # A broker-side context: net transit, broker residency, stages.
        # A request re-sent by a broker (a draining unit handing its
        # backlog to a peer) records one "net" stage per leg.
        net_records = [r for r in records if r.stage == "net"]
        for index, record in enumerate(net_records):
            spans.append(
                Span(
                    "net.request" if index == 0 else "net.forward",
                    "net",
                    record.entered,
                    record.exited,
                )
            )
        broker_end = completed if completed is not None else end
        # The broker's name is used verbatim (default names already read
        # "broker:<service>").
        spans.append(
            Span(ctx.broker or "broker", "broker", ctx.received_at, broker_end)
        )
        for record in records:
            if record.stage in ("net", "client"):
                continue
            attrs = {"decision": record.decision} if record.decision else None
            spans.append(
                Span(
                    f"stage.{record.stage}",
                    "stage",
                    record.entered,
                    record.exited,
                    attrs=attrs,
                )
            )
        if ctx.enqueued_at is not None:
            queue_end = (
                ctx.dispatched_at if ctx.dispatched_at is not None else broker_end
            )
            spans.append(Span("queue", "queue", ctx.enqueued_at, queue_end))
        if completed is not None and end > completed + _EPS:
            spans.append(Span("net.reply", "net", completed, end))
        hops = _broker_hops(ctx, end)
    else:
        # A front-end HTTP context: admission/process-wait/app records.
        for record in records:
            if record.stage == "client":
                continue
            attrs = {"decision": record.decision} if record.decision else None
            spans.append(
                Span(
                    record.stage,
                    "frontend",
                    record.entered,
                    record.exited,
                    attrs=attrs,
                )
            )
        hops = _frontend_hops(ctx, end)

    annotations: Dict[str, Any] = {}
    child_traces: List[Trace] = []
    events: List[SpanEvent] = []
    for key, value in ctx.annotations.items():
        if key == "obs.children":
            child_traces = value
        elif key == "obs.events":
            events = [SpanEvent(*event) for event in value]
        else:
            annotations[key] = value
    for record in records:
        if record.decision.startswith("depth="):
            try:
                annotations["queue_depth"] = int(record.decision[6:])
            except ValueError:  # pragma: no cover - labels are generated
                pass
            break

    request_id = ctx.request.request_id if ctx.request is not None else None
    reply = ctx.reply
    if reply is not None:
        status = reply.status.value
        from_cache = reply.from_cache
        fidelity = reply.fidelity
    else:
        status = str(annotations.get("obs.status", ""))
        from_cache = False
        fidelity = 1.0

    lo = min([ctx.created_at] + [span.start for span in spans])
    hi = max([end] + [span.end for span in spans])
    for child in child_traces:
        lo = min(lo, child.root.start)
        hi = max(hi, child.root.end)
        spans.append(child.root)
    root_attrs: Dict[str, Any] = {"origin": ctx.origin}
    if request_id is not None:
        root_attrs["request_id"] = request_id
    root = Span("request", "request", lo, hi, attrs=root_attrs)
    root.events = events

    # Nest by interval containment: sorted by (start, -duration), a
    # stack of enclosing spans assigns each span the tightest parent.
    # Zero-width spans never adopt children (ingress stages all record
    # the same instant; they are siblings, not a chain).
    order = sorted(
        range(len(spans)),
        key=lambda i: (spans[i].start, spans[i].start - spans[i].end, i),
    )
    stack: List[Span] = [root]
    for index in order:
        span = spans[index]
        while len(stack) > 1 and not stack[-1].contains(span):
            stack.pop()
        stack[-1].add_child(span)
        if span.end > span.start:
            stack.append(span)

    trace = Trace(
        trace_id,
        root,
        hops,
        request_id=request_id,
        origin=ctx.origin,
        broker=ctx.broker,
        backend=ctx.backend,
        qos_level=ctx.qos_level,
        status=status,
        from_cache=from_cache,
        fidelity=fidelity,
        annotations=annotations,
    )
    trace.children = list(child_traces)
    return trace


class TraceCollector:
    """Collects finished request traces and latency histograms.

    Attach to a simulation with :meth:`attach`; the instrumented
    completion points (broker client replies, front-end responses) then
    call :meth:`finish` with the finished context. Roots are sampled
    deterministically — every ``sample``-th root request is retained,
    counted from the first — and retention is bounded by ``limit`` so
    long runs cannot exhaust memory (``dropped`` counts the overflow).

    Histograms are fed for *every* finished request regardless of
    sampling: per stage (``obs.stage.<name>``), per QoS class
    (``obs.latency.qos<level>`` plus ``obs.latency.all``), and per
    backend (``obs.backend.<name>``), all in the collector's
    ``metrics`` registry.
    """

    def __init__(
        self,
        sample: int = 1,
        limit: int = 10_000,
    ) -> None:
        if sample < 1:
            raise ValueError(f"sample must be >= 1: {sample!r}")
        if limit < 1:
            raise ValueError(f"limit must be >= 1: {limit!r}")
        self.sample = sample
        self.limit = limit
        self.metrics = MetricsRegistry()
        self.traces: List[Trace] = []
        self.roots_seen = 0
        self.dropped = 0
        self._next_id = 1

    def attach(self, sim: "Simulation") -> "TraceCollector":
        """Enable tracing on *sim* and return self.

        Sets ``sim.obs``, the one-attribute-check hook the hot paths
        test before finishing a trace or noting a request event.
        """
        sim.obs = self
        return self

    def finish(
        self, ctx: "RequestContext", status: Optional[str] = None
    ) -> Optional[Trace]:
        """Record a finished request context.

        Called from the instrumented completion points (only when
        tracing is enabled — the hot path guards with ``sim.obs is not
        None``). Contexts with a ``parent`` are nested broker calls:
        their trace is stashed on the parent context and folded into
        the parent's trace when it finishes. Returns the built trace
        for retained roots, else ``None``.
        """
        if status is not None:
            ctx.annotations["obs.status"] = status
        self._observe(ctx)
        parent = ctx.parent
        if parent is not None:
            trace = trace_from_context(ctx)
            children = parent.annotations.get("obs.children")
            if children is None:
                children = parent.annotations["obs.children"] = []
            children.append(trace)
            return None
        self.roots_seen += 1
        if (self.roots_seen - 1) % self.sample != 0:
            return None
        if len(self.traces) >= self.limit:
            self.dropped += 1
            return None
        trace = trace_from_context(ctx, trace_id=self._next_id)
        self._next_id += 1
        self.traces.append(trace)
        return trace

    def _observe(self, ctx: "RequestContext") -> None:
        """Feed the per-stage / per-QoS / per-backend histograms."""
        metrics = self.metrics
        for record in ctx.stages:
            if record.stage == "client":
                continue
            metrics.histogram_handle(f"obs.stage.{record.stage}").add(
                record.duration
            )
        completed = ctx.completed_at
        if completed is not None:
            elapsed = completed - ctx.created_at
            metrics.histogram_handle("obs.latency.all").add(elapsed)
            metrics.histogram_handle(f"obs.latency.qos{ctx.qos_level}").add(
                elapsed
            )
            if ctx.backend and ctx.dispatched_at is not None:
                metrics.histogram_handle(f"obs.backend.{ctx.backend}").add(
                    completed - ctx.dispatched_at
                )

    # -- inspection ----------------------------------------------------

    def slowest(self, k: int = 5) -> List[Trace]:
        """The *k* slowest retained traces, slowest first (stable)."""
        ranked = sorted(
            self.traces, key=lambda t: (-t.duration, t.trace_id)
        )
        return ranked[: max(0, k)]

    def span_count(self) -> int:
        """Total spans across all retained traces."""
        return sum(len(trace.spans()) for trace in self.traces)

    def __len__(self) -> int:
        return len(self.traces)

    def __repr__(self) -> str:
        return (
            f"<TraceCollector traces={len(self.traces)} "
            f"roots={self.roots_seen} sample=1/{self.sample}>"
        )
