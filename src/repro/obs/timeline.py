"""Terminal waterfall and critical-path rendering for request traces.

The inspection side of the obs layer: given a
:class:`~repro.obs.spans.Trace`, :func:`render_waterfall` draws the
telescoping per-hop timeline as aligned ASCII bars (the hop durations
sum to the end-to-end latency by construction),
:func:`render_attribution` produces the one-line "where did the time
go" sentence (queue depth, broker, retries, failover, fidelity), and
:func:`critical_path` walks the span tree along its longest children.
``repro obs --slowest K`` prints :func:`render_trace` for the K
slowest retained traces.
"""

from __future__ import annotations

from typing import List

from .spans import Span, Trace

__all__ = [
    "render_waterfall",
    "render_attribution",
    "critical_path",
    "render_trace",
]

#: Columns of a waterfall's bar area.
BAR_WIDTH = 40


def _ms(seconds: float) -> str:
    """Milliseconds with enough precision for sub-ms hops."""
    return f"{seconds * 1000:.3f}"


def render_waterfall(trace: Trace) -> str:
    """Render *trace*'s hops as an aligned ASCII waterfall.

    Each line shows one hop's name, duration, and a bar positioned at
    its offset within the request; the final line shows the hop sum,
    which equals the end-to-end latency within float tolerance.
    """
    total = trace.duration
    identity = (
        f"request {trace.request_id}"
        if trace.request_id is not None
        else f"trace {trace.trace_id}"
    )
    where = trace.origin or "?"
    if trace.broker:
        where += f" -> {trace.broker}"
    if trace.backend:
        where += f" -> {trace.backend}"
    lines = [
        f"{identity}  qos{trace.qos_level}  {trace.status or '-'}  "
        f"{_ms(total)} ms end-to-end  ({where})"
    ]
    for hop in trace.hops:
        if total > 0:
            lead = int(BAR_WIDTH * (hop.start - trace.start) / total)
            fill = round(BAR_WIDTH * hop.duration / total)
            if hop.duration > 0 and fill == 0:
                fill = 1
            bar = " " * lead + "#" * fill
        else:
            bar = ""
        lines.append(
            f"  {hop.name:<22} {_ms(hop.duration):>10} ms  |{bar}"
        )
    hop_sum = sum(hop.duration for hop in trace.hops)
    lines.append(f"  {'sum':<22} {_ms(hop_sum):>10} ms")
    return "\n".join(lines)


def render_attribution(trace: Trace) -> str:
    """One sentence attributing the request's latency.

    For example: ``queued 41.0 ms at depth 12 at broker broker2,
    2 retries, served stale (fidelity 0.5)``. Front-end traces with no
    broker of their own summarize their slowest nested broker call.
    """
    if not trace.broker and trace.children:
        slowest = max(trace.children, key=lambda child: child.duration)
        return f"slowest call: {render_attribution(slowest)}"
    parts: List[str] = []
    queued = next((hop for hop in trace.hops if hop.name == "queued"), None)
    if queued is not None and queued.duration > 0:
        clause = f"queued {queued.duration * 1000:.1f} ms"
        depth = trace.annotations.get("queue_depth")
        if depth:
            clause += f" at depth {depth}"
        parts.append(clause)
    if trace.broker:
        parts.append(f"at broker {trace.broker}")
    retries = trace.annotations.get("obs.retries")
    if retries:
        parts.append(f"{retries} retr" + ("y" if retries == 1 else "ies"))
    failover = trace.annotations.get("obs.failover")
    if failover in ("recovered", "failed"):
        parts.append(f"failover {failover}")
    status = trace.status
    if status == "ok":
        parts.append(
            "served from cache" if trace.from_cache else "served full-fidelity"
        )
    elif status == "degraded":
        parts.append(f"served stale (fidelity {trace.fidelity:g})")
    elif status == "dropped":
        parts.append("dropped (system busy)")
    elif status == "error":
        parts.append("error reply")
    elif status:
        parts.append(f"status {status}")
    return ", ".join(parts) if parts else "no attribution recorded"


def critical_path(trace: Trace) -> List[Span]:
    """The greedy longest-child chain from the root, root first.

    At each level the child with the largest duration is followed —
    the spans that, shortened, would most reduce the end-to-end
    latency.
    """
    span = trace.root
    path = [span]
    while span.children:
        best = max(span.children, key=lambda child: (child.duration, child.start))
        if best.duration <= 0:
            # Only zero-width children left (instantaneous ingress
            # stages); descending further adds no attribution.
            break
        span = best
        path.append(span)
    return path


def render_trace(trace: Trace, events: bool = False) -> str:
    """The full terminal view of one trace.

    Waterfall, critical path, and the attribution sentence; pass
    ``events=True`` to also list the span events (the request events
    the broker pipeline noted) in time order.
    """
    lines = [render_waterfall(trace)]
    path = critical_path(trace)
    if len(path) > 1:
        chain = " > ".join(span.name for span in path)
        lines.append(f"  critical path: {chain} ({_ms(path[-1].duration)} ms)")
    lines.append(f"  {render_attribution(trace)}")
    if events:
        all_events = [
            event for span in trace.root.walk() for event in span.events
        ]
        for event in sorted(all_events, key=lambda e: e.time):
            lines.append(f"    [{event.time:12.6f}] {event.name}")
    return "\n".join(lines)
