"""The ``repro obs`` inspection toolkit.

Runs an existing scenario with tracing enabled and reports where the
time went: collection summary (traces, spans and the request events
the broker pipeline noted on them), per-stage / per-QoS / per-backend
latency histograms, the K slowest request waterfalls with per-hop
attribution, and optional Chrome-trace / JSONL exports. See DESIGN.md
§10 for the span model and the overhead contract.
"""

from __future__ import annotations

from typing import List, Optional

from ..metrics import render_histograms
from .export import validate_chrome_trace, write_chrome_trace, write_jsonl
from .histogram import DEFAULT_LATENCY_EDGES
from .spans import TraceCollector
from .timeline import render_trace

__all__ = ["describe_obs", "run_obs_command"]

#: Scenario names the CLI accepts, with their quick-mode parameters.
SCENARIOS = ("qos", "fig7", "faults")


def describe_obs() -> str:
    """Explain the span model, overhead contract, and exporters."""
    edges = DEFAULT_LATENCY_EDGES
    return "\n".join(
        [
            "repro obs — end-to-end request tracing",
            "",
            "Span model: each finished request's context timeline becomes a",
            "  trace of nested spans — net transit, broker residency, every",
            "  ingress/dispatch stage, queue wait, backend service, reply",
            "  propagation — plus telescoping waterfall hops whose durations",
            "  sum to the end-to-end latency. Front-end requests nest the",
            "  traces of their broker calls.",
            "",
            "Overhead contract: tracing disabled costs one attribute check",
            "  (`sim.obs is None`) per completion point; enabled tracing is",
            "  purely observational (no events, no clock, no RNG), so seeded",
            "  outputs are identical with tracing on or off.",
            "",
            "Histograms: fixed log-spaced buckets "
            f"({edges[0]:g}s .. {edges[-1]:g}s, {len(edges)} edges + overflow),",
            "  keyed obs.stage.<name>, obs.latency.qos<level>,",
            "  obs.backend.<name>; p50/p90/p99/p99.9 by interpolation.",
            "",
            "Exporters: --export FILE writes Chrome trace_event JSON",
            "  (open in chrome://tracing or Perfetto); --jsonl FILE writes",
            "  one JSON object per span; the terminal shows the --slowest K",
            "  waterfalls with per-hop attribution.",
            "",
            "Scenarios: --scenario qos (the §V.B macro testbed, default),",
            "  fig7 (request clustering), faults (failure recovery).",
            "  --trace-sample N keeps every Nth request; --quick shrinks",
            "  the run for smoke tests.",
        ]
    )


def _run_scenario(
    scenario: str,
    collector: TraceCollector,
    clients: int,
    duration: float,
    degree: int,
    seed: int,
) -> str:
    """Run one named scenario with *collector* attached; returns a label."""
    from ..workload.scenarios import (
        run_clustering_experiment,
        run_failure_recovery_experiment,
        run_qos_experiment,
    )

    if scenario == "qos":
        run_qos_experiment(
            clients, mode="broker", duration=duration, seed=seed, obs=collector
        )
        return f"qos (§V.B macro: {clients} clients, {duration:g}s)"
    if scenario == "fig7":
        run_clustering_experiment(degree, seed=seed, obs=collector)
        return f"fig7 (clustering, degree {degree})"
    if scenario == "faults":
        run_failure_recovery_experiment(
            duration=duration,
            first_crash_at=min(10.0, duration / 4.0),
            seed=seed,
            obs=collector,
        )
        return f"faults (failure recovery, {duration:g}s)"
    raise ValueError(
        f"unknown scenario {scenario!r}; expected one of {SCENARIOS}"
    )


def run_obs_command(
    scenario: str = "qos",
    clients: int = 60,
    duration: float = 120.0,
    degree: int = 8,
    trace_sample: int = 1,
    slowest: int = 5,
    export: Optional[str] = None,
    jsonl: Optional[str] = None,
    quick: bool = False,
    seed: int = 2026,
) -> str:
    """The ``repro obs`` implementation; returns the printed report.

    Runs *scenario* with a :class:`~repro.obs.spans.TraceCollector`
    attached (sampling every *trace_sample*-th root request) and renders
    the report.
    """
    if quick:
        clients = min(clients, 12)
        duration = min(duration, 20.0)
        degree = min(degree, 4)
    collector = TraceCollector(sample=trace_sample)
    label = _run_scenario(scenario, collector, clients, duration, degree, seed)
    events = sum(
        len(span.events) for trace in collector.traces for span in trace.spans()
    )

    lines: List[str] = [
        f"obs report — scenario {label}, seed {seed}, "
        f"sample 1/{trace_sample}",
        f"  traces: {len(collector)} retained of {collector.roots_seen} "
        f"root requests ({collector.span_count()} spans, "
        f"{events} span events"
        + (f", {collector.dropped} dropped at limit" if collector.dropped else "")
        + ")",
    ]

    for prefix, title in (
        ("obs.latency.", "end-to-end latency per QoS class (ms)"),
        ("obs.stage.", "per-stage latency (ms)"),
        ("obs.backend.", "backend service time (ms)"),
    ):
        histograms = collector.metrics.histograms(prefix)
        if histograms:
            lines.append("")
            lines.append(render_histograms(histograms, title=title))

    ranked = collector.slowest(slowest)
    if ranked:
        lines.append("")
        lines.append(f"slowest {len(ranked)} request(s):")
        for trace in ranked:
            lines.append("")
            lines.append(render_trace(trace, events=False))

    if export:
        doc = write_chrome_trace(collector.traces, export)
        problems = validate_chrome_trace(doc)
        lines.append("")
        lines.append(
            f"chrome trace: {export} ({len(doc['traceEvents'])} events, "
            f"schema {'ok' if not problems else problems})"
        )
    if jsonl:
        written = write_jsonl(collector.traces, jsonl)
        lines.append(f"jsonl spans: {jsonl} ({written} lines)")
    return "\n".join(lines)
