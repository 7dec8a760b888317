"""Observability: tracing, histograms, in-flight telemetry, exporters.

The obs package rides the existing per-request timeline
(:class:`~repro.core.pipeline.RequestContext`) to give every request a
trace of nested spans, feeds fixed-bucket latency histograms per stage
/ QoS class / backend, and exports Chrome ``trace_event`` JSON, JSONL
span dumps, and terminal waterfalls. ``python -m repro obs`` is the
CLI; DESIGN.md §10 documents the span model and the
one-attribute-check overhead contract.

On top of that post-hoc layer sits the in-flight telemetry tier
(``python -m repro telemetry``): a
:class:`~repro.obs.telemetry.TelemetryScraper` sampling registries and
gauges into ring-buffer :class:`~repro.obs.telemetry.TimeSeries`, a
declarative :class:`~repro.obs.slo.SloEngine` with multi-window
burn-rate alerts, a terminal sparkline dashboard, and telemetry
JSONL / Prometheus exporters. DESIGN.md §15 documents the scrape
model and its determinism contract.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Span": "spans",
    "SpanEvent": "spans",
    "Hop": "spans",
    "Trace": "spans",
    "TraceCollector": "spans",
    "trace_from_context": "spans",
    "LatencyHistogram": "histogram",
    "DEFAULT_LATENCY_EDGES": "histogram",
    "render_waterfall": "timeline",
    "render_attribution": "timeline",
    "render_trace": "timeline",
    "critical_path": "timeline",
    "to_chrome_trace": "export",
    "write_chrome_trace": "export",
    "to_jsonl": "export",
    "write_jsonl": "export",
    "validate_chrome_trace": "export",
    "describe_obs": "inspect",
    "run_obs_command": "inspect",
    "TimeSeries": "telemetry",
    "ScrapeRecord": "telemetry",
    "TelemetryScraper": "telemetry",
    "describe_telemetry": "telemetry",
    "run_telemetry_command": "telemetry",
    "SloSpec": "slo",
    "BurnAlert": "slo",
    "SloEngine": "slo",
    "qos_slos": "slo",
    "chaos_slos": "slo",
    "render_slo_table": "slo",
    "render_alert_timeline": "slo",
    "sparkline": "dashboard",
    "Panel": "dashboard",
    "default_panels": "dashboard",
    "render_dashboard": "dashboard",
    "live_panel": "dashboard",
    "telemetry_to_jsonl": "export",
    "write_telemetry_jsonl": "export",
    "validate_telemetry_jsonl": "export",
    "to_prometheus": "export",
    "write_prometheus": "export",
    "validate_prometheus": "export",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
