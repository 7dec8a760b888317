"""Metrics: online statistics, counters, histograms, report rendering."""

from .._lazy import lazy_exports

_EXPORTS = {
    "MetricsRegistry": "collector",
    "Counter": "collector",
    "Moments": "stats",
    "SummaryStats": "stats",
    "LatencyHistogram": "histogram",
    "DEFAULT_LATENCY_EDGES": "histogram",
    "render_table": "report",
    "render_histograms": "report",
    "format_cell": "report",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
