"""Analytical models used to validate and size the simulations."""

from .._lazy import lazy_exports

_EXPORTS = {
    "QueueMetrics": "queueing",
    "ClosedLoopMetrics": "queueing",
    "mm1_metrics": "queueing",
    "mmc_metrics": "queueing",
    "erlang_c": "queueing",
    "mva_single_station": "queueing",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
