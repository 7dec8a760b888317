"""The five workloads, and how a result object becomes plain JSON.

Every workload is one call of a public ``repro.workload`` entry point.
``repro`` is imported only inside :func:`invoke`, so the parent runner
can import this module without ``src/`` on its path and a child can
time the import itself.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, NamedTuple

__all__ = ["WORKLOADS", "Workload", "invoke", "summarise"]


class Workload(NamedTuple):
    """One row of the workload table."""

    function: str
    kwargs: Dict[str, Any]
    #: "closed" (each client waits for its reply) or "open" (scheduled arrivals).
    loop: str
    why: str


WORKLOADS: Dict[str, Workload] = {
    "qos_broker": Workload(
        "run_qos_experiment",
        {"n_clients": 60, "mode": "broker", "duration": 240.0},
        "closed",
        "Paper V.B headline: 60 closed-loop clients through three brokers; "
        "host time spread over net, sim and core, so every layer moves it a little.",
    ),
    "qos_api": Workload(
        "run_qos_experiment",
        {"n_clients": 60, "mode": "api", "duration": 6000.0},
        "closed",
        "Same testbed with no brokers (Fig. 9 baseline): bypasses core, "
        "amplifies net and http.",
    ),
    "cache_read": Workload(
        "run_cache_tier_experiment",
        {"n_clients": 60, "duration": 12.0, "write_fraction": 0.02},
        "closed",
        "Read-mostly Zipf keys over 4 brokers: result cache, shared tier and "
        "materialized views; caches start empty and statistics cover the fill.",
    ),
    "cache_write": Workload(
        "run_cache_tier_experiment",
        {"n_clients": 60, "duration": 6.0, "write_fraction": 0.3},
        "closed",
        "Same deployment with 30% writes: write-behind, overflow, invalidation "
        "and db scans; shows a read-path gain that writes pay for.",
    ),
    "fleet_autoscale": Workload(
        "run_autoscale_experiment",
        {"duration": 360.0},
        "open",
        "Open-loop diurnal 8-80 req/s plus a flash-crowd tenant over the elastic "
        "pool: sharding, throttle, drain, telemetry and SLO engine composed.",
    ),
}


def invoke(name: str, seed: int, scale: float = 1.0, build_only: bool = False):
    """Call workload *name*; *scale* multiplies its simulated duration.

    ``build_only`` runs the same entry point for 1 ms of virtual time,
    which builds the whole deployment and simulates nothing.
    """
    import repro.workload

    workload = WORKLOADS[name]
    kwargs = dict(workload.kwargs, seed=seed)
    kwargs["duration"] = 0.001 if build_only else kwargs["duration"] * scale
    return getattr(repro.workload, workload.function)(**kwargs)


def _stats(sample) -> Dict[str, Any]:
    """Count, moments and percentiles of a ``SummaryStats``."""
    if not sample.count:
        return {"count": 0}
    return {
        "count": sample.count,
        "mean": sample.mean,
        "min": sample.minimum,
        "max": sample.maximum,
        "p50": sample.percentile(50.0),
        "p90": sample.percentile(90.0),
        "p99": sample.percentile(99.0),
    }


def _plain(value: Any) -> Any:
    """*value* as JSON-safe data: every dataclass field, keys as strings."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if hasattr(value, "percentile"):
        return _stats(value)
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def summarise(result) -> Dict[str, Any]:
    """The full simulated result plus latency over all classes merged.

    ``fields`` holds every field of the result dataclass; ``latency``
    holds the per-class response-time statistics under ``"1"``..
    (one class on the cache workloads) and their union under ``"all"``.
    """
    from repro.metrics.stats import SummaryStats

    by_class = getattr(result, "response_times", None) or result.latency
    if not isinstance(by_class, dict):
        by_class = {1: by_class}
    merged = SummaryStats(
        value for level in sorted(by_class) for value in by_class[level].values()
    )
    latency = {str(level): _stats(sample) for level, sample in by_class.items()}
    latency["all"] = _stats(merged)
    return {"fields": _plain(result), "latency": latency}
