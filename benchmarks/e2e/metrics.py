"""Metric names, units, directions and bounds, and how each is derived.

Two kinds of number. *Host* metrics are what the simulator costs its
user (host seconds, noisy). *Simulated* metrics are what the modelled
broker fleet delivers (virtual seconds, unit ``sim_s``): for a fixed
commit and seed they repeat exactly, so ``exact`` is set and
``run.py --compare`` demands equality.

``END_TO_END`` is what ``BENCHMARK.json`` bounds; ``PER_LAYER`` is the
unbounded rest. Every function here works on the plain dicts a child
prints, never on ``repro`` objects.
"""

from __future__ import annotations

import os
import statistics
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from workloads import WORKLOADS

__all__ = [
    "LAYERS", "layer_of", "END_TO_END", "PER_LAYER", "SPECS", "Metric", "quartiles",
    "operations", "simulated_metrics", "host_metrics", "trace_metrics",
]


#: The ``repro`` sub-packages the workloads execute, plus ``other``
#: (builtins, stdlib, top-level ``repro`` modules) so shares sum to 1.
LAYERS = (
    "sim", "net", "core", "frontend", "http", "db", "metrics", "obs", "workload", "other",
)


def layer_of(filename: str, package_root: str) -> str:
    """The layer owning source file *filename* of the package at *package_root*."""
    prefix = package_root.rstrip(os.sep) + os.sep
    if filename.startswith(prefix):
        head = filename[len(prefix):].split(os.sep, 1)[0]
        if head in LAYERS:
            return head
    return "other"


class Metric(NamedTuple):
    """One metric's contract."""

    name: str
    unit: str
    better: str
    #: Share of the baseline median by which it may worsen; None = unbounded.
    bound: Optional[float]
    #: Repeats exactly for a fixed commit and seed.
    exact: bool


END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25, False),
    Metric("sim_req_per_host_s", "req/s", "higher", 0.25, False),
    Metric("host_peak_rss_mb", "MiB", "lower", 0.08, False),
    Metric("sim_goodput_rps", "req/sim_s", "higher", 0.06, True),
    Metric("sim_premium_mean_s", "sim_s", "lower", 0.12, True),
    Metric("sim_full_fidelity_ratio", "ratio", "higher", 0.15, True),
    Metric("sim_answered_ratio", "ratio", "higher", 0.02, True),
]


def _per_layer() -> List[Metric]:
    out = [
        # Simulated, exact, but constant or zero on some workloads or too
        # seed-sensitive for a bound of at most 25% (see README).
        Metric("sim_mean_s", "sim_s", "lower", None, True),
        Metric("sim_p50_s", "sim_s", "lower", None, True),
        Metric("sim_p99_s", "sim_s", "lower", None, True),
        Metric("sim_premium_p90_s", "sim_s", "lower", None, True),
        Metric("sim_degraded_ratio", "ratio", "lower", None, True),
        Metric("sim_fail_ratio", "ratio", "lower", None, True),
    ]
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower", None, False))
        out.append(Metric(f"{layer}.share", "ratio", "lower", None, False))
        # Calls outside repro (GC, stdlib) are not exactly repeatable.
        out.append(Metric(f"{layer}.calls_per_req", "1/req", "lower", None, layer != "other"))
    out += [
        Metric("trace.overhead_ratio", "ratio", "lower", None, False),
        Metric("trace.calls_per_req", "1/req", "lower", None, False),
        Metric("workload.requests", "count", "higher", None, True),
        Metric("workload.sim_duration_s", "sim_s", "higher", None, True),
        Metric("workload.repeat_wall_s.p25", "s", "lower", None, False),
        Metric("workload.repeat_wall_s.p75", "s", "lower", None, False),
        Metric("workload.host_cpu_s", "s", "lower", None, False),
        Metric("frontend.rejected_ratio", "ratio", "lower", None, True),
    ]
    for stat in ("mean_s", "p90_s"):
        for level in (1, 2, 3):
            out.append(Metric(f"frontend.class{level}.{stat}", "sim_s", "lower", None, True))
    for level in (1, 2, 3):
        out.append(Metric(f"core.admission.drop_ratio.class{level}", "ratio", "lower", None, True))
    for level in (1, 2, 3):
        out.append(Metric(f"core.full_fidelity_ratio.class{level}", "ratio", "higher", None, True))
    out += [
        Metric("core.cache.local_hit_ratio", "ratio", "higher", None, True),
        Metric("core.cachetier.hit_ratio", "ratio", "higher", None, True),
        Metric("core.cache.served_ratio", "ratio", "higher", None, True),
        Metric("core.combine.yields_per_req", "1/req", "higher", None, True),
        Metric("core.writebehind.accepted_ratio", "ratio", "higher", None, True),
        Metric("core.writebehind.overflow_ratio", "ratio", "lower", None, True),
        Metric("db.statements_per_req", "1/req", "lower", None, True),
        Metric("db.writes_per_req", "1/req", "lower", None, True),
        Metric("db.view_hits_per_req", "1/req", "higher", None, True),
        Metric("core.autoscale.scale_outs", "count", "lower", None, True),
        Metric("core.autoscale.scale_ins", "count", "lower", None, True),
        Metric("core.autoscale.drains_completed", "count", "higher", None, True),
        Metric("core.autoscale.handoffs", "count", "lower", None, True),
        Metric("core.autoscale.mean_pool_size", "count", "lower", None, True),
        Metric("core.throttle.refused_ratio", "ratio", "lower", None, True),
        Metric("core.shed.dropped_ratio", "ratio", "lower", None, True),
        Metric("obs.slo.alerts", "count", "lower", None, True),
        Metric("obs.slo.blocked_scale_ins", "count", "lower", None, True),
    ]
    return out


PER_LAYER: List[Metric] = _per_layer()
SPECS: Dict[str, Metric] = {metric.name: metric for metric in END_TO_END + PER_LAYER}


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, p25, p75 and sample count of *values*."""
    if len(values) < 2:
        p25 = p75 = values[0]
    else:
        p25, _, p75 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "p25": p25, "p75": p75, "n": len(values)}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Operations(NamedTuple):
    """Request ledger of one simulated run."""

    requests: int
    answered: int
    full_fidelity: int
    attempted: int
    #: Finished but not answered, deliberate refusals included.
    failed: int
    #: Failed in a way the workload does not intend (error, timeout).
    unintended: int


def operations(name: str, fields: Dict[str, Any]) -> Operations:
    """Count the operations of workload *name* from its result *fields*."""
    function = WORKLOADS[name].function
    if function == "run_qos_experiment":
        done = sum(fields["completions"].values())
        rejected = sum(fields["frontend_rejections"].values())
        full = sum(fields["full_fidelity"].values())
        return Operations(done, done, full, done + rejected, rejected, rejected)
    if function == "run_cache_tier_experiment":
        bad = fields["errors"] + fields["timeouts"]
        requests, ok = fields["requests"], fields["ok"]
        return Operations(requests, ok, ok, requests, bad, bad)
    bad = fields["timeouts"] + fields["errors"]
    refused = fields["throttled"] + fields["dropped"]
    return Operations(
        fields["requests"], fields["ok"] + fields["degraded"], fields["ok"],
        fields["requests"], refused + bad, bad,
    )


def simulated_metrics(name: str, summary: Dict[str, Any]) -> Dict[str, float]:
    """Every exact metric that applies to workload *name*."""
    fields, latency = summary["fields"], summary["latency"]
    ops = operations(name, fields)
    premium = latency.get("1", {})
    full_fidelity = _ratio(ops.full_fidelity, ops.answered)
    fail = _ratio(ops.failed, ops.attempted)
    out = {
        "sim_goodput_rps": ops.full_fidelity / fields["duration"],
        "sim_mean_s": latency["all"].get("mean", 0.0),
        "sim_premium_mean_s": premium.get("mean", 0.0),
        "sim_full_fidelity_ratio": full_fidelity,
        "sim_answered_ratio": 1.0 - fail,
        "sim_p50_s": latency["all"].get("p50", 0.0),
        "sim_p99_s": latency["all"].get("p99", 0.0),
        "sim_premium_p90_s": premium.get("p90", 0.0),
        "sim_degraded_ratio": 1.0 - full_fidelity,
        "sim_fail_ratio": fail,
        "workload.requests": ops.requests,
        "workload.sim_duration_s": fields["duration"],
    }
    function = WORKLOADS[name].function
    if function != "run_cache_tier_experiment":
        for level in ("1", "2", "3"):
            stats = latency.get(level, {})
            out[f"frontend.class{level}.mean_s"] = stats.get("mean", 0.0)
            out[f"frontend.class{level}.p90_s"] = stats.get("p90", 0.0)
    if function == "run_qos_experiment":
        out["frontend.rejected_ratio"] = fail  # rejections are this mode's only failures
        brokers = list(fields["drop_ratios"].values())
        for level in ("1", "2", "3"):
            if brokers:
                out[f"core.admission.drop_ratio.class{level}"] = statistics.fmean(
                    broker[level] for broker in brokers
                )
            out[f"core.full_fidelity_ratio.class{level}"] = _ratio(
                fields["full_fidelity"][level], fields["completions"][level]
            )
    elif function == "run_cache_tier_experiment":
        requests = fields["requests"]
        write_through = fields["writes"] - fields["write_behind_accepted"]
        out.update({
            "core.cache.local_hit_ratio": _ratio(
                fields["local_hits"], fields["local_hits"] + fields["local_misses"]
            ),
            "core.cachetier.hit_ratio": _ratio(
                fields["tier_hits"], fields["tier_hits"] + fields["tier_misses"]
            ),
            "core.cache.served_ratio": _ratio(fields["from_cache"], fields["ok"]),
            "core.combine.yields_per_req": _ratio(fields["combine_yields"], requests),
            "core.writebehind.accepted_ratio": _ratio(
                fields["write_behind_accepted"], fields["writes"]
            ),
            "core.writebehind.overflow_ratio": _ratio(
                fields["write_behind_overflow"], fields["writes"]
            ),
            "db.statements_per_req": _ratio(fields["backend_queries"], requests),
            "db.writes_per_req": _ratio(
                write_through + fields["write_behind_flushed"], requests
            ),
            "db.view_hits_per_req": _ratio(fields["view_hits"], requests),
        })
    else:
        requests = fields["requests"]
        out.update({
            "core.autoscale.scale_outs": fields["scale_outs"],
            "core.autoscale.scale_ins": fields["scale_ins"],
            "core.autoscale.drains_completed": fields["drains_completed"],
            "core.autoscale.handoffs": fields["handoffs"],
            "core.autoscale.mean_pool_size": fields["mean_size"],
            "core.throttle.refused_ratio": _ratio(fields["throttled"], requests),
            "core.shed.dropped_ratio": _ratio(fields["dropped"], requests),
            "obs.slo.alerts": fields["alerts"],
            "obs.slo.blocked_scale_ins": fields["blocked_by_alert"],
        })
    return out


def host_metrics(records: Sequence[Dict[str, Any]], requests: int) -> Dict[str, Dict[str, float]]:
    """Host-side metrics over the untraced repeats, each with its quartiles."""
    walls = quartiles([record["wall_s"] for record in records])
    return {
        "setup_s": quartiles([r["import_s"] + r["build_s"] for r in records]),
        "sim_req_per_host_s": quartiles([requests / r["wall_s"] for r in records]),
        "host_peak_rss_mb": quartiles([r["rss_mib"] for r in records]),
        "workload.repeat_wall_s.p25": {"value": walls["p25"]},
        "workload.repeat_wall_s.p75": {"value": walls["p75"]},
        "workload.host_cpu_s": quartiles([r["cpu_s"] for r in records]),
    }


def trace_metrics(
    traced: Dict[str, Any], requests: int, untraced_wall_s: float
) -> Dict[str, float]:
    """Per-layer host cost from the traced repeat."""
    layers = traced["layers"]
    total_s = sum(cost["self_s"] for cost in layers.values())
    total_calls = sum(cost["calls"] for cost in layers.values())
    out = {
        "trace.overhead_ratio": traced["wall_s"] / untraced_wall_s,
        "trace.calls_per_req": _ratio(total_calls, requests),
    }
    for layer, cost in layers.items():
        out[f"{layer}.self_s"] = cost["self_s"]
        out[f"{layer}.share"] = _ratio(cost["self_s"], total_s)
        out[f"{layer}.calls_per_req"] = _ratio(cost["calls"], requests)
    return out
