"""Correctness gate: is what the simulator returned a believable run?

No expected-value file is committed: floats pinned on one host are what
makes a benchmark report wrong outputs on another. The checks are
conservation laws and orderings that hold at every seed, plus one
determinism check — every repeat of a workload, traced or not, must
return the same simulated result to the last digit.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence

from workloads import WORKLOADS

__all__ = ["digest", "check_workload", "check_fig9_shape"]


def digest(summary: Dict[str, Any]) -> str:
    """Canonical digest of a full simulated result."""
    text = json.dumps(summary, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def _qos(name: str, summary: Dict[str, Any]) -> List[str]:
    fields, latency = summary["fields"], summary["latency"]
    failures = []
    for level, done in fields["completions"].items():
        full = fields["full_fidelity"][level]
        if not full <= done == latency[level]["count"]:
            failures.append(
                f"class {level}: full_fidelity {full} <= completions {done} == "
                f"response-time count {latency[level]['count']} does not hold"
            )
        if name == "qos_api" and full != done:
            failures.append(f"class {level}: api answered {done - full} below full fidelity")
    rejected = sum(fields["frontend_rejections"].values())
    if rejected:
        failures.append(f"{rejected} front-end rejections in a mode that has none")
    brokers = fields["drop_ratios"]
    if name == "qos_api":
        if brokers:
            failures.append("api mode reported broker drop ratios")
        return failures
    if any(not 0.0 <= ratio <= 1.0 for broker in brokers.values() for ratio in broker.values()):
        failures.append(f"drop ratio outside [0, 1]: {brokers}")
    # Sums over brokers order the same way as means over brokers.
    sums = [sum(broker[level] for broker in brokers.values()) for level in ("1", "2", "3")]
    if not brokers or not sums[0] <= sums[1] <= sums[2]:
        failures.append(f"drop ratios not ordered class1 <= class2 <= class3: {brokers}")
    return failures


def _cache(name: str, summary: Dict[str, Any]) -> List[str]:
    f = summary["fields"]
    laws = {
        "errors == timeouts == 0": f["errors"] == 0 and f["timeouts"] == 0,
        "0 <= requests - ok <= clients (in flight at the end)":
            0 <= f["requests"] - f["ok"] <= f["clients"],
        "from_cache <= ok": f["from_cache"] <= f["ok"],
        "write_behind_flushed <= write_behind_accepted":
            f["write_behind_flushed"] <= f["write_behind_accepted"],
        "backend_queries <= requests": f["backend_queries"] <= f["requests"],
    }
    return [f"{law} does not hold" for law, holds in laws.items() if not holds]


def _fleet(name: str, summary: Dict[str, Any]) -> List[str]:
    f = summary["fields"]
    failures = [
        f"invariant {check['name']} failed: {check['detail']}"
        for check in f["invariants"]
        if not check["passed"]
    ]
    terminal = (
        f["ok"] + f["degraded"] + f["throttled"] + f["dropped"] + f["timeouts"] + f["errors"]
    )
    if f["requests"] != terminal:
        failures.append(f"ledger: {f['requests']} requests but {terminal} terminal outcomes")
    return failures


_BY_FUNCTION = {
    "run_qos_experiment": _qos,
    "run_cache_tier_experiment": _cache,
    "run_autoscale_experiment": _fleet,
}


def check_workload(name: str, summaries: Sequence[Dict[str, Any]]) -> List[str]:
    """Named failures of workload *name* over all its repeats' *summaries*."""
    failures = []
    digests = [digest(summary) for summary in summaries]
    if len(set(digests)) > 1:
        failures.append(
            "simulated result differs between repeats: " + " ".join(d[:12] for d in digests)
        )
    failures += _BY_FUNCTION[WORKLOADS[name].function](name, summaries[0])
    return [f"{name}: {failure}" for failure in failures]


def check_fig9_shape(premium_p90_s: Dict[str, float]) -> List[str]:
    """Paper Fig. 9: brokers hold premium latency below the API baseline."""
    broker, api = premium_p90_s["qos_broker"], premium_p90_s["qos_api"]
    if broker < api:
        return []
    return [f"qos_broker: premium p90 {broker:.3f} sim_s not below qos_api's {api:.3f} sim_s"]
