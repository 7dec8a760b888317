"""The call ratchet: Python calls per request, per layer, never rise.

Profiles the two QoS e2e workloads (``benchmarks/e2e/workloads.py``) at
0.1 of their benchmark duration and counts calls per layer with the
benchmark's own ``child.layer_costs``. For a fixed commit and seed these
counts are exact (no host timing enters them), so a change that adds
calls on the message path fails here on any machine. Every layer but
``other`` (builtins, stdlib, GC-dependent) is held at or below the
ceiling below; a change that lowers a count lowers its ceiling.

``python benchmarks/e2e/run.py --workload W --trace 1`` prints the same
``*.calls_per_req`` at full length, after a build-only warm-up (they
differ from these by a few tenths at most: one-time work is spread
over more requests, or not done yet).
"""

from __future__ import annotations

import cProfile
import os
import sys
from pathlib import Path

import pytest

import repro

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
SEED = 2026
SCALE = 0.1

#: workload -> layer -> calls per request ceiling (the value measured at
#: this ceiling's last change, rounded up in the second decimal).
CEILINGS = {
    "qos_api": {
        "sim": 167.86, "net": 192.10, "core": 6.01, "frontend": 34.01,
        "http": 50.02, "db": 0.0, "metrics": 13.53, "obs": 0.0,
        "workload": 13.24,
    },
    "qos_broker": {
        "sim": 58.77, "net": 79.83, "core": 53.03, "frontend": 12.15,
        "http": 5.38, "db": 0.0, "metrics": 20.97, "obs": 0.0,
        "workload": 8.17,
    },
}


def _calls_per_request(workload: str):
    """Calls per request by layer for one profiled run of *workload*."""
    sys.path.insert(0, str(E2E))
    try:
        import child
        import metrics as e2e_metrics
        import workloads

        # An identical unprofiled run first: lazy imports (a module
        # body counts as calls) and first-use caches are then warm
        # whatever this process ran before, so the count is exact.
        workloads.invoke(workload, SEED, SCALE)
        profile = cProfile.Profile()
        result = profile.runcall(workloads.invoke, workload, SEED, SCALE)
        costs = child.layer_costs(profile, os.path.dirname(repro.__file__))
        fields = workloads.summarise(result)["fields"]
        requests = e2e_metrics.operations(workload, fields).requests
    finally:
        sys.path.remove(str(E2E))
        for name in ("child", "metrics", "workloads"):
            sys.modules.pop(name, None)
    return {layer: cost["calls"] / requests for layer, cost in costs.items()}


@pytest.mark.parametrize("workload", sorted(CEILINGS))
def test_calls_per_request_stay_under_their_ceilings(workload, no_collector):
    # Collector off from a clean heap: garbage left by earlier tests
    # would otherwise be finalized mid-run, and a finalized generator's
    # `finally` counts as calls in its layer.
    measured = _calls_per_request(workload)
    ceilings = CEILINGS[workload]
    assert set(measured) == set(ceilings) | {"other"}
    over = {
        layer: (round(measured[layer], 3), ceiling)
        for layer, ceiling in ceilings.items()
        if measured[layer] > ceiling
    }
    assert not over, f"calls per request above the ceiling: {over}"
