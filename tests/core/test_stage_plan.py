"""Stage plans composed from three bases and anchored extras.

Each case builds a plan with :func:`stage_plan` next to the plan the
former stock factories (and ``_hardened_stages``) built for the same
settings, written out literally: the stage names in order, and the
constructor settings of each configured stage. A composed plan must
match it stage for stage — name, class and settings.
"""

from __future__ import annotations

import pytest

from repro.core.autoscale import TenantThrottle
from repro.core.cachetier import SharedCacheTier
from repro.core.faulttolerance import RetryPolicy
from repro.core.pipeline import (
    AdmissionStage,
    ArrivalStage,
    BackpressureStage,
    BrokerStage,
    CacheFillStage,
    CacheLookupStage,
    CacheTierStage,
    CircuitBreakerStage,
    ClusterStage,
    EnqueueStage,
    ExecuteStage,
    FailoverStage,
    FidelityFallbackStage,
    QueryCombineStage,
    ReplyStage,
    RetryStage,
    ShardRouteStage,
    ThrottleStage,
    TimeoutBudgetStage,
    ValidateServiceStage,
    stage_plan,
)
from repro.core.sharding import ShardDirectory
from repro.sim import Simulation
from repro.workload.chaos import _hardened_stages

DIRECTORY = ShardDirectory()
TIER = SharedCacheTier(Simulation(seed=0))
THROTTLE = TenantThrottle(1.0, 1.0)
RETRY = RetryPolicy(max_attempts=4, base_delay=0.02)
HARDENED_RETRY = RetryPolicy(max_attempts=3, base_delay=0.05)

CLASS_OF = {
    stage_class.name: stage_class
    for stage_class in (
        ValidateServiceStage, ShardRouteStage, ArrivalStage, ThrottleStage,
        TimeoutBudgetStage, CacheLookupStage, CacheTierStage, AdmissionStage,
        FidelityFallbackStage, BackpressureStage, EnqueueStage, ClusterStage,
        QueryCombineStage, CircuitBreakerStage, RetryStage, ExecuteStage,
        FailoverStage, CacheFillStage, ReplyStage,
    )
}

DISTRIBUTED = [
    "validate", "arrival", "cache-lookup", "admission", "fidelity",
    "enqueue", "cluster", "execute", "cache-fill", "reply",
]
CENTRALIZED = [
    "validate", "arrival", "cache-lookup", "fidelity", "enqueue",
    "cluster", "execute", "cache-fill", "reply",
]
FAULT_TOLERANT = [
    "validate", "arrival", "timeout", "cache-lookup", "admission",
    "fidelity", "enqueue", "cluster", "breaker", "retry", "failover",
    "fidelity", "cache-fill", "reply",
]
HARDENED = [
    "validate", "arrival", "timeout", "cache-lookup", "admission",
    "fidelity", "backpressure", "enqueue", "cluster", "breaker", "retry",
    "failover", "fidelity", "cache-fill", "reply",
]
HARDENED_SETTINGS = {
    "breaker": dict(failure_threshold=3, reset_timeout=0.5),
    "retry": dict(policy=HARDENED_RETRY),
    "backpressure": dict(capacity=48, shed_policy="drop-lowest"),
}

#: ``id -> (composed plan, legacy stage names, legacy settings by name)``.
CASES = {
    "distributed": (lambda: stage_plan("distributed"), DISTRIBUTED, {}),
    "centralized": (lambda: stage_plan("centralized"), CENTRALIZED, {}),
    "fault-tolerant": (
        lambda: stage_plan("fault-tolerant"), FAULT_TOLERANT, {}
    ),
    "fault-tolerant-configured": (
        lambda: stage_plan(
            "fault-tolerant",
            TimeoutBudgetStage(),
            CircuitBreakerStage(failure_threshold=5, reset_timeout=0.25),
            RetryStage(policy=RETRY),
        ),
        FAULT_TOLERANT,
        {
            "breaker": dict(failure_threshold=5, reset_timeout=0.25),
            "retry": dict(policy=RETRY),
        },
    ),
    "overload-protected": (
        lambda: stage_plan(
            "distributed",
            BackpressureStage(7, shed_policy="reject-new"),
        ),
        [
            "validate", "arrival", "cache-lookup", "admission", "fidelity",
            "backpressure", "enqueue", "cluster", "execute", "cache-fill",
            "reply",
        ],
        {
            "backpressure": dict(capacity=7, shed_policy="reject-new"),
        },
    ),
    "sharded": (
        lambda: stage_plan("distributed", ShardRouteStage()),
        [
            "validate", "shard-route", "arrival", "cache-lookup",
            "admission", "fidelity", "enqueue", "cluster", "execute",
            "cache-fill", "reply",
        ],
        {},
    ),
    "sharded-centralized": (
        lambda: stage_plan(
            "centralized", ShardRouteStage(directory=DIRECTORY, shard=2)
        ),
        [
            "validate", "shard-route", "arrival", "cache-lookup", "fidelity",
            "enqueue", "cluster", "execute", "cache-fill", "reply",
        ],
        {"shard-route": dict(directory=DIRECTORY, shard=2)},
    ),
    "cache-tier": (
        lambda: stage_plan("distributed", CacheTierStage(), QueryCombineStage()),
        [
            "validate", "arrival", "cache-lookup", "cache-tier", "admission",
            "fidelity", "enqueue", "cluster", "query-combine", "execute",
            "cache-fill", "reply",
        ],
        {},
    ),
    "cache-tier-configured": (
        lambda: stage_plan(
            "centralized",
            CacheTierStage(tier=TIER),
            QueryCombineStage(window=0.05, max_batch=16),
        ),
        [
            "validate", "arrival", "cache-lookup", "cache-tier", "fidelity",
            "enqueue", "cluster", "query-combine", "execute", "cache-fill",
            "reply",
        ],
        {
            "cache-tier": dict(tier=TIER),
            "query-combine": dict(window=0.05, max_batch=16),
        },
    ),
    "hardened": (
        lambda: _hardened_stages(48, "drop-lowest"), HARDENED, HARDENED_SETTINGS
    ),
    "hardened-throttle": (
        lambda: _hardened_stages(48, "drop-lowest", THROTTLE),
        [
            "validate", "arrival", "throttle", "timeout", "cache-lookup",
            "admission", "fidelity", "backpressure", "enqueue", "cluster",
            "breaker", "retry", "failover", "fidelity", "cache-fill", "reply",
        ],
        {**HARDENED_SETTINGS, "throttle": dict(throttle=THROTTLE)},
    ),
}


def settings(stage: BrokerStage) -> dict:
    """The stage's constructor settings; a nested stage by its class."""
    return {
        key: type(value) if isinstance(value, BrokerStage) else value
        for key, value in vars(stage).items()
        if key != "broker" and not key.startswith("_")
    }


@pytest.mark.parametrize("case", list(CASES))
def test_composed_plan_equals_legacy_plan(case):
    composed, names, configured = CASES[case]
    expected = [
        (name, CLASS_OF[name], settings(CLASS_OF[name](**configured.get(name, {}))))
        for name in names
    ]
    assert [
        (stage.name, type(stage), settings(stage)) for stage in composed()
    ] == expected
