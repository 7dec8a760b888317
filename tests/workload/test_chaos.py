"""Tests for the chaos-soak and overload testbeds."""

from __future__ import annotations

import json
from dataclasses import MISSING, fields

import pytest

from repro.core.autoscale import TenantThrottle
from repro.workload import (
    run_chaos_experiment,
    run_overload_experiment,
)
from repro.workload.chaos import (
    AutoscaleResult,
    ChaosResult,
    ScaleChaosResult,
    ShardChaosResult,
    _hardened_stages,
)

#: The hardened plan every chaos and elastic-pool broker runs.
HARDENED = [
    "validate", "arrival", "timeout", "cache-lookup", "admission", "fidelity",
    "backpressure", "enqueue", "cluster", "breaker", "retry", "failover",
    "fidelity", "cache-fill", "reply",
]

#: What each result's summary reports in place of its raw latency samples.
LATENCY_ENTRIES = {
    ChaosResult: {"latency_p50", "latency_p99"},
    ShardChaosResult: {"latency_p50", "latency_p99"},
    ScaleChaosResult: {"latency_p50", "latency_p99"},
    AutoscaleResult: {"premium_p99"},
}


class TestHardenedStages:
    def test_backpressure_sits_before_enqueue(self):
        plan = _hardened_stages(48, "drop-lowest")
        assert [stage.name for stage in plan] == HARDENED

    def test_throttle_follows_arrival(self):
        plan = _hardened_stages(48, "drop-lowest", TenantThrottle(1.0, 1.0))
        assert [stage.name for stage in plan] == (
            HARDENED[:2] + ["throttle"] + HARDENED[2:]
        )


@pytest.mark.parametrize("result_class", list(LATENCY_ENTRIES))
def test_summary_has_one_key_per_field(result_class):
    """A field added later cannot silently drop out of ``--summary-out``."""
    result = result_class(
        **{
            spec.name: 1
            for spec in fields(result_class)
            if spec.default is MISSING and spec.default_factory is MISSING
        }
    )
    summary = result.to_summary()
    names = {spec.name for spec in fields(result_class)} - {"latency"}
    assert set(summary) == names | {"availability"} | LATENCY_ENTRIES[result_class]
    assert json.loads(json.dumps(summary)) == summary


@pytest.fixture(scope="module")
def quick_soak():
    return run_chaos_experiment(duration=90.0, seed=2026)


class TestChaosSoak:
    def test_schedule_produces_chaos(self, quick_soak):
        result = quick_soak
        assert result.crashes >= 2
        assert result.restarts == result.crashes
        assert result.link_faults >= 1
        assert result.spike_requests > 0
        assert result.requests > 1000

    def test_invariants_hold(self, quick_soak):
        result = quick_soak
        assert len(result.invariants) == 4
        names = {check.name for check in result.invariants}
        assert names == {
            "no-lost-request",
            "post-crash-consistency",
            "queue-bound",
            "availability-floor",
        }
        for check in result.invariants:
            assert check.passed, f"{check.name}: {check.detail}"
        assert result.all_invariants_hold
        assert result.availability >= 0.99

    def test_both_recovery_paths_exercised(self, quick_soak):
        result = quick_soak
        # Slow crashes: the supervisor detects and fails fast.
        assert result.detected > 0
        assert result.failed_fast > 0
        # Blip crashes heal under the detection window: restart replays.
        assert result.replayed > 0

    def test_queue_bound_and_shedding(self, quick_soak):
        result = quick_soak
        assert result.shed_total > 0
        for name, depth in result.peak_depths.items():
            assert depth <= result.capacity, name

    def test_deterministic_per_seed(self, quick_soak):
        again = run_chaos_experiment(duration=90.0, seed=2026)
        assert again.to_summary() == quick_soak.to_summary()

    def test_summary_is_json_safe(self, quick_soak):
        import json

        payload = quick_soak.to_summary()
        assert json.loads(json.dumps(payload)) == payload

    def test_rejects_unknown_recovery_policy(self):
        with pytest.raises(ValueError):
            run_chaos_experiment(duration=1.0, recovery_policy="pray")


class TestOverloadExperiment:
    def test_bounded_protects_premium_goodput(self):
        bounded = run_overload_experiment(
            saturation=2.5, bounded=True, duration=10.0, drain=30.0, seed=2026
        )
        unbounded = run_overload_experiment(
            saturation=2.5, bounded=False, duration=10.0, drain=30.0, seed=2026
        )
        assert bounded.peak_depth <= bounded.capacity
        assert bounded.shed > 0
        assert unbounded.peak_depth > bounded.capacity
        # Shedding the lower classes keeps premium latency sane while
        # the unbounded FCFS queue drags every class down together.
        assert unbounded.premium_p99() > bounded.premium_p99()
        assert bounded.premium_goodput >= unbounded.premium_goodput

    def test_every_arrival_gets_a_terminal_reply(self):
        result = run_overload_experiment(
            saturation=2.0, bounded=True, duration=10.0, drain=30.0, seed=7
        )
        for level, issued in result.issued.items():
            answered = (
                result.ok[level] + result.degraded[level] + result.dropped[level]
            )
            assert answered == issued, f"class {level}"
