"""Seeded end-to-end determinism against a committed golden snapshot.

The performance work on the kernel, pipeline, net and metrics layers is
only acceptable if it changes *nothing* observable: same seeds must
produce byte-identical experiment outputs. This test replays one point
of each experiment family (clustering, QoS, failure recovery, shards,
the shared cache tier, and the overload/chaos/autoscale robustness
testbeds) and
compares the result — floats via ``repr``, so even a single ulp of
drift fails — against ``golden_determinism.json``.

The golden file was captured from the pre-optimization tree; it must
only ever be regenerated for a *deliberate* behavioural change (new
RNG draws, different scheduling order), never to paper over an
accidental one::

    PYTHONPATH=src python - <<'EOF'
    import json
    from tests.integration.test_determinism import snapshot
    print(json.dumps(snapshot(), indent=2, sort_keys=True))
    EOF
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from repro.workload.chaos import (
    run_autoscale_experiment,
    run_chaos_experiment,
    run_overload_experiment,
    run_scale_chaos_experiment,
    run_shard_chaos_experiment,
)
from repro.workload.scenarios import (
    _run_sharded_parallel,
    run_cache_tier_experiment,
    run_clustering_experiment,
    run_failure_recovery_experiment,
    run_qos_experiment,
    run_sharded_qos_experiment,
)

GOLDEN = Path(__file__).resolve().parent / "golden_determinism.json"

#: The partitioned point of the snapshot.
PARTITIONED = dict(n_clients=12, shards=3, replicas=1, duration=20.0, seed=2026)


def sharded_section(result):
    """The golden fields of one sharded-testbed result."""
    return {
        "completions": {
            str(k): v for k, v in sorted(result.completions.items())
        },
        "full_fidelity": {
            str(k): v for k, v in sorted(result.full_fidelity.items())
        },
        "mean_response": {
            str(k): repr(v.mean)
            for k, v in sorted(result.response_times.items())
        },
        "p99_response": {
            str(k): repr(v.p99)
            for k, v in sorted(result.response_times.items())
        },
        "forwards": result.forwards,
        "local_routes": result.local_routes,
        "elections": result.elections,
    }


def soak_section(result):
    """A chaos-family result: its whole summary plus the raw latency."""
    return {
        "summary": result.to_summary(),
        "latency_mean": repr(result.latency.mean),
        "latency_p99": repr(result.latency.p99),
    }


def cache_tier_section(result):
    """A cache-tier result: every counter field plus the raw latency."""
    section = {
        field.name: getattr(result, field.name)
        for field in dataclasses.fields(result)
        if field.name not in ("duration", "latency")
    }
    section["duration"] = repr(result.duration)
    section["latency_count"] = result.latency.count
    section["latency_mean"] = repr(result.latency.mean)
    section["latency_p50"] = repr(result.latency.median)
    section["latency_p99"] = repr(result.latency.p99)
    section["latency_sha256"] = hashlib.sha256(
        repr(result.latency.values()).encode()
    ).hexdigest()
    return section


def overload_section(result):
    """The golden fields of one overload run."""
    return {
        "classes": {
            str(level): {
                "issued": result.issued[level],
                "ok": result.ok[level],
                "degraded": result.degraded[level],
                "dropped": result.dropped[level],
                "goodput": repr(result.goodput[level]),
            }
            for level in sorted(result.issued)
        },
        "premium_p99": repr(result.premium_p99()),
        "shed": result.shed,
        "peak_depth": result.peak_depth,
        "backpressure_engaged": result.backpressure_engaged,
    }


def snapshot():
    """One deterministic point per experiment family, floats as repr."""
    snap = {}

    fig7 = {}
    for degree in (1, 4, 8):
        r = run_clustering_experiment(degree, seed=2026)
        fig7[str(degree)] = {
            "requests": r.requests,
            "mean_response_time": repr(r.mean_response_time),
            "max_response_time": repr(r.max_response_time),
            "backend_calls": r.backend_calls,
            "errors": r.errors,
        }
    snap["fig7"] = fig7

    qos = run_qos_experiment(12, mode="broker", duration=30.0, seed=2026)
    snap["table1"] = {
        "completions": {str(k): v for k, v in sorted(qos.completions.items())},
        "full_fidelity": {
            str(k): v for k, v in sorted(qos.full_fidelity.items())
        },
        "drop_ratios": {
            broker: {str(k): repr(v) for k, v in sorted(ratios.items())}
            for broker, ratios in sorted(qos.drop_ratios.items())
        },
        "mean_response": {
            str(k): repr(v.mean) for k, v in sorted(qos.response_times.items())
        },
        "p99_response": {
            str(k): repr(v.p99) for k, v in sorted(qos.response_times.items())
        },
    }

    fr = run_failure_recovery_experiment(
        mtbf=20.0, mttr=5.0, replicas=2, duration=60.0,
        first_crash_at=10.0, seed=2026,
    )
    snap["failure_recovery"] = {
        "outages": fr.outages,
        "downtime": repr(fr.downtime),
        "requests": fr.requests,
        "ok": fr.ok,
        "degraded": fr.degraded,
        "dropped": fr.dropped,
        "errors": fr.errors,
        "timeouts": fr.timeouts,
        "outage_requests": fr.outage_requests,
        "outage_ok": fr.outage_ok,
        "outage_degraded": fr.outage_degraded,
        "latency_mean": repr(fr.latency.mean),
        "latency_p99": repr(fr.latency.p99),
        "retries": fr.retries,
        "retry_recovered": fr.retry_recovered,
        "failovers": fr.failovers,
        "failover_recovered": fr.failover_recovered,
        "breaker_opens": fr.breaker_opens,
        "fault_replies": fr.fault_replies,
    }

    # The degenerate single-shard topology and the multi-shard serial
    # (workers=1) path both ride the exact classic code path; their
    # seeded outputs are part of the byte-identical contract.
    snap["sharded_single_shard"] = sharded_section(
        run_sharded_qos_experiment(
            12, shards=1, replicas=1, duration=30.0, seed=2026
        )
    )
    snap["sharded_workers1"] = sharded_section(
        run_sharded_qos_experiment(
            12, shards=2, replicas=2, duration=30.0, seed=2026, workers=1
        )
    )
    # The partitioned workload (clients pinned to shards, one seed per
    # slice) is a different run from the serial one and pinned apart.
    snap["sharded_partitioned"] = sharded_section(
        run_sharded_qos_experiment(workers=2, **PARTITIONED)
    )

    # One short elastic-pool point: the autoscaler control loop, the
    # drain protocol, and the tenant throttle all draw from the seeded
    # streams, so their outputs are part of the byte-identical contract.
    scale = run_autoscale_experiment(duration=60.0, seed=2026)
    snap["autoscale"] = {
        "requests": scale.requests,
        "ok": scale.ok,
        "degraded": scale.degraded,
        "throttled": scale.throttled,
        "dropped": scale.dropped,
        "timeouts": scale.timeouts,
        "errors": scale.errors,
        "provisioned": scale.provisioned,
        "scale_outs": scale.scale_outs,
        "scale_ins": scale.scale_ins,
        "drains_completed": scale.drains_completed,
        "handoffs": scale.handoffs,
        "drain_refused": scale.drain_refused,
        "mean_size": repr(scale.mean_size),
        "peak_size": scale.peak_size,
        "premium_p99": repr(scale.premium_p99()),
        "tenants": {
            name: {k: v for k, v in sorted(info.items())}
            for name, info in sorted(scale.tenants.items())
        },
        "timeline_len": len(scale.timeline),
    }

    # The robustness testbeds: crash/restart soak, shard-leader kills,
    # mid-drain kills, and the bounded vs unbounded overload queue.
    snap["chaos"] = soak_section(run_chaos_experiment(duration=60.0, seed=2026))
    snap["shard_chaos"] = soak_section(
        run_shard_chaos_experiment(
            duration=60.0, shards=3, replicas=2, seed=2026
        )
    )
    snap["scale_chaos"] = soak_section(
        run_scale_chaos_experiment(
            duration=72.0, min_scale_ins=1, min_mid_drain_kills=1, seed=2026
        )
    )
    snap["overload"] = {
        ("bounded" if bounded else "unbounded"): overload_section(
            run_overload_experiment(
                duration=10.0, drain=30.0, bounded=bounded, seed=2026
            )
        )
        for bounded in (True, False)
    }

    # The shared cache tier (the e2e cache_read and cache_write shapes
    # at 0.1 scale): combining, write-behind and view refresh all lean
    # on same-instant ordering, so the kernel's tie rule shows here first.
    snap["cache_tier"] = {
        name: cache_tier_section(
            run_cache_tier_experiment(
                n_clients=60, duration=duration, write_fraction=writes, seed=2026
            )
        )
        for name, duration, writes in (("read", 1.2, 0.02), ("write", 0.6, 0.3))
    }
    return snap


def test_experiments_match_golden_snapshot():
    """Same seed, same outputs — bit-for-bit, including float reprs."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = snapshot()
    assert current == golden, (
        "seeded experiment outputs drifted from the golden snapshot; "
        "see the module docstring before even thinking about "
        "regenerating it"
    )


def test_partitioned_results_are_worker_count_invariant():
    """In-process, workers=2 and workers=3 all give the golden section.

    The partitioned path is deterministic in ``(seed, shards)`` — never
    in the worker count or scheduling; see DESIGN.md §14.2.
    """
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    inline = _run_sharded_parallel(workers=1, mode="broker", **PARTITIONED)
    assert sharded_section(inline) == golden["sharded_partitioned"]
    for workers in (2, 3):
        forked = run_sharded_qos_experiment(workers=workers, **PARTITIONED)
        assert sharded_section(forked) == golden["sharded_partitioned"]
        assert forked.topology == inline.topology


def test_snapshot_is_itself_deterministic():
    """Two in-process runs of the QoS point agree exactly."""
    first = run_qos_experiment(12, mode="broker", duration=30.0, seed=2026)
    second = run_qos_experiment(12, mode="broker", duration=30.0, seed=2026)
    assert first.completions == second.completions
    assert {
        k: repr(v.mean) for k, v in first.response_times.items()
    } == {k: repr(v.mean) for k, v in second.response_times.items()}
