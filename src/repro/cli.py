"""Command-line runner for the paper's experiments.

Usage::

    python -m repro fig7   [--degrees 1,2,4,8,16,40] [--seed N]
    python -m repro fig9   [--clients 10,20,...] [--duration S] [--seed N]
    python -m repro fig10  [--clients ...] [--duration S] [--seed N]
    python -m repro table1 [--clients ...] [--duration S] [--seed N]
    python -m repro drops  [--clients ...] [--duration S] [--seed N]
    python -m repro pipeline --describe [--model distributed|centralized|fault-tolerant|sharded|cache-tier|all]
    python -m repro faults --describe
    python -m repro faults [--mtbf 40,20,10] [--mttr S] [--replicas N] [--duration S]
    python -m repro shard  --describe
    python -m repro shard  [--shards 1,2,4,8] [--replicas N] [--clients N]
                           [--mode broker|centralized] [--duration S]
    python -m repro obs    --describe
    python -m repro obs    [--scenario qos|fig7|faults] [--trace-sample N]
                           [--slowest K] [--export FILE] [--jsonl FILE] [--quick]
    python -m repro chaos  --describe
    python -m repro chaos  [--quick] [--duration S] [--capacity N]
                           [--policy reject-new|drop-oldest|drop-lowest]
                           [--mtbf S] [--mttr S] [--recovery replay|shed]
                           [--availability-floor F] [--summary-out FILE]
    python -m repro chaos  --shards N [--replicas R] [--leader-kill-every S]
                           [--quick] [--duration S] [--summary-out FILE]
    python -m repro cache  --describe
    python -m repro cache  [--clients N] [--brokers B] [--duration S]
                           [--ttl S] [--no-views] [--quick] [--summary-out FILE]
    python -m repro telemetry --describe
    python -m repro telemetry [--scenario qos|chaos|shard] [--interval S]
                           [--slo] [--dashboard] [--export FILE] [--quick]
    python -m repro autoscale --describe
    python -m repro autoscale [--quick] [--duration S] [--period S]
                           [--swing X] [--target T] [--summary-out FILE]
    python -m repro autoscale --soak [--quick] [--duration S]
                           [--wave-period S] [--min-scale-ins N]
                           [--summary-out FILE]

Each subcommand regenerates one of the paper's evaluation artifacts and
prints it as an aligned text table. For the benchmark-grade runs with
shape assertions, use ``pytest benchmarks/ --benchmark-only -s``. The
host cost of a run, end to end and per layer, is measured by the
standing benchmark, ``python benchmarks/e2e/run.py [--compare A B]``.
"""

from __future__ import annotations

import argparse
import json
import sys
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core.pipeline import NAMED_PLANS, stage_plan
from .metrics import render_table
from . import workload

__all__ = ["main", "build_parser", "ChaosInvariantFailure"]


class ChaosInvariantFailure(Exception):
    """A chaos soak finished but at least one invariant check failed."""

    def __init__(self, report: str, failed: List[str]) -> None:
        super().__init__(f"chaos invariants violated: {', '.join(failed)}")
        self.report = report
        self.failed = failed


DEFAULT_DEGREES = "1,2,4,5,8,10,16,20,30,40"
DEFAULT_CLIENTS = "10,20,30,40,50,60"


def _comma_list(cast: Callable[[str], Any], kind: str) -> Callable[[str], list]:
    """An argparse ``type`` that parses comma-separated *cast* values."""

    def parse(text: str) -> list:
        try:
            values = [cast(part) for part in text.split(",") if part.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind}: {text!r}"
            ) from exc
        if not values:
            raise argparse.ArgumentTypeError("expected at least one value")
        return values

    return parse


_int_list = _comma_list(int, "ints")
_float_list = _comma_list(float, "floats")


_QOS_LEVELS = (1, 2, 3)


def _qos_sweep(args, mode: str):
    return [
        workload.run_qos_experiment(n, mode=mode, duration=args.duration, seed=args.seed)
        for n in args.clients
    ]


def run_fig7(args) -> str:
    rows = []
    for degree in args.degrees:
        result = workload.run_clustering_experiment(degree, seed=args.seed)
        rows.append(
            {
                "degree": result.degree,
                "mean_response_ms": result.mean_response_time * 1000,
                "max_response_ms": result.max_response_time * 1000,
                "backend_calls": result.backend_calls,
            }
        )
    return render_table(
        rows, title="Figure 7 — response time vs degree of clustering"
    )


def run_fig9(args) -> str:
    api = _qos_sweep(args, "api")
    broker = _qos_sweep(args, "broker")
    rows = [
        {"clients": n, "api_s": a.mean_response_time, "broker_s": b.mean_response_time}
        for n, a, b in zip(args.clients, api, broker)
    ]
    return render_table(rows, title="Figure 9 — processing time, API vs broker")


def run_fig10(args) -> str:
    broker = _qos_sweep(args, "broker")
    rows = [
        {"clients": n, **{f"qos{q}_s": r.mean_response_of(q) for q in _QOS_LEVELS}}
        for n, r in zip(args.clients, broker)
    ]
    return render_table(rows, title="Figure 10 — processing time per QoS class")


def run_table1(args) -> str:
    broker = _qos_sweep(args, "broker")
    rows = [
        {"clients": n, **{f"qos{q}": r.completions[q] for q in _QOS_LEVELS}}
        for n, r in zip(args.clients, broker)
    ]
    return render_table(rows, title="Table I — completed requests per QoS class")


def run_drops(args) -> str:
    broker = _qos_sweep(args, "broker")
    sections = []
    broker_names = sorted(broker[0].drop_ratios)
    for table, name in zip(("II", "III", "IV"), broker_names):
        rows = [
            {"clients": n, **{f"qos{q}": r.drop_ratios[name][q] for q in _QOS_LEVELS}}
            for n, r in zip(args.clients, broker)
        ]
        sections.append(
            render_table(rows, title=f"Table {table} — drop ratios at {name}")
        )
    return "\n\n".join(sections)


def _plan_lines(model: str) -> List[str]:
    """One numbered line per stage of the named plan *model*.

    The name column is as wide as the plan's longest stage name.
    """
    base, extras = NAMED_PLANS[model]
    stages = stage_plan(base, *(extra() for extra in extras))
    width = max(len(stage.name) for stage in stages)
    return [
        f"  {index:>2}. {stage.name:<{width}} {stage.summary()}"
        + ("  [ingress/dispatch boundary]" if stage.boundary else "")
        for index, stage in enumerate(stages, 1)
    ]


def _plan_call(model: str) -> str:
    """The ``stage_plan(...)`` call that builds the named plan *model*."""
    base, extras = NAMED_PLANS[model]
    arguments = [repr(base), *(f"{extra.__name__}()" for extra in extras)]
    return f"stage_plan({', '.join(arguments)})"


def run_pipeline(args) -> str:
    """Render the stage order of the requested broker model(s)."""
    models = tuple(NAMED_PLANS) if args.model == "all" else (args.model,)
    sections = []
    for model in models:
        lines = _plan_lines(model)
        header = f"{model} broker pipeline ({len(lines)} stages):"
        sections.append("\n".join([header, *lines]))
    return "\n\n".join(sections)


def _describe_faults() -> str:
    from .core.faulttolerance import RetryPolicy
    from .net.faults import BackendCrash, LinkDegrade, LinkDown, SlowBackend

    lines = ["Fault types (repro.net.faults — scheduled via FaultPlan):"]
    for cls in (BackendCrash, LinkDown, LinkDegrade, SlowBackend):
        summary = (cls.__doc__ or "").strip().splitlines()[0]
        lines.append(f"  {cls.kind:<14} {summary}")
    lines.append("")
    lines.append(f"Fault-tolerant broker pipeline ({_plan_call('fault-tolerant')}):")
    lines += _plan_lines("fault-tolerant")
    policy = RetryPolicy()
    lines += [
        "",
        "Retry policy defaults: "
        f"max_attempts={policy.max_attempts}, base_delay={policy.base_delay:g}s, "
        f"multiplier={policy.multiplier:g}, jitter={policy.jitter:g}, "
        f"max_delay={policy.max_delay:g}s (exponential backoff, seeded jitter)",
        "",
        "Circuit breaker (one per backend): closed -> open after "
        "failure_threshold consecutive failures; open -> half-open after "
        "reset_timeout; half-open admits probe traffic, closing on success "
        "and re-opening on failure.",
        "",
        "Fault metrics: broker.fault.unreachable, broker.fault.deadline, "
        "broker.fault.breaker_open, broker.fault.failover, "
        "broker.fault.failover_recovered, broker.fault.replies, "
        "broker.retry.attempts, broker.retry.backoff, "
        "broker.retry.recovered, broker.retry.exhausted, "
        "broker.breaker.state, broker.breaker.open, broker.breaker.closed, "
        "broker.breaker.half_open, broker.degraded_replies.",
    ]
    return "\n".join(lines)


def run_faults(args) -> str:
    """Describe the fault-tolerance machinery, or sweep availability vs MTBF."""
    if args.describe:
        return _describe_faults()
    rows = []
    for mtbf in args.mtbf:
        result = workload.run_failure_recovery_experiment(
            mtbf=mtbf,
            mttr=args.mttr,
            replicas=args.replicas,
            duration=args.duration,
            first_crash_at=min(mtbf, args.duration / 4.0),
            seed=args.seed,
        )
        rows.append(
            {
                "mtbf_s": mtbf,
                "outages": result.outages,
                "downtime_s": round(result.downtime, 1),
                "avail_pct": round(100.0 * result.availability, 2),
                "outage_avail_pct": round(100.0 * result.outage_availability, 2),
                "degraded": result.degraded,
                "retries": result.retries,
                "breaker_opens": result.breaker_opens,
                "mean_ms": round(result.latency.mean * 1000, 1),
            }
        )
    return render_table(
        rows,
        title=f"Failure recovery — availability vs MTBF "
        f"(mttr={args.mttr:g}s, replicas={args.replicas})",
    )


def _describe_shard() -> str:
    from .core.sharding import ShardDirectory, ShardGroup
    from .metrics import MetricsRegistry

    lines = [f"Sharded broker pipeline ({_plan_call('sharded')}):"]
    lines += _plan_lines("sharded")
    lines += [
        "",
        "Routing: the front end addresses a *service*; the shard directory",
        "hashes the request key onto a seeded consistent-hash ring (64 vnodes",
        "per shard) and hands back the elected leader of the owning replica",
        "group. A broker that receives a key it does not own relays it to",
        "the owner (shard-route stage, bounded hop count); replicas inside",
        "a group replicate journal entries and elect a new leader by",
        "join-order priority when the current one crashes.",
        "",
        "Sample directory — service 'items', 4 shards x 2 replicas:",
    ]
    metrics = MetricsRegistry()
    groups = []
    for shard in range(4):
        group = ShardGroup("items", shard, metrics)
        for replica in range(2):
            # Just enough broker surface for ShardGroup and describe().
            group.add(SimpleNamespace(
                name=f"items-s{shard}r{replica}",
                address=("web", 7100 + shard * 2 + replica),
                alive=True,
            ))
        groups.append(group)
    directory = ShardDirectory(metrics)
    directory.register("items", groups, seed=2026)
    for line in directory.describe().splitlines():
        lines.append(f"  {line}")
    lines += [
        "",
        "A 1-shard x 1-replica registration is the degenerate case: every",
        "key maps to the only group and the stage plan behaves exactly like",
        "the unsharded broker.",
    ]
    return "\n".join(lines)


def run_shard(args) -> str:
    """Describe the shard tier, or sweep throughput vs shard count."""
    if args.describe:
        return _describe_shard()
    rows = []
    for shards in args.shards:
        result = workload.run_sharded_qos_experiment(
            args.clients,
            shards=shards,
            replicas=args.replicas,
            mode=args.mode,
            duration=args.duration,
            seed=args.seed,
        )
        rows.append(
            {
                "shards": shards,
                "brokers": result.brokers,
                "goodput_rps": round(result.goodput, 2),
                "throughput_rps": round(result.throughput, 1),
                "premium_p99_ms": round(result.premium_p99() * 1000, 1),
                "local": result.local_routes,
                "forwards": result.forwards,
                "elections": result.elections,
                "listener_upd": result.listener_updates,
            }
        )
    return render_table(
        rows,
        title=f"Shard scaling — {args.clients} clients, mode={args.mode}, "
        f"{args.replicas} replicas/shard, {args.duration:g}s virtual",
    )


def _describe_chaos() -> str:
    from .core.lifecycle import DEFAULT_SUPERVISOR_PORT
    from .core.queueing import SHED_POLICIES

    lines = [
        "Chaos soak (repro.workload.chaos.run_chaos_experiment):",
        "",
        "Topology: 1 web node (front end + supervisor, port "
        f"{DEFAULT_SUPERVISOR_PORT}), 2 brokers (chaos-a, chaos-b) each",
        "fronting 2 replicated backends; closed-loop clients fail over to",
        "the sibling broker on timeout or non-OK reply.",
        "",
        "Fault schedule (all seeded, virtual time):",
        "  broker-crash   chaos-a on an exponential MTBF cycle; chaos-b at",
        "                 1.8x that MTBF, plus two sub-detection 'blip'",
        "                 crashes that exercise journal replay on restart",
        "  link-down      web <-> backend2 flaps (0.5 s each)",
        "  load spike     open-loop class-3 burst every spike interval",
        "",
        "Protection under test: bounded BrokerQueue with QoS-aware",
        f"shedding ({', '.join(SHED_POLICIES)}), backpressure watermarks,",
        "heartbeat supervision with fail-fast, and a recovery journal",
        "(replay | shed) consumed on broker restart.",
        "",
        "Invariants checked after the drain:",
        "  no-lost-request         every issued request got exactly one",
        "                          terminal reply; no queued/journaled residue",
        "  post-crash-consistency  restarts == crashes; all brokers alive",
        "                          and seen by the supervisor",
        "  queue-bound             per-broker peak depth <= capacity",
        "  availability-floor      (ok + degraded) / requests >= floor",
        "",
        "Exit status is 1 if any invariant fails. --summary-out writes the",
        "full counters and verdicts as JSON for CI artifacts.",
    ]
    return "\n".join(lines)


def _steady_lines(result, floor: float) -> List[str]:
    """The steady-workload, latency and availability lines of a soak."""
    return [
        f"steady workload : {result.requests} requests  "
        f"ok={result.ok} degraded={result.degraded} "
        f"dropped={result.dropped} timeouts={result.timeouts} "
        f"errors={result.errors} failovers={result.failovers}",
        f"latency         : p50={result.latency.percentile(50) * 1000:.1f}ms  "
        f"p99={result.latency.percentile(99) * 1000:.1f}ms",
        f"availability    : {100.0 * result.availability:.3f}% "
        f"(floor {100.0 * floor:g}%)",
    ]


def run_chaos(args) -> str:
    """Run the seeded chaos soak and check its invariants."""
    if args.describe:
        return _describe_chaos()
    duration = 90.0 if args.quick else args.duration
    if args.shards > 0:
        return _run_shard_chaos(args, duration)
    result = workload.run_chaos_experiment(
        duration=duration,
        mtbf=args.mtbf,
        mttr=args.mttr,
        capacity=args.capacity,
        shed_policy=args.policy,
        recovery_policy=args.recovery,
        availability_floor=args.availability_floor,
        seed=args.seed,
    )
    lines = [
        f"Chaos soak — {duration:g}s virtual, seed={args.seed}, "
        f"capacity={args.capacity}, policy={args.policy}, "
        f"mtbf={args.mtbf:g}s, mttr={args.mttr:g}s, "
        f"recovery={args.recovery}",
        "",
        *_steady_lines(result, args.availability_floor),
        f"spike traffic   : {result.spike_requests} requests  "
        f"ok={result.spike_ok} degraded={result.spike_degraded} "
        f"dropped={result.spike_dropped} timeouts={result.spike_timeouts}",
        f"lifecycle       : crashes={result.crashes} "
        f"restarts={result.restarts} detected={result.detected} "
        f"recoveries={result.recoveries}",
        f"journal         : failed_fast={result.failed_fast} "
        f"replayed={result.replayed} restart_shed={result.restart_shed}",
        f"shedding        : shed_total={result.shed_total}  peak depths "
        + " ".join(
            f"{name}={depth}" for name, depth in sorted(result.peak_depths.items())
        ),
        f"link faults     : {result.link_faults}",
        "",
    ]
    return _finish_verdict_report(args, result, lines)


def _run_shard_chaos(args, duration: float) -> str:
    """Shard-mode chaos: kill a rotating shard leader every N seconds."""
    result = workload.run_shard_chaos_experiment(
        duration=duration,
        shards=args.shards,
        replicas=args.replicas,
        leader_kill_every=args.leader_kill_every,
        mttr=args.mttr,
        availability_floor=args.availability_floor,
        seed=args.seed,
    )
    lines = [
        f"Shard chaos soak — {duration:g}s virtual, seed={args.seed}, "
        f"{args.shards} shards x {args.replicas} replicas "
        f"({args.shards * args.replicas} brokers), "
        f"leader kill every {args.leader_kill_every:g}s, mttr={args.mttr:g}s",
        "",
        *_steady_lines(result, args.availability_floor),
        f"leadership      : leader_kills={result.leader_kills} "
        f"elections={result.elections} "
        f"reporting_failovers={result.leader_failovers}",
        f"peering         : route_adverts={result.route_adverts} "
        f"journal_syncs={result.journal_syncs} forwards={result.forwards}",
        f"lifecycle       : crashes={result.crashes} "
        f"restarts={result.restarts} detected={result.detected} "
        f"recoveries={result.recoveries}",
        f"journal         : failed_fast={result.failed_fast} "
        f"replayed={result.replayed} restart_shed={result.restart_shed}",
        "",
    ]
    return _finish_verdict_report(args, result, lines)


def _describe_autoscale() -> str:
    from .workload.chaos import AUTOSCALE_POLICY as policy
    from .workload.chaos import SCALE_CHAOS_POLICY as soak

    lines = [
        "Elastic autoscaling (repro.core.autoscale + run_autoscale_experiment):",
        "",
        "Control loop: every interval the Autoscaler averages per-broker",
        "outstanding load (TelemetryScraper 'broker.load.<name>' series,",
        "falling back to live broker gauges) and target-tracks it:",
        f"  desired = ceil(size * signal / target), hysteresis band ±{policy.hysteresis:g},",
        f"  step-limited to ±{policy.max_step} units, clamped to "
        f"[{policy.min_size}, {policy.max_size}],",
        f"  cooldowns {policy.scale_out_cooldown:g}s out / "
        f"{policy.scale_in_cooldown:g}s in ({soak.scale_in_cooldown:g}s in with --soak);",
        "  an active SLO fast-burn alert vetoes scale-in (never scale-out).",
        "",
        "Graceful drain (scale-in, newest unit first):",
        "  1. leave the consistent-hash ring — no new work routes here",
        "  2. begin_drain — the broker refuses fresh rx as DROPPED/draining",
        "  3. quiesce — wait for queue + admissions + journal to empty",
        "  4. on grace expiry, hand leftover journal entries to a live",
        "     peer (rewritten to the peer's service alias)",
        "  5. leave the shard group, deregister from the load listener,",
        "     release supervision, decommission",
        "A broker crashed mid-drain restarts still draining (the flag",
        "survives restart) and the coordinator resumes with fresh grace.",
        "",
        "Per-tenant throttling: token buckets (rate/burst, overridable per",
        "tenant) refuse excess as DROPPED/throttled at the broker",
        "ThrottleStage. A throttle refusal is 'we refused', not 'we lost':",
        "it is excluded from SLO burn and from the availability",
        "denominator.",
        "",
        "Headline run: three diurnal QoS classes sweep base..base*swing",
        "once per period plus a flash-crowd tenant ('burst') whose bucket",
        "is sized so crowds are refused, not absorbed. Invariants:",
        "  premium-p99             class-1 p99 within the SLO",
        "  pool-efficiency         time-mean size <= 1.5x steady-state",
        "  elasticity              the pool actually tracked the swing",
        "  throttle-containment    burst throttled, premium never",
        "  no-lost-request         zero residue, all requests terminal",
        "",
        "--soak runs the scale-chaos variant instead: a square wave forces",
        "a scale-out/scale-in cycle per period while a drain sniper",
        "crashes every 2nd draining broker mid-protocol. Invariants add",
        "scale-in-coverage, drain-completion, pool-bounds,",
        "post-crash-consistency, and availability-floor.",
        "",
        "Exit status is 1 if any invariant fails. --summary-out writes the",
        "full counters and verdicts as JSON for CI artifacts.",
    ]
    return "\n".join(lines)


def run_autoscale(args) -> str:
    """Run the elastic-pool headline (or the --soak scale-chaos soak)."""
    if args.describe:
        return _describe_autoscale()
    if args.soak:
        return _run_scale_chaos(args)
    duration = args.duration
    period = args.period
    if duration is None:
        duration = 120.0 if args.quick else 240.0
    target = 3.0 if args.target is None else args.target
    result = workload.run_autoscale_experiment(
        duration=duration,
        swing=args.swing,
        period=period,
        target=target,
        seed=args.seed,
    )
    premium = result.premium_p99()
    premium_text = "n/a" if premium != premium else f"{premium * 1000:.1f}ms"
    lines = [
        f"Autoscale headline — {duration:g}s virtual, seed={args.seed}, "
        f"diurnal {result.base_rate:g}..{result.peak_rate:g} req/s "
        f"(swing {args.swing:g}x, period {period:g}s), target={target:g}",
        "",
        f"workload        : {result.requests} requests  ok={result.ok} "
        f"degraded={result.degraded} throttled={result.throttled} "
        f"dropped={result.dropped} timeouts={result.timeouts} "
        f"errors={result.errors}",
        f"availability    : {100.0 * result.availability:.3f}% of "
        "non-throttled traffic",
        f"premium p99     : {premium_text}",
        "tenants         : "
        + "  ".join(
            f"{name}={info.get('requests', 0)}req/"
            f"{info.get('throttled', 0)}thr"
            for name, info in sorted(result.tenants.items())
        ),
        f"pool economy    : steady={result.steady_size} "
        f"mean={result.mean_size:.2f} peak={result.peak_size} "
        f"min={result.min_size} provisioned={result.provisioned}",
        f"scaling         : outs={result.scale_outs} ins={result.scale_ins} "
        f"drains={result.drains_completed} handoffs={result.handoffs} "
        f"drain_refused={result.drain_refused}",
        f"control loop    : alerts={result.alerts} "
        f"vetoed_by_alert={result.blocked_by_alert} "
        f"held_by_cooldown={result.blocked_by_cooldown}",
        "",
    ]
    return _finish_verdict_report(args, result, lines)


def _run_scale_chaos(args) -> str:
    """The --soak arm: square-wave load plus the mid-drain sniper."""
    duration = args.duration
    min_scale_ins = args.min_scale_ins
    min_kills = 3
    if args.quick:
        duration = 120.0 if duration is None else duration
        min_scale_ins = 8 if min_scale_ins is None else min_scale_ins
        min_kills = 1
    else:
        duration = 264.0 if duration is None else duration
        min_scale_ins = 20 if min_scale_ins is None else min_scale_ins
    target = 2.5 if args.target is None else args.target
    result = workload.run_scale_chaos_experiment(
        duration=duration,
        wave_period=args.wave_period,
        target=target,
        min_scale_ins=min_scale_ins,
        min_mid_drain_kills=min_kills,
        seed=args.seed,
    )
    lines = [
        f"Scale-chaos soak — {duration:g}s virtual, seed={args.seed}, "
        f"square wave {result.base_rate:g}/{result.high_rate:g} req/s "
        f"every {result.wave_period:g}s, target={target:g}, "
        f"mttr={result.mttr:g}s",
        "",
        f"workload        : {result.requests} requests  ok={result.ok} "
        f"degraded={result.degraded} dropped={result.dropped} "
        f"timeouts={result.timeouts} errors={result.errors}",
        f"latency         : "
        f"p50={result.latency.percentile(50) * 1000:.1f}ms  "
        f"p99={result.latency.percentile(99) * 1000:.1f}ms",
        f"availability    : {100.0 * result.availability:.3f}%",
        f"pool            : provisioned={result.provisioned} "
        f"peak={result.peak_size} min={result.min_size}",
        f"scaling         : outs={result.scale_outs} ins={result.scale_ins} "
        f"drains={result.drains_completed} handoffs={result.handoffs} "
        f"drain_refused={result.drain_refused}",
        f"chaos           : mid_drain_kills={result.mid_drain_kills} "
        f"interrupted={result.drain_interrupted} crashes={result.crashes} "
        f"restarts={result.restarts}",
        f"journal         : failed_fast={result.failed_fast} "
        f"replayed={result.replayed}",
        "",
    ]
    return _finish_verdict_report(args, result, lines)


def _write_summary(path: str, payload: Dict[str, Any]) -> str:
    """Write the ``--summary-out`` JSON file; returns the report's closing line."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return f"\n\nsummary written to {path}"


def _finish_verdict_report(args, result, lines: List[str]) -> str:
    """Shared invariant/summary tail of the chaos and autoscale reports."""
    failed = []
    for check in result.invariants:
        verdict = "PASS" if check.passed else "FAIL"
        lines.append(f"INVARIANT {check.name:<24} {verdict} — {check.detail}")
        if not check.passed:
            failed.append(check.name)
    report = "\n".join(lines)
    if args.summary_out:
        payload = result.to_summary()
        payload["invariants_hold"] = result.all_invariants_hold
        report += _write_summary(args.summary_out, payload)
    if failed:
        raise ChaosInvariantFailure(report, failed)
    return report


def _describe_cache() -> str:
    lines = [f"Cache-tier broker pipeline ({_plan_call('cache-tier')}):"]
    lines += _plan_lines("cache-tier")
    lines += [
        "",
        "Shared cache tier (repro.core.cachetier.SharedCacheTier): one",
        "store behind every broker's local ResultCache. A local miss",
        "probes the tier before admission (cache-tier stage); every",
        "backend result fills both layers (cache-fill stage), so a result",
        "fetched through any broker serves later requests at every broker.",
        "",
        "Write-behind: tier.write_behind invalidates the stale keys",
        "immediately, queues the write on a bounded flush queue, and",
        "applies it asynchronously in seeded batches; a full queue refuses",
        "the write and the caller falls back to synchronous write-through.",
        "Keys written inside a transaction are invalidated again when the",
        "transaction completes.",
        "",
        "Cross-broker combining (query-combine stage): a dispatcher about",
        "to execute a combinable shape broadcasts a CombinableAdvert over",
        "the peer mesh and holds its window open; peers reaching the same",
        "shape while the advert is fresh yield, and the advertiser claims",
        "their queued matches into one deployment-wide IN-list query,",
        "transferring each claimed request's admission slot and journal",
        "entry to itself.",
        "",
        "Materialized views (repro.db.views.ViewCatalog): grouped",
        "aggregates registered on the database are answered from a",
        "precomputed index; a write to the base table marks the view",
        "dirty and the next read refreshes it lazily, recomputing only",
        "the groups the writes touched (through the base table's index on",
        "the grouping column; a full rebuild without one).",
        "",
        "Metric families: broker.cache.* mirrors the per-broker local",
        "caches; broker.cachetier.* covers the shared store, write-behind",
        "queue, and cross-broker combining; db.view.hits and",
        "db.view.invalidations count view serves and dirty-markings.",
    ]
    return "\n".join(lines)


#: The counters of each ``repro cache`` run that ``--summary-out`` writes.
_CACHE_SUMMARY_FIELDS = (
    "requests", "ok", "errors", "timeouts", "backend_queries", "from_cache",
    "local_hits", "tier_hits", "tier_hit_ratio", "view_hits", "combine_batches",
    "combine_remote_items", "combine_yields", "write_behind_accepted",
    "write_behind_flushed", "write_behind_overflow",
)


def run_cache(args) -> str:
    """Describe the tier, or measure its backend-load reduction at scale."""
    if args.describe:
        return _describe_cache()
    clients = 60 if args.quick else args.clients
    duration = 5.0 if args.quick else args.duration
    runs = {}
    for enabled in (False, True):
        runs[enabled] = workload.run_cache_tier_experiment(
            n_clients=clients,
            brokers=args.brokers,
            duration=duration,
            tier=enabled,
            views=not args.no_views,
            cache_ttl=args.ttl,
            seed=args.seed,
        )
    base, tier = runs[False], runs[True]
    reduction = base.backend_queries / max(tier.backend_queries, 1)
    rows = [
        {
            "mode": "local-caches" if not r.tier_enabled else "shared-tier",
            "requests": r.requests,
            "ok": r.ok,
            "backend_q": r.backend_queries,
            "cache_srv_pct": round(100.0 * r.cache_served_ratio, 1),
            "tier_hits": r.tier_hits,
            "view_hits": r.view_hits,
            "mean_ms": round(r.latency.mean * 1000, 2),
            "p99_ms": round(r.latency.p99 * 1000, 2),
        }
        for r in (base, tier)
    ]
    report = render_table(
        rows,
        title=f"Cross-request optimization tier — {clients} clients, "
        f"{args.brokers} brokers, {duration:g}s virtual, seed={args.seed}",
    )
    report += (
        "\n\n"
        f"backend-load reduction : {reduction:.2f}x "
        f"({base.backend_queries} -> {tier.backend_queries} statements)\n"
        f"shared tier            : hit ratio "
        f"{100.0 * tier.tier_hit_ratio:.1f}% among local misses\n"
        f"combining              : batches={tier.combine_batches} "
        f"remote_items={tier.combine_remote_items} "
        f"yields={tier.combine_yields}\n"
        f"write-behind           : accepted={tier.write_behind_accepted} "
        f"flushed={tier.write_behind_flushed} "
        f"overflow={tier.write_behind_overflow} (overflow -> write-through)"
    )
    if args.summary_out:
        payload = {
            "clients": clients,
            "brokers": args.brokers,
            "duration": duration,
            "seed": args.seed,
            "reduction": reduction,
            "modes": {
                name: {
                    **{field: getattr(r, field) for field in _CACHE_SUMMARY_FIELDS},
                    "mean_latency": r.latency.mean,
                    "p99_latency": r.latency.p99,
                }
                for name, r in (("local-caches", base), ("shared-tier", tier))
            },
        }
        report += _write_summary(args.summary_out, payload)
    return report


def run_obs(args) -> str:
    """Run the tracing toolkit; see :mod:`repro.obs.inspect`."""
    from .obs import describe_obs, run_obs_command

    if args.describe:
        return describe_obs()
    return run_obs_command(
        scenario=args.scenario,
        clients=args.clients,
        duration=args.duration,
        degree=args.degree,
        trace_sample=args.trace_sample,
        slowest=args.slowest,
        export=args.export,
        jsonl=args.jsonl,
        quick=args.quick,
        seed=args.seed,
    )


def run_telemetry(args) -> str:
    """Run the telemetry tier; see :mod:`repro.obs.telemetry`."""
    from .obs import describe_telemetry, run_telemetry_command

    if args.describe:
        return describe_telemetry()
    lines: list = []
    run_telemetry_command(
        scenario=args.scenario,
        clients=args.clients,
        duration=args.duration,
        interval=args.interval,
        seed=args.seed,
        shards=args.shards,
        replicas=args.replicas,
        slo=args.slo,
        dashboard=args.dashboard,
        export=args.export,
        quick=args.quick,
        emit=lines.append,
    )
    return "\n".join(lines)


#: One flag: its name and the keyword options of ``add_argument``.
Flag = Tuple[str, Dict[str, Any]]


class Command(NamedTuple):
    """One subcommand: its name, help line, runner and flags, in order."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], str]
    flags: Tuple[Flag, ...]
    seed: bool = True  # takes the shared --seed flag


def _switch(name: str, help: str) -> Flag:
    return (name, dict(action="store_true", help=help))


def _describe(what: str) -> Flag:
    return _switch("--describe", f"print {what} without running anything")


_QOS_SWEEP_FLAGS: Tuple[Flag, ...] = (
    ("--clients", dict(type=_int_list, default=DEFAULT_CLIENTS,
                       help=f"client counts (default {DEFAULT_CLIENTS})")),
    ("--duration", dict(type=float, default=120.0,
                        help="virtual seconds per point (default 120)")),
)

#: Every subcommand, in ``--help`` order; a flag's position in its row is
#: its position in the subcommand's usage line and help.
COMMANDS: Tuple[Command, ...] = (
    Command("fig7", "Figure 7: request clustering sweep", run_fig7, (
        ("--degrees", dict(type=_int_list, default=DEFAULT_DEGREES,
                           help=f"degrees of clustering (default {DEFAULT_DEGREES})")),
    )),
    Command("fig9", "Figure 9: API vs broker processing time", run_fig9, _QOS_SWEEP_FLAGS),
    Command("fig10", "Figure 10: per-QoS-class processing time", run_fig10, _QOS_SWEEP_FLAGS),
    Command("table1", "Table I: completions per QoS class", run_table1, _QOS_SWEEP_FLAGS),
    Command("drops", "Tables II-IV: drop ratios at each broker", run_drops, _QOS_SWEEP_FLAGS),
    Command("pipeline", "describe the broker's stage pipeline", run_pipeline, (
        _switch("--describe", "print the stage order of the selected model(s)"),
        ("--model", dict(choices=(*NAMED_PLANS, "all"), default="all",
                         help="which stage plan to describe (default: all)")),
    ), seed=False),
    Command(
        "faults", "failure recovery: fault injection, retries, breakers, failover",
        run_faults, (
            _describe("the fault types, the fault-tolerant stage plan, and the "
                      "retry/breaker policies"),
            ("--mtbf", dict(type=_float_list, default="40,20,10",
                            help="mean time between failures, seconds (default 40,20,10)")),
            ("--mttr", dict(type=float, default=5.0,
                            help="repair time per crash, seconds (default 5)")),
            ("--replicas", dict(type=int, default=2,
                                help="replica backends behind the broker (default 2)")),
            ("--duration", dict(type=float, default=120.0,
                                help="virtual seconds per point (default 120)")),
        ),
    ),
    Command(
        "shard", "shard-aware broker tier: consistent-hash routing, replica groups, "
        "leader election",
        run_shard, (
            _describe("the sharded stage plan and a sample shard directory"),
            ("--shards", dict(type=_int_list, default="1,2,4,8",
                              help="shard counts to sweep (default 1,2,4,8)")),
            ("--replicas", dict(type=int, default=2,
                                help="replica brokers per shard group (default 2)")),
            ("--clients", dict(type=int, default=40,
                               help="closed-loop clients per point (default 40)")),
            ("--mode", dict(choices=("broker", "centralized"), default="centralized",
                            help="base broker model under the shard router "
                            "(default centralized, which exercises the load listener)")),
            ("--duration", dict(type=float, default=60.0,
                                help="virtual seconds per point (default 60)")),
        ),
    ),
    Command(
        "obs", "end-to-end request tracing: waterfalls, histograms, exports", run_obs, (
            _describe("the span model, overhead contract, and exporter formats"),
            ("--scenario", dict(choices=("qos", "fig7", "faults"), default="qos",
                                help="which testbed to trace (default: qos, the §V.B macro)")),
            ("--clients", dict(type=int, default=60,
                               help="client count for the qos scenario (default 60)")),
            ("--duration", dict(type=float, default=120.0,
                                help="virtual seconds for qos/faults scenarios (default 120)")),
            ("--degree", dict(type=int, default=8,
                              help="degree of clustering for the fig7 scenario (default 8)")),
            ("--trace-sample", dict(type=int, default=1,
                                    help="keep every Nth root request's trace "
                                    "(default 1 = all)")),
            ("--slowest", dict(type=int, default=5,
                               help="how many slowest-request waterfalls to print (default 5)")),
            ("--export", dict(help="write a Chrome trace_event JSON file (chrome://tracing)")),
            ("--jsonl", dict(help="write one JSON object per span to this file")),
            _switch("--quick", "shrunken run (~seconds) for CI smoke tests"),
        ),
    ),
    Command(
        "chaos", "chaos soak: broker crashes, link flaps, load spikes, invariant checks",
        run_chaos, (
            _describe("the chaos schedule, topology, and invariants"),
            _switch("--quick", "90-second soak (~1s wall) for CI smoke runs"),
            ("--duration", dict(type=float, default=300.0,
                                help="virtual seconds of chaos (default 300)")),
            ("--capacity", dict(type=int, default=48,
                                help="bounded broker queue capacity (default 48)")),
            ("--policy", dict(choices=("reject-new", "drop-oldest", "drop-lowest"),
                              default="drop-lowest",
                              help="queue shedding policy (default drop-lowest)")),
            ("--mtbf", dict(type=float, default=25.0,
                            help="broker A mean time between failures, seconds "
                            "(default 25; broker B fails at 1.8x this)")),
            ("--mttr", dict(type=float, default=2.0,
                            help="broker repair time per crash, seconds (default 2)")),
            ("--recovery", dict(choices=("replay", "shed"), default="replay",
                                help="journal recovery policy on restart (default replay)")),
            ("--availability-floor", dict(type=float, default=0.99,
                                          help="minimum answered fraction of the steady "
                                          "workload (default 0.99)")),
            ("--summary-out", dict(help="write the run summary and invariant verdicts "
                                   "as JSON here")),
            ("--shards", dict(type=int, default=0,
                              help="run the shard-leader-kill soak over N shard groups "
                              "instead of the classic two-broker soak (default 0 = classic)")),
            ("--replicas", dict(type=int, default=2,
                                help="replica brokers per shard group in shard mode "
                                "(default 2)")),
            ("--leader-kill-every", dict(type=float, default=25.0,
                                         help="in shard mode, crash a rotating shard leader "
                                         "this often, seconds (default 25)")),
        ),
    ),
    Command(
        "cache", "cross-request optimization tier: shared cache, cross-broker query "
        "combining, materialized views",
        run_cache, (
            _describe("the cache-tier stage plan, the write-behind contract, and the "
                      "metric families"),
            ("--clients", dict(type=int, default=600,
                               help="closed-loop clients (default 600, 10x the paper's "
                               "section V.B maximum)")),
            ("--brokers", dict(type=int, default=4,
                               help="brokers sharing the tier (default 4)")),
            ("--duration", dict(type=float, default=30.0,
                                help="virtual seconds per mode (default 30)")),
            ("--ttl", dict(type=float, default=2.0,
                           help="cache entry time-to-live, both layers (default 2)")),
            _switch("--no-views", "disable the materialized view in the tier-enabled run"),
            _switch("--quick", "shrunken run (60 clients, 5s) for CI smoke tests"),
            ("--summary-out", dict(help="write both runs' counters and the reduction "
                                   "factor as JSON")),
        ),
    ),
    Command(
        "telemetry", "in-flight time-series telemetry, SLO burn-rate alerts, and the "
        "live operator dashboard",
        run_telemetry, (
            _describe("the scrape model, SLO engine, and exporter formats"),
            ("--scenario", dict(choices=("qos", "chaos", "shard"), default="qos",
                                help="which testbed to scrape (default: qos, the §V.B macro)")),
            ("--clients", dict(type=int, default=60,
                               help="client count for qos/shard scenarios (default 60)")),
            ("--duration", dict(type=float, default=120.0,
                                help="virtual seconds to run and scrape (default 120)")),
            ("--interval", dict(type=float, default=1.0,
                                help="scrape interval in virtual seconds (default 1.0)")),
            ("--shards", dict(type=int, default=4,
                              help="shard groups for the shard scenario (default 4)")),
            ("--replicas", dict(type=int, default=2,
                                help="replica brokers per shard group (default 2)")),
            _switch("--slo", "print the SLO table and the burn-rate alert timeline"),
            _switch("--dashboard", "render the terminal sparkline dashboard after the run"),
            ("--export", dict(help="write per-scrape telemetry JSONL here (a Prometheus "
                              "text snapshot lands next to it with a .prom suffix)")),
            _switch("--quick", "shrunken run (12 clients, 30s) for CI smoke tests"),
        ),
    ),
    Command(
        "autoscale", "elastic broker pool: target-tracking autoscaler, graceful drain, "
        "per-tenant throttling, and the scale-chaos soak",
        run_autoscale, (
            _describe("the control loop, drain protocol, and invariants"),
            _switch("--soak", "run the scale-chaos soak (square-wave load plus a drain "
                    "sniper crashing brokers mid-drain) instead of the diurnal "
                    "headline experiment"),
            _switch("--quick", "shrunken run for CI smoke tests (headline: 120s; "
                    "soak: 120s with proportionally lower event floors)"),
            ("--duration", dict(type=float,
                                help="virtual seconds to run (default 240 headline, 264 soak)")),
            ("--period", dict(type=float, default=120.0,
                              help="diurnal period in virtual seconds, headline only "
                              "(default 120)")),
            ("--swing", dict(type=float, default=10.0,
                             help="peak-to-base arrival-rate ratio for the diurnal wave, "
                             "headline only (default 10)")),
            ("--target", dict(type=float,
                              help="target outstanding requests per broker for the "
                              "target-tracking policy (default 3.0 headline, 2.5 soak)")),
            ("--wave-period", dict(type=float, default=24.0,
                                   help="square-wave period in virtual seconds, soak only "
                                   "(default 24)")),
            ("--min-scale-ins", dict(type=int,
                                     help="soak invariant floor on completed scale-in events "
                                     "(default 20, or 8 with --quick)")),
            ("--summary-out", dict(help="write the experiment summary and invariant "
                                   "verdicts as JSON")),
        ),
    ),
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro`` CLI: one subparser per :data:`COMMANDS` row."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the evaluation artifacts of Chen & Mohapatra, "
        "'Using Service Brokers for Accessing Backend Servers for Web "
        "Applications' (ICDCS 2003).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=2026, help="master RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        parents = [common] if command.seed else []
        cmd = sub.add_parser(command.name, parents=parents, help=command.help)
        for name, options in command.flags:
            cmd.add_argument(name, **options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = next(command for command in COMMANDS if command.name == args.command)
    try:
        print(command.run(args))
    except ChaosInvariantFailure as failure:
        print(failure.report)
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    except ValueError as error:
        # A flag value the experiment rejects is a usage error: exit 2 in
        # argparse's one-line form, never 1 ("an invariant failed").
        parser.exit(2, f"{parser.prog} {args.command}: error: {error}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
