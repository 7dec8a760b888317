"""Overload and chaos testbeds for the robustness features.

* :func:`run_overload_experiment` — drives one broker past saturation
  with open-loop Poisson traffic and compares the bounded-queue
  backpressure configuration against the unprotected baseline (the
  paper's binary forward-or-drop testbed: FCFS, unbounded backlog).
  The claim under test: with QoS-aware shedding, premium goodput at
  2× saturation stays within a few percent of the uncontended run,
  while the unprotected broker's premium latency collapses.
* :func:`run_chaos_experiment` — a seeded chaos soak: two replica
  brokers under a :class:`~repro.core.lifecycle.BrokerSupervisor`
  while a :class:`~repro.net.faults.FaultInjector` replays broker
  crash/restart cycles, link flaps, and open-loop load spikes on top
  of a steady closed-loop workload. The run ends with a set of
  machine-checked :class:`InvariantCheck` verdicts (no request lost
  without a reply, post-crash accounting consistent, queue bound
  respected, availability floor met).
* :func:`run_shard_chaos_experiment` — the shard-tier soak: one
  service fronted by N shards × R replica brokers
  (:mod:`repro.core.sharding`) while a leader-killer process crashes
  the *current leader* of a rotating shard every ``leader_kill_every``
  seconds. Clients address the service through the
  :class:`~repro.core.sharding.ShardDirectory` and must ride each
  bully election; the verdicts add leadership convergence to the
  no-lost-request / post-crash / availability checks.
* :func:`run_autoscale_experiment` — the elastic-pool headline: a
  10× diurnal swing plus a throttled tenant's flash crowds against a
  :class:`~repro.core.autoscale.BrokerPool` driven by an
  :class:`~repro.core.autoscale.Autoscaler` (telemetry-fed,
  SLO-vetoed). Verdicts: premium p99 held, pool efficiency vs static
  provisioning, throttle containment, and no lost request across
  every graceful drain.
* :func:`run_scale_chaos_experiment` — the scale-chaos soak: a square
  wave forces the pool through dozens of scale-in drains while a
  sniper process crashes brokers *mid-drain*; the drain protocol must
  resume after each resurrection and still never lose a request.

All are plain functions returning result dataclasses; the ``repro
chaos`` / ``repro autoscale`` CLIs and the matching benchmarks render
them. Every experiment counts its requests into one
:class:`~repro.workload.clients.OutcomeTally`, takes one residue
snapshot (:func:`_residue`) and states its shared verdicts through one
function each (:func:`_no_lost_request`, :func:`_post_crash_consistency`,
:func:`_availability_floor`); every result's summary follows one rule
(:class:`_Verdicts`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.adapters import HttpAdapter
from ..core.autoscale import (
    Autoscaler,
    AutoscalerPolicy,
    BrokerPool,
    TenantThrottle,
)
from ..core.broker import ServiceBroker
from ..core.cache import ResultCache
from ..core.client import BrokerClient
from ..core.faulttolerance import RetryPolicy
from ..core.lifecycle import BrokerSupervisor, RecoveryJournal
from ..core.pipeline import (
    BackpressureStage,
    CircuitBreakerStage,
    RetryStage,
    ShardRouteStage,
    ThrottleStage,
    stage_plan,
)
from ..core.protocol import ReplyStatus
from ..core.qos import QoSPolicy
from ..core.sharding import ShardDirectory, ShardGroup
from ..errors import BrokerError, BrokerTimeout
from ..http.server import BackendWebServer, item_cgi
from ..metrics import MetricsRegistry, SummaryStats
from ..net.faults import BrokerCrash, FaultInjector, FaultPlan, LinkDown
from ..net.link import Link
from ..net.network import Network
from ..sim.core import Simulation
from .clients import (
    ClosedLoopClient,
    DiurnalLoadGenerator,
    FlashCrowdGenerator,
    OpenLoopGenerator,
    OutcomeTally,
)

__all__ = [
    "OverloadResult",
    "run_overload_experiment",
    "InvariantCheck",
    "ChaosResult",
    "run_chaos_experiment",
    "ShardChaosResult",
    "run_shard_chaos_experiment",
    "AutoscaleResult",
    "run_autoscale_experiment",
    "ScaleChaosResult",
    "run_scale_chaos_experiment",
]

# Calibration. An entry point takes a parameter only when some caller
# sets it; every other value of a testbed is one of these constants,
# written once where several testbeds share it.

#: Every testbed's backend CGI time (seconds) and item key pool.
_SERVICE_TIME = 0.1
_KEY_POOL = 512
#: A reply slower than this (seconds) counts against the soaks' SLOs.
_FAST_THRESHOLD = 0.5
#: A hardened broker's queue bound and shed policy.
_CAPACITY = 48
_SHED_POLICY = "drop-lowest"
#: Tries per request where a client retries (shard chaos, elastic pool).
_MAX_TRIES = 3

#: Overload: class 1's fixed Poisson rate and the backend's capacity.
_OVERLOAD_PREMIUM_RATE = 8.0
_OVERLOAD_BACKEND_CAPACITY = 4

#: The supervised soaks (chaos, shard chaos): closed-loop clients, their
#: think time, and each backend's capacity.
_SOAK_CLIENTS = 10
_SOAK_THINK_TIME = 0.05
_SOAK_BACKEND_CAPACITY = 5

#: Chaos soak: per-attempt timeout, class-3 load spikes (every, for,
#: rate), the repair time of the two blip crashes, and the cache TTL.
_CHAOS_ATTEMPT_TIMEOUT = 1.0
_SPIKE_EVERY = 90.0
_SPIKE_DURATION = 8.0
_SPIKE_RATE = 100.0
_BLIP_MTTR = 0.08
_CHAOS_CACHE_TTL = 0.5

#: Shard chaos: per-attempt timeout and each replica's load-report interval.
_SHARD_ATTEMPT_TIMEOUT = 0.75
_SHARD_REPORT_INTERVAL = 0.1

#: The elastic pool (autoscale headline and scale-chaos soak): each
#: unit's backend capacity, the drain grace, per-attempt timeout, and
#: the autoscaler's evaluation interval.
_POOL_BACKEND_CAPACITY = 4
_POOL_DRAIN_GRACE = 2.0
_POOL_ATTEMPT_TIMEOUT = 2.0
_CONTROL_INTERVAL = 1.0

#: The headline's control loop; ``run_autoscale_experiment`` sets the target.
AUTOSCALE_POLICY = AutoscalerPolicy(
    target=3.0, hysteresis=0.3, scale_out_cooldown=2.0, scale_in_cooldown=10.0,
    max_step=2, min_size=1, max_size=6,
)
#: The scale-chaos soak's: the same loop scaling in sooner, so every
#: wave ends in drains.
SCALE_CHAOS_POLICY = replace(AUTOSCALE_POLICY, target=2.5, scale_in_cooldown=6.0)

#: Autoscale headline: the diurnal base rate, the starting pool size,
#: the telemetry scrape interval, the tenant throttle (rate, burst) and
#: the burst tenant's trickle, bucket and crowd multiplier, then the
#: verdicts' premium p99 SLO, efficiency factor and unit headroom.
_DIURNAL_BASE_RATE = 8.0
_AUTOSCALE_INITIAL_SIZE = 2
_SCRAPE_INTERVAL = 0.5
_THROTTLE_RATE = 200.0
_THROTTLE_BURST = 400.0
_BURST_RATE = 2.0
_BURST_ALLOWANCE = (4.0, 8.0)
_BURST_MULTIPLIER = 20.0
_PREMIUM_P99_SLO = 1.0
_EFFICIENCY_FACTOR = 1.5
_HEADROOM = 0.75

#: Scale-chaos soak: the square wave's low rate and high multiplier, the
#: starting pool size, the sniper's repair time, cadence (every Nth
#: drain) and poll interval, and the availability floor.
_WAVE_BASE_RATE = 6.0
_WAVE_HIGH_MULTIPLIER = 10.0
_SCALE_CHAOS_INITIAL_SIZE = 1
_SNIPER_MTTR = 1.0
_SNIPE_EVERY = 2
_SNIPER_POLL = 0.25
_SCALE_CHAOS_AVAILABILITY_FLOOR = 0.97


# ---------------------------------------------------------------------------
# Overload / backpressure ablation
# ---------------------------------------------------------------------------


@dataclass
class OverloadResult:
    """One overload run: per-class goodput and latency under saturation."""

    saturation: float
    bounded: bool
    capacity: Optional[int]
    shed_policy: str
    duration: float
    #: Offered Poisson rate per QoS class (requests/second).
    offered: Dict[int, float] = field(default_factory=dict)
    issued: Dict[int, int] = field(default_factory=dict)
    ok: Dict[int, int] = field(default_factory=dict)
    degraded: Dict[int, int] = field(default_factory=dict)
    dropped: Dict[int, int] = field(default_factory=dict)
    #: OK replies delivered inside the issue window, per second.
    goodput: Dict[int, float] = field(default_factory=dict)
    #: Latency of OK replies only (sheds answer instantly and would
    #: otherwise flatter the protected configuration).
    latency: Dict[int, SummaryStats] = field(default_factory=dict)
    shed: int = 0
    peak_depth: int = 0
    backpressure_engaged: int = 0

    @property
    def premium_goodput(self) -> float:
        """Class-1 goodput (the paper's premium customers)."""
        return self.goodput.get(1, 0.0)

    def premium_p99(self) -> float:
        """99th-percentile latency of class-1 OK replies."""
        stats = self.latency.get(1)
        return stats.percentile(99.0) if stats is not None else float("nan")


def run_overload_experiment(
    saturation: float = 2.5,
    bounded: bool = True,
    capacity: int = 40,
    shed_policy: str = _SHED_POLICY,
    duration: float = 30.0,
    drain: float = 90.0,
    seed: int = 0,
) -> OverloadResult:
    """Offer ``saturation × μ`` Poisson traffic to one broker.

    The backend serves ``μ = 40`` requests per second (capacity 4, 0.1 s
    each). Class 1 (premium) is offered at a fixed 8 requests per second
    regardless of *saturation*; classes 2 and 3 split
    the remainder — so across runs the premium demand is identical and
    only the background pressure changes.

    With ``bounded=True`` the broker runs the distributed plan with a
    :class:`~repro.core.pipeline.BackpressureStage`: priority queueing
    plus a *capacity*-bounded queue shedding per *shed_policy*. With
    ``bounded=False`` it runs the unprotected baseline — the paper's binary forward-or-drop testbed (§III): FCFS
    service order and an unbounded backlog, so every admitted request
    waits behind the entire queue.

    Requests are uncacheable and carry no timeout: every request gets
    exactly one terminal reply (OK, or an immediate shed/busy DROPPED),
    which keeps the goodput accounting exact. *drain* extends the run
    after arrivals stop so the unbounded backlog can empty.
    """
    if saturation <= 0:
        raise ValueError(f"saturation must be > 0: {saturation!r}")
    sim = Simulation(seed=seed)
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")
    backend_node = net.node("backend1")
    server = BackendWebServer(
        sim, backend_node, max_clients=_OVERLOAD_BACKEND_CAPACITY, name="backend1"
    )
    server.add_cgi("/item", item_cgi(_SERVICE_TIME))

    qos = QoSPolicy(levels=3, threshold=10_000)  # isolate the queue bound
    if bounded:
        stages = stage_plan(
            "distributed", BackpressureStage(capacity, shed_policy=shed_policy)
        )
        priority_queueing = True
    else:
        stages = stage_plan("distributed")
        priority_queueing = False
    broker = ServiceBroker(
        sim,
        web_node,
        service="items",
        adapters=[HttpAdapter(sim, web_node, server.address, name=server.name)],
        qos=qos,
        pool_size=_OVERLOAD_BACKEND_CAPACITY,
        priority_queueing=priority_queueing,
        name="overload-broker",
        stages=stages,
    )
    broker_client = BrokerClient(sim, web_node, {"items": broker.address})

    mu = _OVERLOAD_BACKEND_CAPACITY / _SERVICE_TIME
    total = saturation * mu
    background = max(total - _OVERLOAD_PREMIUM_RATE, 0.0) / 2.0
    offered = {1: _OVERLOAD_PREMIUM_RATE, 2: background, 3: background}

    outcomes = {level: OutcomeTally() for level in offered}
    latency = {level: SummaryStats() for level in offered}
    in_window = dict.fromkeys(offered, 0)

    def make_factory(level: int):
        def one_request(_generator, index):
            issued = sim.now
            reply = yield from broker_client.call(
                "items",
                "get",
                ("/item", {"id": index}),
                qos_level=level,
                cacheable=False,
            )
            if outcomes[level].add(reply.status.value) == "ok":
                latency[level].add(sim.now - issued)
                if sim.now <= duration:
                    in_window[level] += 1

        return one_request

    for level, rate in offered.items():
        if rate <= 0:
            continue
        OpenLoopGenerator(
            sim,
            name=f"overload.qos{level}",
            request_factory=make_factory(level),
            rate=rate,
            rng_stream=f"overload.arrivals.qos{level}",
        ).start(until=duration)

    sim.run(until=duration)
    sim.run(until=duration + drain)  # let the backlog empty

    # Everything not answered is a drop here: a shed or busy reply.
    return OverloadResult(
        saturation=saturation,
        bounded=bounded,
        capacity=capacity if bounded else None,
        shed_policy=shed_policy if bounded else "none",
        duration=duration,
        offered=offered,
        issued={level: tally.requests for level, tally in outcomes.items()},
        ok={level: tally.counts["ok"] for level, tally in outcomes.items()},
        degraded={
            level: tally.counts["degraded"] for level, tally in outcomes.items()
        },
        dropped={
            level: tally.requests - tally.answered
            for level, tally in outcomes.items()
        },
        goodput={level: count / duration for level, count in in_window.items()},
        latency=latency,
        shed=broker.queue.shed_count,
        peak_depth=broker.queue.peak_depth,
        backpressure_engaged=int(
            broker.metrics.counter("broker.backpressure.engaged")
        ),
    )


# ---------------------------------------------------------------------------
# Chaos soak
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvariantCheck:
    """One machine-checked invariant verdict from a chaos run."""

    name: str
    passed: bool
    detail: str


def _plain(value):
    """*value* as JSON-safe data: verdicts as dicts, containers copied."""
    if isinstance(value, InvariantCheck):
        return asdict(value)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


class _Verdicts:
    """What every robustness result shares: its verdicts and one summary rule.

    ``to_summary()`` is derived from the dataclass fields — each copied
    as plain data, except ``latency``, which holds raw samples — plus
    :meth:`_summary_entries`, the entries that are not a plain copy.
    """

    @property
    def all_invariants_hold(self) -> bool:
        """True when every invariant check passed."""
        return all(check.passed for check in self.invariants)

    def _summary_entries(self) -> Dict[str, object]:
        """Availability and the latency p50/p99 (``None`` with no sample)."""
        latency = self.latency
        entries: Dict[str, object] = {"availability": round(self.availability, 6)}
        for q in (50.0, 99.0):
            entries[f"latency_p{q:g}"] = (
                round(latency.percentile(q), 6) if latency.count else None
            )
        return entries

    def to_summary(self) -> Dict[str, object]:
        """A JSON-safe summary (the CI artifact / ``--summary-out``)."""
        summary = {
            spec.name: _plain(getattr(self, spec.name))
            for spec in fields(self)
            if spec.name != "latency"
        }
        summary.update(self._summary_entries())
        return summary


#: Result fields that read one registry counter each, by field name.
_COUNTED = {
    "crashes": "broker.crashes",
    "restarts": "broker.restarts",
    "failed_fast": "lifecycle.failed_fast",
    "replayed": "lifecycle.replayed",
    "restart_shed": "lifecycle.restart_shed",
    "shed_total": "broker.shed",
    "provisioned": "autoscaler.provisioned",
    "drain_refused": "broker.drain.refused",
    "drain_interrupted": "autoscaler.drain.interrupted",
    "blocked_by_alert": "autoscaler.blocked_alert",
    "blocked_by_cooldown": "autoscaler.blocked_cooldown",
}


def _counters_of(result_class, metrics: MetricsRegistry) -> Dict[str, int]:
    """The fields of *result_class* that :data:`_COUNTED` reads from *metrics*."""
    return {
        spec.name: int(metrics.counter(_COUNTED[spec.name]))
        for spec in fields(result_class)
        if spec.name in _COUNTED
    }


def _residue(brokers: Iterable[ServiceBroker]) -> Dict[str, Dict[str, int]]:
    """End-of-run residue per broker: backlog, held admissions, journal."""
    return {broker.name: broker.residue() for broker in brokers}


def _no_lost_request(result, scope: str = "") -> InvariantCheck:
    """Every request reached one terminal outcome; no broker kept residue.

    A pool run names what it covered in *scope* (``" across 5 units
    (2 retired)"``); the supervised soaks name nothing and say
    "residue" before the per-broker listing instead.
    """
    lost = [(name, info) for name, info in result.residue.items() if any(info.values())]
    terminal = (
        result.ok + result.degraded + getattr(result, "throttled", 0)
        + result.dropped + result.timeouts + result.errors
    )
    listing = "; ".join(f"{name}: {info}" for name, info in lost)
    if scope:
        residue = listing or "residue clean"
    else:
        residue = "residue " + (listing or "clean")
    return InvariantCheck(
        name="no-lost-request",
        passed=not lost and terminal == result.requests,
        detail=f"{result.requests} requests all terminal{scope}; {residue}",
    )


def _post_crash_consistency(
    result, brokers: Iterable[ServiceBroker], watches=(), extra: str = ""
) -> InvariantCheck:
    """Restarts match crashes, every broker lives and every watch is up."""
    dead = [broker.name for broker in brokers if not broker.alive]
    return InvariantCheck(
        name="post-crash-consistency",
        passed=result.restarts == result.crashes
        and not dead
        and all(watch.up for watch in watches),
        detail=(
            f"crashes={result.crashes} restarts={result.restarts} "
            f"failed_fast={result.failed_fast} replayed={result.replayed}"
            + extra
            + (f"; still dead: {dead}" if dead else "")
        ),
    )


def _availability_floor(result, floor: float, extra: str = "") -> InvariantCheck:
    """The answered fraction of the workload is at least *floor*."""
    return InvariantCheck(
        name="availability-floor",
        passed=result.availability >= floor,
        detail=(
            f"availability {result.availability:.4f} "
            f"(floor {floor:.4f}; ok={result.ok} degraded={result.degraded} "
            f"dropped={result.dropped} timeouts={result.timeouts}{extra})"
        ),
    )


def _soak_qos() -> QoSPolicy:
    """Three classes with 1/1.5/2 s deadlines and out-of-reach admission.

    With a threshold of 10,000 the admission rule never sheds, so what
    drops a request in a soak is the mechanism under test (backpressure,
    an election, a drain).
    """
    return QoSPolicy(levels=3, threshold=10_000, deadlines={1: 1.0, 2: 1.5, 3: 2.0})


@dataclass
class ChaosResult(_Verdicts):
    """Everything a chaos soak observed, plus its invariant verdicts."""

    duration: float
    seed: int
    capacity: int
    shed_policy: str
    mtbf: float
    mttr: float
    # Steady (closed-loop) workload outcome counts.
    requests: int = 0
    ok: int = 0
    degraded: int = 0
    dropped: int = 0
    timeouts: int = 0
    errors: int = 0
    #: Requests answered by the replica broker after the first choice
    #: failed (timeout or DROPPED).
    failovers: int = 0
    latency: SummaryStats = field(default_factory=SummaryStats)
    # Spike (open-loop burst) outcome counts.
    spike_requests: int = 0
    spike_ok: int = 0
    spike_degraded: int = 0
    spike_dropped: int = 0
    spike_timeouts: int = 0
    # Lifecycle accounting.
    crashes: int = 0
    restarts: int = 0
    detected: int = 0
    recoveries: int = 0
    failed_fast: int = 0
    replayed: int = 0
    restart_shed: int = 0
    shed_total: int = 0
    link_faults: int = 0
    #: Per-broker deepest backlog ever observed.
    peak_depths: Dict[str, int] = field(default_factory=dict)
    #: Per-broker end-of-run residue (queue depth, outstanding, journal).
    residue: Dict[str, Dict[str, int]] = field(default_factory=dict)
    invariants: List[InvariantCheck] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Answered fraction of the steady workload (OK + DEGRADED)."""
        if not self.requests:
            return 1.0
        return (self.ok + self.degraded) / self.requests


def _breaker_and_retry() -> list:
    """The fault-tolerant plan's configured extras, fresh per broker.

    A breaker opening after three consecutive failures for 0.5 s, and
    the default :class:`~repro.core.faulttolerance.RetryPolicy`. The
    failure-recovery testbed runs exactly these; the hardened plan adds
    backpressure.
    """
    return [
        CircuitBreakerStage(failure_threshold=3, reset_timeout=0.5),
        RetryStage(policy=RetryPolicy()),
    ]


def _hardened_stages(
    capacity: int, shed_policy: str, throttle: Optional[TenantThrottle] = None
) -> list:
    """The fault-tolerant plan with backpressure before ``enqueue``.

    Given *throttle*, a :class:`~repro.core.pipeline.ThrottleStage`
    follows ``arrival``: before admission, so a refused request never
    touches the ledger or the journal.
    """
    extras = [*_breaker_and_retry(), BackpressureStage(capacity, shed_policy=shed_policy)]
    if throttle is not None:
        extras.append(ThrottleStage(throttle))
    return stage_plan("fault-tolerant", *extras)


def run_chaos_experiment(
    duration: float = 300.0,
    mtbf: float = 25.0,
    mttr: float = 2.0,
    capacity: int = _CAPACITY,
    shed_policy: str = _SHED_POLICY,
    recovery_policy: str = "replay",
    availability_floor: float = 0.99,
    seed: int = 0,
    telemetry=None,
) -> ChaosResult:
    """A seeded chaos soak over two replica brokers.

    Topology: two brokers (``chaos-a``/``chaos-b``, services
    ``items-a``/``items-b``) each front the same two backend web
    servers, run the fault-tolerant stage plan hardened with a
    *capacity*-bounded :class:`~repro.core.pipeline.BackpressureStage`,
    and are watched by a :class:`~repro.core.lifecycle.BrokerSupervisor`
    (heartbeats + per-broker :class:`~repro.core.lifecycle.RecoveryJournal`
    with *recovery_policy*).

    Chaos, all on dedicated RNG substreams so runs are reproducible:

    * broker crash/restart cycles — ``Exp(1/mtbf)`` time-to-failure,
      fixed *mttr*, independent schedules per broker (broker B fails
      at ~1.8× A's MTBF so double-failures stay rare but possible);
    * crash *blips* — two extra crashes of broker B healing in
      0.08 seconds, faster than heartbeat detection, so the
      journal's **replay** recovery path runs (slow crashes are always
      consumed by the supervisor's fail-fast first);
    * link flaps — short :class:`~repro.net.faults.LinkDown` windows
      between the web host and the second backend;
    * load spikes — open-loop class-3 bursts of 100 requests/s for
      8 seconds every 90 seconds.

    The steady workload is ten closed-loop clients cycling through the
    three QoS classes over 512 cacheable items; each request tries one
    broker (alternating per client) and fails over to the replica on a
    1 s timeout or a DROPPED reply.

    After a generous drain the run is scored against four invariants
    (see :class:`InvariantCheck` entries on the result): every request
    answered and all journals/queues/ledgers empty; post-crash
    accounting consistent (restarts match crashes, recovery paths sum);
    queue bound never exceeded; steady-workload availability at or
    above *availability_floor*.
    """
    sim = Simulation(seed=seed)
    metrics = MetricsRegistry()
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")

    backends: List[BackendWebServer] = []
    for index in range(1, 3):
        node = net.node(f"backend{index}")
        server = BackendWebServer(
            sim, node, max_clients=_SOAK_BACKEND_CAPACITY, name=f"backend{index}"
        )
        server.add_cgi("/item", item_cgi(_SERVICE_TIME))
        backends.append(server)

    qos = _soak_qos()
    brokers: Dict[str, ServiceBroker] = {}
    for index, suffix in enumerate("ab"):
        brokers[f"chaos-{suffix}"] = ServiceBroker(
            sim,
            web_node,
            service=f"items-{suffix}",
            adapters=[
                HttpAdapter(sim, web_node, server.address, name=server.name)
                for server in backends
            ],
            port=7000 + index,
            qos=qos,
            cache=ResultCache(
                capacity=4 * _KEY_POOL, ttl=_CHAOS_CACHE_TTL, clock=lambda: sim.now
            ),
            pool_size=_SOAK_BACKEND_CAPACITY,
            dispatchers=_SOAK_BACKEND_CAPACITY * len(backends),
            metrics=metrics,
            name=f"chaos-{suffix}",
            stages=_hardened_stages(capacity, shed_policy),
        )
    services = [broker.service for broker in brokers.values()]

    supervisor = BrokerSupervisor(sim, web_node, metrics=metrics)
    watches = {
        name: supervisor.watch(
            broker,
            journal=RecoveryJournal(sim, policy=recovery_policy, metrics=metrics),
        )
        for name, broker in brokers.items()
    }

    broker_client = BrokerClient(
        sim,
        web_node,
        {broker.service: broker.address for broker in brokers.values()},
    )

    # Chaos schedule: two independent crash cycles plus link flaps.
    plan = FaultPlan.broker_crash_cycle(
        "chaos-a", mtbf=mtbf, mttr=mttr, until=duration,
        rng=sim.rng("chaos.crash.a"),
    )
    for fault in FaultPlan.broker_crash_cycle(
        "chaos-b", mtbf=mtbf * 1.8, mttr=mttr, until=duration,
        rng=sim.rng("chaos.crash.b"),
    ):
        plan.add(fault)
    # Instant-restart crashes: the broker is back before the supervisor's
    # miss timeout, so restart() itself replays the journaled work
    # instead of the supervisor failing it fast.
    for fraction in (0.35, 0.75):
        plan.add(BrokerCrash(target="chaos-b", at=duration * fraction, duration=_BLIP_MTTR))
    link_faults = 0
    flap_at = duration * 0.2
    while flap_at < duration:
        plan.add(LinkDown(a="web", b="backend2", at=flap_at, duration=0.5))
        link_faults += 1
        flap_at += duration * 0.3
    injector = FaultInjector(
        sim, plan, network=net, targets=dict(brokers), metrics=metrics
    )
    injector.start()

    # Always-on workload outcome counters. Pure counting with no
    # scheduling or RNG impact, so seeded outputs are unchanged; the
    # telemetry scraper reads these for the chaos SLOs ("workload.done"
    # counts every terminal outcome including spike traffic, which the
    # availability-floor invariant deliberately excludes).
    steady = OutcomeTally(metrics, _FAST_THRESHOLD)
    spikes = OutcomeTally(metrics, _FAST_THRESHOLD)
    latency = SummaryStats()
    failovers = 0

    # Steady closed-loop workload with one-hop failover.
    key_rng = sim.rng("chaos.keys")
    stagger_rng = sim.rng("chaos.stagger")
    for index in range(_SOAK_CLIENTS):
        net.node(f"client{index}")  # a distinct host per client
        level = (index % qos.levels) + 1
        order = (
            (services[0], services[1])
            if index % 2 == 0
            else (services[1], services[0])
        )

        def one_request(_client, _iteration, _level=level, _order=order):
            nonlocal failovers
            issued = sim.now
            item = key_rng.randrange(_KEY_POOL)
            status = "error"
            failed_over = False
            for attempt, service in enumerate(_order):
                try:
                    reply = yield from broker_client.call(
                        service,
                        "get",
                        ("/item", {"id": item}),
                        qos_level=_level,
                        timeout=_CHAOS_ATTEMPT_TIMEOUT,
                    )
                except BrokerTimeout:
                    status = "timeout"
                    continue
                status = reply.status.value
                if reply.status in (ReplyStatus.OK, ReplyStatus.DEGRADED):
                    failed_over = attempt > 0
                    break
            elapsed = sim.now - issued
            steady.add(status, elapsed=elapsed)
            latency.add(elapsed)
            failovers += failed_over

        ClosedLoopClient(
            sim,
            name=f"chaos{index}",
            request_factory=one_request,
            think_time=_SOAK_THINK_TIME,
            start_delay=stagger_rng.uniform(0.0, 1.0),
        ).start(until=duration)

    # Load spikes: open-loop class-3 bursts, alternating target broker.
    spike_rng = sim.rng("chaos.spike.keys")

    def spike_request(_generator, index):
        issued = sim.now
        service = services[index % len(services)]
        item = spike_rng.randrange(_KEY_POOL)
        try:
            reply = yield from broker_client.call(
                service,
                "get",
                ("/item", {"id": item}),
                qos_level=qos.levels,
                timeout=_CHAOS_ATTEMPT_TIMEOUT,
            )
        except BrokerTimeout:
            spikes.add("timeout")
            return
        spikes.add(reply.status.value, elapsed=sim.now - issued)

    def spike_driver():
        spike_at = _SPIKE_EVERY / 2.0
        count = 0
        while spike_at < duration:
            yield spike_at - sim.now
            count += 1
            end = min(spike_at + _SPIKE_DURATION, duration)
            OpenLoopGenerator(
                sim,
                name=f"chaos.spike{count}",
                request_factory=spike_request,
                rate=_SPIKE_RATE,
                rng_stream=f"chaos.spike{count}",
            ).start(until=end)
            spike_at += _SPIKE_EVERY

    sim.process(spike_driver(), name="chaos:spikes")

    if telemetry is not None:
        # Purely observational (no RNG, no messages): the soak below is
        # identical with or without the scraper.
        telemetry.attach(sim)
        telemetry.watch_registry(metrics, prefix="workload.")
        telemetry.watch_registry(metrics, prefix="broker.")
        telemetry.watch_registry(metrics, prefix="lifecycle.")
        for broker in brokers.values():
            telemetry.watch_broker(broker)
        telemetry.start(until=duration)

    sim.run(until=duration)
    # Drain: open fault windows heal, restarts replay, replies land.
    sim.run(until=duration + mttr + 30.0)

    result = ChaosResult(
        duration=duration,
        seed=seed,
        capacity=capacity,
        shed_policy=shed_policy,
        mtbf=mtbf,
        mttr=mttr,
        failovers=failovers,
        latency=latency,
        spike_requests=spikes.requests,
        spike_ok=spikes.counts["ok"],
        spike_degraded=spikes.counts["degraded"],
        # An unanswered spike request that did not time out was dropped.
        spike_dropped=spikes.requests - spikes.answered - spikes.counts["timeouts"],
        spike_timeouts=spikes.counts["timeouts"],
        detected=sum(watch.detected for watch in watches.values()),
        recoveries=sum(watch.recoveries for watch in watches.values()),
        link_faults=link_faults,
        peak_depths={name: broker.queue.peak_depth for name, broker in brokers.items()},
        residue=_residue(brokers.values()),
        **steady.fields(),
        **_counters_of(ChaosResult, metrics),
    )
    over = {name: depth for name, depth in result.peak_depths.items() if depth > capacity}
    result.invariants = [
        _no_lost_request(result),
        _post_crash_consistency(
            result,
            brokers.values(),
            watches.values(),
            f" restart_shed={result.restart_shed}",
        ),
        InvariantCheck(
            name="queue-bound",
            passed=not over,
            detail=f"peak depths {result.peak_depths} vs capacity {capacity}",
        ),
        _availability_floor(result, availability_floor),
    ]
    return result


# ---------------------------------------------------------------------------
# Shard-leader chaos soak
# ---------------------------------------------------------------------------


@dataclass
class ShardChaosResult(ChaosResult):
    """A :class:`ChaosResult` plus the shard tier's own accounting."""

    shards: int = 0
    replicas: int = 0
    #: Leader crashes the killer process actually landed.
    leader_kills: int = 0
    #: Bully elections run across all shard groups.
    elections: int = 0
    #: Reporting-role moves the load listener observed.
    leader_failovers: int = 0


def run_shard_chaos_experiment(
    duration: float = 300.0,
    shards: int = 8,
    replicas: int = 2,
    leader_kill_every: float = 25.0,
    mttr: float = 2.0,
    availability_floor: float = 0.99,
    seed: int = 0,
) -> ShardChaosResult:
    """A seeded soak that assassinates shard leaders on a fixed cadence.

    Topology: one service (``items``) fronted by *shards* ×
    *replicas* brokers. Each shard owns its own backend web server (its
    partition); every broker runs the distributed plan with a
    :class:`~repro.core.pipeline.ShardRouteStage`, is watched by a
    :class:`~repro.core.lifecycle.BrokerSupervisor` with a
    :class:`~repro.core.lifecycle.RecoveryJournal`, and joins its
    shard's :class:`~repro.core.sharding.ShardGroup`; replicas share
    no state. Every replica also streams
    leader-only :class:`~repro.core.centralized.ShardLoadReport`
    updates to a :class:`~repro.core.centralized.LoadListener`, so the
    run observes the reporting role failing over with each election.

    The killer process crashes the *current leader* of a rotating
    shard every *leader_kill_every* seconds and restarts the corpse
    after *mttr* — by which time a bully election has promoted the
    next replica, so the returning broker re-takes the shard (a
    takeover election) and the cycle repeats on another shard.

    Ten clients resolve through the
    :class:`~repro.core.sharding.ShardDirectory` (service addressing)
    and try up to three times on a 0.75 s timeout or a DROPPED reply; each retry re-resolves the leader, so
    surviving an assassination is exactly one retry against the fresh
    replica. Verdicts: no-lost-request, post-crash-consistency,
    availability-floor (as the plain soak) plus leadership-convergence
    — every shard ends the run with a live, routable leader and at
    least one election per landed kill.
    """
    if shards < 1 or replicas < 1:
        raise ValueError(
            f"shards and replicas must be >= 1: {shards!r}x{replicas!r}"
        )
    sim = Simulation(seed=seed)
    metrics = MetricsRegistry()
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")

    qos = _soak_qos()
    directory = ShardDirectory(metrics=metrics)
    supervisor = BrokerSupervisor(sim, web_node, metrics=metrics)
    from ..core.centralized import LoadListener

    listener = LoadListener(
        sim, web_node, process_time=0.0005, metrics=metrics
    )

    groups: List[ShardGroup] = []
    brokers: Dict[str, ServiceBroker] = {}
    watches = {}
    next_port = 7201
    for shard in range(shards):
        backend_name = f"shardbackend{shard}"
        backend = BackendWebServer(
            sim,
            net.node(backend_name),
            max_clients=_SOAK_BACKEND_CAPACITY,
            name=backend_name,
        )
        backend.add_cgi("/item", item_cgi(_SERVICE_TIME))
        group = ShardGroup("items", shard, metrics=metrics)
        for replica in range(replicas):
            broker = ServiceBroker(
                sim,
                web_node,
                service="items",
                port=next_port,
                adapters=[
                    HttpAdapter(sim, web_node, backend.address, name=backend_name)
                ],
                qos=qos,
                pool_size=_SOAK_BACKEND_CAPACITY,
                dispatchers=_SOAK_BACKEND_CAPACITY,
                metrics=metrics,
                name=f"shard{shard}r{replica}",
                stages=stage_plan(
                    "distributed", ShardRouteStage(directory, shard=shard)
                ),
            )
            next_port += 1
            # Supervise (installs the journal), then join the group
            # (elects); the supervisor listener keeps elections in step
            # with heartbeat detections.
            watches[broker.name] = supervisor.watch(
                broker, journal=RecoveryJournal(sim, metrics=metrics)
            )
            group.add(broker)
            broker.report_load_to(listener.address, interval=_SHARD_REPORT_INTERVAL)
        supervisor.add_listener(group.on_supervisor_event)
        groups.append(group)
        brokers.update((b.name, b) for b in group.members)
    directory.register("items", groups, seed=seed)

    broker_client = BrokerClient(sim, web_node, {})
    broker_client.use_directory(directory)

    # The assassin: crash the current leader of a rotating shard.
    kills = {"count": 0}

    def resurrect(victim: ServiceBroker):
        yield mttr
        if not victim.alive:
            victim.restart()

    def leader_killer():
        target = 0
        while True:
            yield leader_kill_every
            if sim.now >= duration:
                return
            group = groups[target % len(groups)]
            target += 1
            victim = group.route()
            if victim is None:
                continue
            kills["count"] += 1
            victim.crash()
            sim.process(resurrect(victim), name=f"resurrect:{victim.name}")

    sim.process(leader_killer(), name="chaos:leader-killer")

    # Steady closed-loop workload through the directory, with retries.
    outcomes = OutcomeTally()
    latency = SummaryStats()
    retries = 0
    key_rng = sim.rng("chaos.shard.keys")
    stagger_rng = sim.rng("chaos.shard.stagger")
    for index in range(_SOAK_CLIENTS):
        net.node(f"client{index}")
        level = (index % qos.levels) + 1

        def one_request(_client, _iteration, _level=level):
            nonlocal retries
            issued = sim.now
            item = key_rng.randrange(_KEY_POOL)
            status = "error"
            retried = False
            for attempt in range(_MAX_TRIES):
                try:
                    reply = yield from broker_client.call(
                        "items",
                        "get",
                        ("/item", {"id": item}),
                        qos_level=_level,
                        cacheable=False,
                        cache_key=f"item{item}",
                        timeout=_SHARD_ATTEMPT_TIMEOUT,
                    )
                except BrokerTimeout:
                    status = "timeout"
                    retried = attempt + 1 < _MAX_TRIES
                    continue
                status = reply.status.value
                if reply.status in (ReplyStatus.OK, ReplyStatus.DEGRADED):
                    retried = attempt > 0
                    break
                retried = attempt + 1 < _MAX_TRIES
            outcomes.add(status)
            latency.add(sim.now - issued)
            retries += retried

        ClosedLoopClient(
            sim,
            name=f"shardchaos{index}",
            request_factory=one_request,
            think_time=_SOAK_THINK_TIME,
            start_delay=stagger_rng.uniform(0.0, 1.0),
        ).start(until=duration)

    sim.run(until=duration)
    # Drain: the last corpse restarts, retries land, replies settle.
    sim.run(until=duration + mttr + 30.0)

    result = ShardChaosResult(
        duration=duration,
        seed=seed,
        capacity=0,
        shed_policy="none",
        mtbf=leader_kill_every,
        mttr=mttr,
        shards=shards,
        replicas=replicas,
        failovers=retries,
        latency=latency,
        leader_kills=kills["count"],
        detected=sum(watch.detected for watch in watches.values()),
        recoveries=sum(watch.recoveries for watch in watches.values()),
        elections=sum(group.elections for group in groups),
        leader_failovers=listener.leader_failovers,
        peak_depths={name: broker.queue.peak_depth for name, broker in brokers.items()},
        residue=_residue(brokers.values()),
        **outcomes.fields(),
        **_counters_of(ShardChaosResult, metrics),
    )
    leaderless = [group.name for group in groups if group.route() is None]
    result.invariants = [
        _no_lost_request(result),
        _post_crash_consistency(result, brokers.values(), watches.values()),
        InvariantCheck(
            name="leadership-convergence",
            passed=not leaderless and result.elections >= result.leader_kills,
            detail=(
                f"kills={result.leader_kills} elections={result.elections} "
                f"reporting_failovers={result.leader_failovers}"
                + (f"; leaderless: {leaderless}" if leaderless else "")
            ),
        ),
        _availability_floor(
            result, availability_floor, f"; retried={result.failovers}"
        ),
    ]
    return result


# ---------------------------------------------------------------------------
# Elastic autoscaling: headline experiment and scale-chaos soak
# ---------------------------------------------------------------------------


def _elastic_pool(
    sim: Simulation,
    net: Network,
    metrics: MetricsRegistry,
    *,
    capacity: int,
    shed_policy: str,
    service_time: float,
    backend_capacity: int,
    throttle: Optional[TenantThrottle] = None,
    report_interval: float = 0.25,
    drain_grace: float = 2.0,
    base_port: int = 7300,
    prefix: str = "scale",
    seed: int = 0,
):
    """Build the elastic-unit topology the autoscale experiments share.

    One *unit* = one broker plus its own dedicated backend web server
    (so backend capacity scales with the pool), running the hardened
    stage plan — with a :class:`~repro.core.pipeline.ThrottleStage`
    after ``arrival`` when *throttle* is given. Every unit is
    supervised (heartbeats + recovery journal), reports load to a
    :class:`~repro.core.centralized.LoadListener`, and joins a single
    :class:`~repro.core.sharding.ShardGroup` so drains exercise the
    full hand-off protocol (leadership, listener purge, supervision
    release). Returns ``(pool, supervisor, listener, group, watches)``.

    The pool's ``on_retire`` releases what the factory registered for a
    retired unit: its watch, its backend's node (with the node's routes
    and link streams) and its retry stream. An experiment that registers
    more (client routes, telemetry) wraps that hook.
    """
    from ..core.centralized import LoadListener

    web_node = net.nodes["web"]
    qos = _soak_qos()
    supervisor = BrokerSupervisor(sim, web_node, metrics=metrics)
    listener = LoadListener(sim, web_node, process_time=0.0005, metrics=metrics)
    group = ShardGroup(prefix, 0, metrics=metrics)
    supervisor.add_listener(group.on_supervisor_event)
    watches: Dict[str, object] = {}

    def factory(pool: BrokerPool, index: int) -> ServiceBroker:
        backend_name = f"{prefix}backend{index}"
        backend = BackendWebServer(
            sim,
            net.node(backend_name),
            max_clients=backend_capacity,
            name=backend_name,
        )
        backend.add_cgi("/item", item_cgi(service_time))
        broker = ServiceBroker(
            sim,
            web_node,
            service=f"items-{index}",
            port=base_port + index,
            adapters=[
                HttpAdapter(sim, web_node, backend.address, name=backend_name)
            ],
            qos=qos,
            pool_size=backend_capacity,
            dispatchers=backend_capacity,
            metrics=metrics,
            name=f"{prefix}{index}",
            stages=_hardened_stages(capacity, shed_policy, throttle),
        )
        watches[broker.name] = supervisor.watch(
            broker, journal=RecoveryJournal(sim, metrics=metrics)
        )
        broker.report_load_to(listener.address, interval=report_interval)
        return broker

    def release(broker: ServiceBroker) -> None:
        del watches[broker.name]
        for backend in broker.backends:
            net.remove_node(backend.adapter.address.host)
        sim.forget_rng(f"{broker.name}.retry")

    pool = BrokerPool(
        sim,
        factory,
        supervisor=supervisor,
        group=group,
        listener=listener,
        seed=seed,
        drain_grace=drain_grace,
        metrics=metrics,
    )
    pool.on_retire = release
    return pool, supervisor, listener, group, watches


def _pool_requests(
    sim: Simulation,
    pool: BrokerPool,
    broker_client: BrokerClient,
    key_rng,
    record,
):
    """Request factories over the elastic pool: route by key, retry.

    ``make(level, tenant)`` returns an open-loop request factory for one
    QoS class. Each request draws one of 512 items, routes it through
    the pool's ring, and retries a timeout or a refusal on the freshly
    routed unit, three tries in all — except a throttle
    refusal, which a retry would only meet again. The request carries
    the *tenant* tag when one is given. Every request ends in
    ``record(level, tenant, status, error, elapsed)``.
    """

    def make(level: int, tenant: Optional[str] = None):
        def one_request(_generator, _index):
            issued = sim.now
            item = key_rng.randrange(_KEY_POOL)
            params = {"id": item} if tenant is None else {"id": item, "tenant": tenant}
            status = "error"
            error = ""
            for _attempt in range(_MAX_TRIES):
                try:
                    broker = pool.route(f"item{item}")
                except BrokerError:
                    status = "error"
                    error = "no-pool"
                    break
                try:
                    reply = yield from broker_client.call(
                        broker.service,
                        "get",
                        ("/item", params),
                        qos_level=level,
                        cacheable=False,
                        timeout=_POOL_ATTEMPT_TIMEOUT,
                    )
                except BrokerTimeout:
                    status = "timeout"
                    error = ""
                    continue
                status = reply.status.value
                error = reply.error or ""
                if reply.status in (ReplyStatus.OK, ReplyStatus.DEGRADED):
                    break
                if error == "throttled":
                    break  # deliberate refusal; a retry is refused too
            record(level, tenant, status, error, sim.now - issued)

        return one_request

    return make


@dataclass
class AutoscaleResult(_Verdicts):
    """One elastic-pool run: workload outcome, pool economy, verdicts."""

    duration: float
    seed: int
    base_rate: float
    peak_rate: float
    period: float
    target: float
    # Workload outcome counts (terminal statuses; throttled = deliberate
    # per-tenant refusals, distinct from capacity drops).
    requests: int = 0
    ok: int = 0
    degraded: int = 0
    throttled: int = 0
    dropped: int = 0
    timeouts: int = 0
    errors: int = 0
    #: Latency of answered (OK/DEGRADED) replies per QoS class.
    latency: Dict[int, SummaryStats] = field(default_factory=dict)
    #: Per-tenant outcome counts: requests / answered / throttled.
    tenants: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Pool economy.
    provisioned: int = 0
    scale_outs: int = 0
    scale_ins: int = 0
    drains_completed: int = 0
    handoffs: int = 0
    drain_refused: int = 0
    steady_size: int = 0
    mean_size: float = 0.0
    peak_size: int = 0
    min_size: int = 0
    alerts: int = 0
    blocked_by_alert: int = 0
    blocked_by_cooldown: int = 0
    #: ``(time, size, signal, action)`` control-loop timeline.
    timeline: List[Tuple[float, int, float, str]] = field(default_factory=list)
    #: Per-unit end-of-run residue over every unit ever provisioned.
    residue: Dict[str, Dict[str, int]] = field(default_factory=dict)
    invariants: List[InvariantCheck] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Answered fraction of non-throttled traffic (OK + DEGRADED)."""
        offered = self.requests - self.throttled
        if offered <= 0:
            return 1.0
        return (self.ok + self.degraded) / offered

    def premium_p99(self) -> float:
        """99th-percentile latency of answered class-1 replies."""
        stats = self.latency.get(1)
        if stats is None or not stats.count:
            return float("nan")
        return stats.percentile(99.0)

    def _summary_entries(self) -> Dict[str, object]:
        """Availability, premium p99, rounded mean size, 48-point timeline."""
        premium = self.premium_p99()
        step = max(1, math.ceil(len(self.timeline) / 48))
        return {
            "availability": round(self.availability, 6),
            "premium_p99": None if math.isnan(premium) else round(premium, 6),
            "mean_size": round(self.mean_size, 3),
            "timeline": [
                [round(t, 1), size, round(signal, 2), action]
                for t, size, signal, action in self.timeline[::step]
            ],
        }


def run_autoscale_experiment(
    duration: float = 240.0,
    swing: float = 10.0,
    period: float = 120.0,
    target: float = AUTOSCALE_POLICY.target,
    seed: int = 0,
) -> AutoscaleResult:
    """The elastic-pool headline: a 10× diurnal swing, autoscaled.

    Load is a :class:`~repro.workload.clients.DiurnalLoadGenerator`
    sweeping ``8 .. 8*swing`` requests per second once per *period*,
    mixed across three QoS classes (class 1 = tenant ``premium``), plus
    a :class:`~repro.workload.clients.FlashCrowdGenerator` for tenant
    ``burst`` whose crowds multiply its trickle by 20 — and whose token
    bucket is sized so the crowd is *refused*, not absorbed.

    The pool is an elastic set of broker+backend units behind an
    :class:`~repro.core.autoscale.Autoscaler` (:data:`AUTOSCALE_POLICY`
    at *target*) reading per-broker load
    series from a :class:`~repro.obs.telemetry.TelemetryScraper` and
    honouring :class:`~repro.obs.slo.SloEngine` burn alerts
    (:func:`~repro.obs.slo.autoscale_slos` — throttle refusals do not
    burn). Scale-in runs the graceful drain protocol end to end.

    Verdicts: premium p99 within 1 s; time-mean pool size within 1.5×
    the steady-state unit count (the units needed for the *time-average*
    offered rate at 75 % utilisation — static provisioning would need
    the peak count instead); the burst tenant throttled while premium never is; the
    pool actually tracked the swing; and no request lost across every
    drain.
    """
    if swing <= 1.0:
        raise ValueError(f"swing must be > 1: {swing!r}")
    base_rate = _DIURNAL_BASE_RATE
    peak_rate = base_rate * swing
    sim = Simulation(seed=seed)
    metrics = MetricsRegistry()
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")

    throttle = TenantThrottle(
        _THROTTLE_RATE, _THROTTLE_BURST, overrides={"burst": _BURST_ALLOWANCE}
    )
    pool, supervisor, listener, group, watches = _elastic_pool(
        sim,
        net,
        metrics,
        capacity=_CAPACITY,
        shed_policy=_SHED_POLICY,
        service_time=_SERVICE_TIME,
        backend_capacity=_POOL_BACKEND_CAPACITY,
        throttle=throttle,
        drain_grace=_POOL_DRAIN_GRACE,
        seed=seed,
    )

    from ..obs.slo import SloEngine, autoscale_slos
    from ..obs.telemetry import TelemetryScraper

    scraper = TelemetryScraper(interval=_SCRAPE_INTERVAL).attach(sim)
    scraper.watch_registry(metrics, prefix="workload.")
    scraper.watch_registry(metrics, prefix="autoscaler.")
    engine = SloEngine(autoscale_slos())
    scraper.use_slo(engine)

    broker_client = BrokerClient(sim, web_node, {})

    def on_provision(broker: ServiceBroker) -> None:
        broker_client.add_route(broker.service, broker.address)
        scraper.watch_broker(broker)

    release_unit = pool.on_retire

    def on_retire(broker: ServiceBroker) -> None:
        release_unit(broker)
        broker_client.remove_route(broker.service)
        scraper.unwatch_broker(broker)

    pool.on_provision = on_provision
    pool.on_retire = on_retire
    pool.scale_to(_AUTOSCALE_INITIAL_SIZE)

    policy = replace(AUTOSCALE_POLICY, target=target)
    autoscaler = Autoscaler(
        sim, pool, policy, scraper=scraper, engine=engine,
        interval=_CONTROL_INTERVAL, metrics=metrics,
    )
    for gauge_name, fn in autoscaler.gauges().items():
        scraper.add_gauge(gauge_name, fn)
    scraper.start(until=duration)
    autoscaler.start(until=duration)

    # -- workload ----------------------------------------------------------
    outcomes = OutcomeTally(metrics, _FAST_THRESHOLD)
    latency: Dict[int, SummaryStats] = {}
    tenants: Dict[str, Dict[str, int]] = {}

    def record(level, tenant, status, error, elapsed):
        bucket = outcomes.add(status, error, elapsed)
        per_tenant = tenants.setdefault(
            tenant, {"requests": 0, "answered": 0, "throttled": 0}
        )
        per_tenant["requests"] += 1
        if bucket == "throttled":
            per_tenant["throttled"] += 1
        elif bucket == "ok" or bucket == "degraded":
            per_tenant["answered"] += 1
            latency.setdefault(level, SummaryStats()).add(elapsed)

    make_factory = _pool_requests(
        sim, pool, broker_client, sim.rng("autoscale.keys"), record
    )

    # The diurnal curve carries all three QoS classes; a third of its
    # volume per class, premium traffic billed to tenant "premium".
    for level in (1, 2, 3):
        tenant = "premium" if level == 1 else "standard"
        DiurnalLoadGenerator(
            sim,
            name=f"diurnal.qos{level}",
            request_factory=make_factory(level, tenant),
            base_rate=base_rate / 3.0,
            peak_rate=peak_rate / 3.0,
            period=period,
            rng_stream=f"autoscale.diurnal.qos{level}",
        ).start(until=duration)
    crowds = [
        (period / 3.0 + cycle * period, period / 12.0, _BURST_MULTIPLIER)
        for cycle in range(int(duration / period) + 1)
    ]
    FlashCrowdGenerator(
        sim,
        name="burst",
        request_factory=make_factory(3, "burst"),
        base_rate=_BURST_RATE,
        crowds=crowds,
        rng_stream="autoscale.burst",
    ).start(until=duration)

    sim.run(until=duration)
    # Overtime: in-flight replies land, started drains complete.
    sim.run(until=duration + _POOL_DRAIN_GRACE * 3 + 30.0)

    # -- result ------------------------------------------------------------
    unit_rate = _POOL_BACKEND_CAPACITY / _SERVICE_TIME
    mean_rate = (base_rate + peak_rate) / 2.0 + _BURST_RATE
    steady_size = max(policy.min_size, math.ceil(mean_rate / (unit_rate * _HEADROOM)))
    sizes = [size for _t, size, _signal, _action in autoscaler.history]
    result = AutoscaleResult(
        duration=duration,
        seed=seed,
        base_rate=base_rate,
        peak_rate=peak_rate,
        period=period,
        target=target,
        throttled=outcomes.counts["throttled"],
        latency=latency,
        tenants=tenants,
        scale_outs=pool.scale_out_events,
        scale_ins=pool.scale_in_events,
        drains_completed=pool.drains_completed,
        handoffs=pool.handoffs,
        steady_size=steady_size,
        mean_size=sum(sizes) / len(sizes) if sizes else 0.0,
        peak_size=max(sizes, default=0),
        min_size=min(sizes, default=0),
        alerts=len(engine.alerts),
        timeline=list(autoscaler.history),
        residue=pool.residue(),
        **outcomes.fields(),
        **_counters_of(AutoscaleResult, metrics),
    )

    # -- invariants --------------------------------------------------------
    premium = result.premium_p99()
    bound = _EFFICIENCY_FACTOR * steady_size
    burst_throttled = result.tenants.get("burst", {}).get("throttled", 0)
    premium_throttled = result.tenants.get("premium", {}).get("throttled", 0)
    result.invariants = [
        InvariantCheck(
            name="premium-p99",
            passed=not math.isnan(premium) and premium <= _PREMIUM_P99_SLO,
            detail=(
                f"premium p99 {premium:.3f}s (SLO {_PREMIUM_P99_SLO:.3f}s; "
                f"{result.latency.get(1).count if 1 in result.latency else 0} "
                f"answered premium replies)"
            ),
        ),
        InvariantCheck(
            name="pool-efficiency",
            passed=bool(sizes) and result.mean_size <= bound,
            detail=(
                f"mean size {result.mean_size:.2f} <= {bound:.2f} "
                f"({_EFFICIENCY_FACTOR}x steady {steady_size}; "
                f"peak {result.peak_size}, static peak provisioning needs "
                f"{math.ceil(peak_rate / (unit_rate * _HEADROOM))})"
            ),
        ),
        InvariantCheck(
            name="elasticity",
            passed=result.scale_outs >= 1
            and result.scale_ins >= 1
            and result.peak_size > result.min_size,
            detail=(
                f"scale_outs={result.scale_outs} scale_ins={result.scale_ins} "
                f"size range [{result.min_size}, {result.peak_size}]"
            ),
        ),
        InvariantCheck(
            name="throttle-containment",
            passed=burst_throttled > 0 and premium_throttled == 0,
            detail=(
                f"burst throttled {burst_throttled} of "
                f"{result.tenants.get('burst', {}).get('requests', 0)}; "
                f"premium throttled {premium_throttled}"
            ),
        ),
        _no_lost_request(
            result, f" across {len(pool.every)} units ({len(pool.retired)} retired)"
        ),
    ]
    return result


@dataclass
class ScaleChaosResult(_Verdicts):
    """One scale-chaos soak: drains under fire, plus its verdicts."""

    duration: float
    seed: int
    wave_period: float
    base_rate: float
    high_rate: float
    mttr: float
    # Workload outcome counts.
    requests: int = 0
    ok: int = 0
    degraded: int = 0
    dropped: int = 0
    timeouts: int = 0
    errors: int = 0
    latency: SummaryStats = field(default_factory=SummaryStats)
    # Pool and chaos accounting.
    provisioned: int = 0
    scale_outs: int = 0
    scale_ins: int = 0
    drains_completed: int = 0
    handoffs: int = 0
    drain_refused: int = 0
    drain_interrupted: int = 0
    mid_drain_kills: int = 0
    crashes: int = 0
    restarts: int = 0
    failed_fast: int = 0
    replayed: int = 0
    peak_size: int = 0
    min_size: int = 0
    #: Per-unit end-of-run residue over every unit ever provisioned.
    residue: Dict[str, Dict[str, int]] = field(default_factory=dict)
    invariants: List[InvariantCheck] = field(default_factory=list)

    @property
    def availability(self) -> float:
        """Answered fraction of the workload (OK + DEGRADED)."""
        if not self.requests:
            return 1.0
        return (self.ok + self.degraded) / self.requests


def run_scale_chaos_experiment(
    duration: float = 264.0,
    wave_period: float = 24.0,
    target: float = SCALE_CHAOS_POLICY.target,
    min_scale_ins: int = 20,
    min_mid_drain_kills: int = 3,
    seed: int = 0,
) -> ScaleChaosResult:
    """The scale-chaos soak: crash brokers *while* they drain.

    A square-wave load (60 requests/s for the first half of every
    *wave_period*, 6 for the second) forces the autoscaled pool
    (:data:`SCALE_CHAOS_POLICY` at *target*) through a scale-out/scale-in
    cycle per wave — dozens of graceful drains per run. A *drain sniper*
    process watches :attr:`BrokerPool.draining
    <repro.core.autoscale.BrokerPool.draining>` and crashes every
    second draining broker mid-protocol; the resurrection (after 1 s)
    restarts it still in draining state (the flag
    survives the restart), the supervisor fail-fasts its journal
    meanwhile, and the drain coordinator resumes with a fresh grace
    window. The headline verdict: across ``>= min_scale_ins`` drains
    with ``>= min_mid_drain_kills`` mid-drain kills, **no request is
    ever lost** — every unit ever provisioned ends with zero queue,
    ledger, and journal residue, and every issued request reached a
    terminal outcome.

    The autoscaler here runs without the SLO veto (``engine=None``):
    wave-front burn alerts would suppress the very scale-ins under
    test. The headline experiment keeps the veto wired.
    """
    sim = Simulation(seed=seed)
    metrics = MetricsRegistry()
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")

    pool, supervisor, listener, group, watches = _elastic_pool(
        sim,
        net,
        metrics,
        capacity=_CAPACITY,
        shed_policy=_SHED_POLICY,
        service_time=_SERVICE_TIME,
        backend_capacity=_POOL_BACKEND_CAPACITY,
        throttle=None,
        drain_grace=_POOL_DRAIN_GRACE,
        base_port=7400,
        prefix="soak",
        seed=seed,
    )

    broker_client = BrokerClient(sim, web_node, {})
    pool.on_provision = lambda broker: broker_client.add_route(
        broker.service, broker.address
    )
    release_unit = pool.on_retire

    def on_retire(broker: ServiceBroker) -> None:
        release_unit(broker)
        broker_client.remove_route(broker.service)

    pool.on_retire = on_retire
    pool.scale_to(_SCALE_CHAOS_INITIAL_SIZE)

    policy = replace(SCALE_CHAOS_POLICY, target=target)
    # Live broker readings (no scraper): the soak stresses the drain
    # protocol, not the telemetry path the headline experiment covers.
    autoscaler = Autoscaler(
        sim, pool, policy, scraper=None, engine=None,
        interval=_CONTROL_INTERVAL, metrics=metrics,
    )
    autoscaler.start(until=duration)

    # -- the drain sniper --------------------------------------------------
    kills = {"count": 0}
    sniped: set = set()
    ordinals: Dict[str, int] = {}

    def resurrect(victim: ServiceBroker):
        yield _SNIPER_MTTR
        victim.restart()  # no-op when already alive or retired

    def drain_sniper():
        while True:
            yield _SNIPER_POLL
            if sim.now >= duration:
                return
            for name, broker in list(pool.draining.items()):
                if name not in ordinals:
                    ordinals[name] = len(ordinals)
                if (
                    broker.alive
                    and name not in sniped
                    and ordinals[name] % _SNIPE_EVERY == 0
                ):
                    sniped.add(name)
                    kills["count"] += 1
                    broker.crash()
                    sim.process(resurrect(broker), name=f"resurrect:{name}")

    sim.process(drain_sniper(), name="chaos:drain-sniper")

    # -- workload ----------------------------------------------------------
    outcomes = OutcomeTally(metrics, _FAST_THRESHOLD)
    latency = SummaryStats()

    def record(_level, _tenant, status, error, elapsed):
        if outcomes.add(status, error, elapsed) in ("ok", "degraded"):
            latency.add(elapsed)

    make_factory = _pool_requests(
        sim, pool, broker_client, sim.rng("scalechaos.keys"), record
    )
    cycles = int(duration / wave_period) + 1
    for level in (1, 2, 3):
        FlashCrowdGenerator(
            sim,
            name=f"wave.qos{level}",
            request_factory=make_factory(level),
            base_rate=_WAVE_BASE_RATE / 3.0,
            crowds=[
                (cycle * wave_period, wave_period / 2.0, _WAVE_HIGH_MULTIPLIER)
                for cycle in range(cycles)
            ],
            rng_stream=f"scalechaos.wave.qos{level}",
        ).start(until=duration)

    sim.run(until=duration)
    # Overtime: resurrect the last corpse, finish the last drains.
    sim.run(until=duration + _SNIPER_MTTR + _POOL_DRAIN_GRACE * 3 + 30.0)

    # -- result ------------------------------------------------------------
    sizes = [size for _t, size, _signal, _action in autoscaler.history]
    result = ScaleChaosResult(
        duration=duration,
        seed=seed,
        wave_period=wave_period,
        base_rate=_WAVE_BASE_RATE,
        high_rate=_WAVE_BASE_RATE * _WAVE_HIGH_MULTIPLIER,
        mttr=_SNIPER_MTTR,
        latency=latency,
        scale_outs=pool.scale_out_events,
        scale_ins=pool.scale_in_events,
        drains_completed=pool.drains_completed,
        handoffs=pool.handoffs,
        mid_drain_kills=kills["count"],
        peak_size=max(sizes, default=0),
        min_size=min(sizes, default=0),
        residue=pool.residue(),
        **outcomes.fields(),
        **_counters_of(ScaleChaosResult, metrics),
    )

    # -- invariants --------------------------------------------------------
    stuck = sorted(pool.draining)
    result.invariants = [
        _no_lost_request(
            result,
            f" across {len(pool.every)} units ({len(pool.retired)} retired, "
            f"{result.mid_drain_kills} mid-drain kills)",
        ),
        InvariantCheck(
            name="scale-in-coverage",
            passed=(
                result.scale_ins >= min_scale_ins
                and result.mid_drain_kills >= min_mid_drain_kills
            ),
            detail=(
                f"scale_ins={result.scale_ins} (need >= {min_scale_ins}); "
                f"mid_drain_kills={result.mid_drain_kills} "
                f"(need >= {min_mid_drain_kills})"
            ),
        ),
        InvariantCheck(
            name="drain-completion",
            passed=not stuck and result.drains_completed == result.scale_ins,
            detail=(
                f"drains_completed={result.drains_completed} of "
                f"{result.scale_ins} started"
                + (f"; still draining: {stuck}" if stuck else "")
            ),
        ),
        InvariantCheck(
            name="pool-bounds",
            passed=bool(sizes)
            and policy.min_size <= result.min_size
            and result.peak_size <= policy.max_size,
            detail=(
                f"observed sizes [{result.min_size}, {result.peak_size}] "
                f"within [{policy.min_size}, {policy.max_size}]"
            ),
        ),
        _post_crash_consistency(result, pool.active),
        _availability_floor(result, _SCALE_CHAOS_AVAILABILITY_FLOOR),
    ]
    return result
