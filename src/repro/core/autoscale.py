"""Elastic autoscaling: token buckets, a target-tracking controller, and
an elastic broker pool with a graceful drain protocol.

Three cooperating pieces close the control loop ROADMAP item 3 asks for:

- :class:`TokenBucket` / :class:`TenantThrottle` — the pure rate-limit
  primitive the broker's :class:`~repro.core.pipeline.ThrottleStage`
  uses to refuse one tenant's flash crowd before it starves the pool.
- :class:`AutoscalerPolicy` + :func:`decide_scale` — a *pure*
  target-tracking decision function (hysteresis band, asymmetric
  scale-out/scale-in cooldowns, per-decision step limit, hard
  ``[min_size, max_size]`` clamp) so the control law is property-testable
  without a simulation.
- :class:`Autoscaler` — the sim process that samples
  :class:`~repro.obs.telemetry.TelemetryScraper` gauge series (falling
  back to live broker readings for units provisioned between scrapes),
  consults :class:`~repro.obs.slo.SloEngine` burn alerts (an active
  alert vetoes scale-in), and drives a :class:`BrokerPool`.

:class:`BrokerPool` owns provisioning and the **graceful drain
protocol**. Draining a unit proceeds strictly in this order: the broker
leaves the routing ring (no new work is sent), refuses raced arrivals
(:meth:`~repro.core.broker.ServiceBroker.begin_drain`), quiesces its
queue/ledger, hands any still-queued orphans to a live peer (balancing
its own admission ledger and recovery journal per orphan), leaves its
shard group (electing a successor leader), is purged from the load
listener, is released from supervision, and only then terminates
(:meth:`~repro.core.broker.ServiceBroker.decommission`). The pool then
keeps only the unit's name and residue and lets the unit go: its
``on_retire`` hook is where every other collaborator that registered
the unit forgets it. A crash
mid-drain aborts the quiesce wait until the supervisor fail-fasts the
journal and the resurrection restarts the broker — then the drain
resumes. The scale-chaos soak in :mod:`repro.workload.chaos` verifies
no request is ever lost across this dance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as _dc_replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import BrokerError
from ..metrics import MetricsRegistry
from .protocol import BrokerReply, ReplyStatus
from .sharding import HashRing

__all__ = [
    "TokenBucket",
    "TenantThrottle",
    "AutoscalerPolicy",
    "ScaleDecision",
    "decide_scale",
    "Autoscaler",
    "BrokerPool",
]

#: Virtual nodes per unit on the pool's routing ring.
POOL_VNODES = 32
#: Seconds between a draining unit's quiesce checks.
DRAIN_POLL = 0.05


class TokenBucket:
    """A classic token bucket: *rate* tokens/second, capped at *burst*.

    The bucket starts full. :meth:`allow` refills lazily from the
    caller-supplied clock, so the class is pure (no simulation handle)
    and the level provably stays within ``[0, burst]``.
    """

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0.0:
            raise ValueError(f"rate must be > 0: {rate!r}")
        if burst <= 0.0:
            raise ValueError(f"burst must be > 0: {burst!r}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = 0.0

    def refill(self, now: float) -> None:
        """Credit tokens for the time elapsed since the last update."""
        if now > self.updated:
            self.tokens = min(
                self.burst, self.tokens + (now - self.updated) * self.rate
            )
            self.updated = now

    def allow(self, now: float, cost: float = 1.0) -> bool:
        """Take *cost* tokens if available; returns whether admitted.

        A refused call consumes nothing, so the level never goes
        negative; refills clamp at *burst*, so it never overshoots.
        """
        self.refill(now)
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    @property
    def level(self) -> float:
        """Tokens available as of the last :meth:`allow`/:meth:`refill`."""
        return self.tokens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TokenBucket rate={self.rate:g}/s burst={self.burst:g} "
            f"level={self.tokens:.2f}>"
        )


class TenantThrottle:
    """Per-tenant :class:`TokenBucket` map with lazy bucket creation.

    Every tenant gets the default ``(rate, burst)`` unless *overrides*
    names it explicitly — so a premium tenant can buy headroom while an
    abusive one is clamped. The class is pure (caller supplies the
    clock) and emits no metrics; its call site, the broker's
    ``ThrottleStage``, counts rejections as ``broker.throttle.rejected``.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        overrides: Optional[Dict[str, Tuple[float, float]]] = None,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.overrides = dict(overrides or {})
        self.buckets: Dict[str, TokenBucket] = {}

    def bucket(self, tenant: str) -> TokenBucket:
        """The (lazily created) bucket for *tenant*."""
        bucket = self.buckets.get(tenant)
        if bucket is None:
            rate, burst = self.overrides.get(tenant, (self.rate, self.burst))
            bucket = self.buckets[tenant] = TokenBucket(rate, burst)
        return bucket

    def allow(self, tenant: str, now: float) -> bool:
        """Whether *tenant* may spend one token at *now*."""
        return self.bucket(tenant).allow(now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TenantThrottle default={self.rate:g}/{self.burst:g} "
            f"tenants={len(self.buckets)}>"
        )


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Target-tracking parameters for one autoscaled pool.

    *target* is the desired per-broker load signal (e.g. in-flight
    requests per broker). The hysteresis band ``target*(1±hysteresis)``
    absorbs noise; cooldowns are measured from the last scale event in
    *either* direction, which is what makes opposing decisions within
    one cooldown window impossible (see :func:`decide_scale`).
    """

    target: float
    hysteresis: float = 0.2
    scale_out_cooldown: float = 5.0
    scale_in_cooldown: float = 30.0
    max_step: int = 2
    min_size: int = 1
    max_size: int = 8

    def __post_init__(self) -> None:
        if self.target <= 0.0:
            raise ValueError(f"target must be > 0: {self.target!r}")
        if not 0.0 <= self.hysteresis < 1.0:
            raise ValueError(
                f"hysteresis must be in [0, 1): {self.hysteresis!r}"
            )
        if self.scale_out_cooldown < 0.0 or self.scale_in_cooldown < 0.0:
            raise ValueError("cooldowns must be >= 0")
        if self.max_step < 1:
            raise ValueError(f"max_step must be >= 1: {self.max_step!r}")
        if not 1 <= self.min_size <= self.max_size:
            raise ValueError(
                f"need 1 <= min_size <= max_size: "
                f"{self.min_size!r}..{self.max_size!r}"
            )


@dataclass(frozen=True)
class ScaleDecision:
    """Outcome of one control-loop evaluation."""

    desired: int
    action: str  # "out" | "in" | "hold"
    reason: str


def decide_scale(
    policy: AutoscalerPolicy,
    size: int,
    signal: float,
    now: float,
    last_scale_at: float,
    alert_active: bool = False,
) -> ScaleDecision:
    """Pure target-tracking scale decision.

    Above the hysteresis band the desired size is
    ``ceil(size * signal / target)`` clamped to ``size + max_step`` and
    ``max_size``; below the band it is the same expression clamped to
    ``size - max_step`` and ``min_size``. Scale-in is additionally
    vetoed while *alert_active* (an SLO burn alert means capacity is
    the wrong thing to remove). Both directions honour a cooldown from
    *last_scale_at* — the time of the last scale event in either
    direction — so an "out" can never be followed by an "in" within the
    scale-in cooldown and vice versa.
    """
    size = max(policy.min_size, min(policy.max_size, int(size)))
    high = policy.target * (1.0 + policy.hysteresis)
    low = policy.target * (1.0 - policy.hysteresis)
    if signal > high:
        if now - last_scale_at < policy.scale_out_cooldown:
            return ScaleDecision(size, "hold", "out-cooldown")
        desired = math.ceil(size * signal / policy.target)
        desired = min(desired, size + policy.max_step, policy.max_size)
        if desired > size:
            return ScaleDecision(
                desired, "out", f"signal {signal:.2f} above band {high:.2f}"
            )
        return ScaleDecision(size, "hold", "at-max")
    if signal < low:
        if alert_active:
            return ScaleDecision(size, "hold", "slo-burn-alert")
        if now - last_scale_at < policy.scale_in_cooldown:
            return ScaleDecision(size, "hold", "in-cooldown")
        if signal > 0.0:
            desired = math.ceil(size * signal / policy.target)
        else:
            desired = policy.min_size
        desired = max(desired, size - policy.max_step, policy.min_size)
        if desired < size:
            return ScaleDecision(
                desired, "in", f"signal {signal:.2f} below band {low:.2f}"
            )
        return ScaleDecision(size, "hold", "at-min")
    return ScaleDecision(size, "hold", "in-band")


class BrokerPool:
    """An elastic set of broker units behind a consistent-hash ring.

    A *unit* is whatever *factory* builds — in the autoscale experiment
    a broker plus its dedicated backend, so backend capacity scales
    with the pool. The pool owns unit membership: provisioning adds the
    unit to the routing ring (and shard group, when given), scale-in
    runs the graceful drain protocol described in the module docstring,
    and :attr:`every` names every unit ever provisioned, so chaos
    invariants can audit the full population (:meth:`residue`). A
    retired unit leaves only its name and its residue snapshot
    (:attr:`retired`); the unit itself is not kept.

    Parameters
    ----------
    factory:
        ``factory(pool, index) -> ServiceBroker``. Builds and wires one
        unit (node, backend, supervisor watch, load reporting); the
        pool handles ring/group membership and the ``on_provision`` /
        ``on_retire`` hooks (used by experiments to attach telemetry
        and routes, and to release them and the unit's backend).
    supervisor, group, listener:
        Optional lifecycle collaborators; each enables the matching
        drain hand-off step (release, leadership hand-off, listener
        purge).
    """

    def __init__(
        self,
        sim: Any,
        factory: Callable[["BrokerPool", int], Any],
        *,
        supervisor: Any = None,
        group: Any = None,
        listener: Any = None,
        seed: int = 0,
        drain_grace: float = 5.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.factory = factory
        self.supervisor = supervisor
        self.group = group
        self.listener = listener
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.drain_grace = float(drain_grace)
        self.ring = HashRing(seed=seed, vnodes=POOL_VNODES)
        #: Active units by broker name (insertion-ordered; drains LIFO).
        self.brokers: Dict[str, Any] = {}
        #: Units mid-drain (off the ring, not yet decommissioned).
        self.draining: Dict[str, Any] = {}
        #: Residue of each decommissioned unit, read at its decommission
        #: (:meth:`ServiceBroker.residue`), by name in completion order.
        self.retired: Dict[str, Dict[str, int]] = {}
        #: The name of every unit ever provisioned, in provisioning order.
        self.every: List[str] = []
        #: Called with each new broker right after it joins the ring.
        self.on_provision: Optional[Callable[[Any], None]] = None
        #: Called with each broker right after its decommission; must
        #: schedule nothing and draw nothing (it only forgets the unit).
        self.on_retire: Optional[Callable[[Any], None]] = None
        self._next_index = 0
        self.scale_out_events = 0
        self.scale_in_events = 0
        self.drains_completed = 0
        self.handoffs = 0

    # -- membership --------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of active (routable, non-draining) units."""
        return len(self.brokers)

    @property
    def active(self) -> List[Any]:
        """The active brokers, oldest first."""
        return list(self.brokers.values())

    def provision(self) -> Any:
        """Build one new unit and make it routable."""
        index = self._next_index
        self._next_index += 1
        broker = self.factory(self, index)
        self.brokers[broker.name] = broker
        self.every.append(broker.name)
        self.ring.add(broker.name)
        if self.group is not None:
            self.group.add(broker)
        self.metrics.increment("autoscaler.provisioned")
        if self.on_provision is not None:
            self.on_provision(broker)
        return broker

    def scale_to(self, desired: int) -> None:
        """Grow or shrink the active set to *desired* units.

        Growth provisions immediately; shrinkage starts one graceful
        drain per surplus unit (newest first) — the units leave
        :attr:`brokers` now (no new routes) but only count as gone once
        their drain completes.
        """
        desired = max(0, int(desired))
        grew = self.size < desired
        while self.size < desired:
            self.provision()
        if grew:
            self.scale_out_events += 1
            self.metrics.increment("autoscaler.scale_out")
        shrank = self.size > desired
        while self.size > desired:
            victim = next(reversed(self.brokers))
            self.drain(victim)
        if shrank:
            self.metrics.increment("autoscaler.scale_in")

    def drain(self, name: str) -> Any:
        """Start the graceful drain of broker *name*; returns the process."""
        broker = self.brokers.pop(name)
        self.ring.remove(name)
        self.draining[name] = broker
        self.scale_in_events += 1
        self.metrics.increment("autoscaler.drain.begin")
        return self.sim.process(
            self._drain(broker), name=f"pool:drain:{name}"
        )

    def residue(self) -> Dict[str, Dict[str, int]]:
        """Residue of every unit ever provisioned, in provisioning order.

        A retired unit reports its snapshot from decommission; an active
        or draining one is read now (see
        :meth:`~repro.core.broker.ServiceBroker.residue`).
        """
        retired = self.retired
        live = {**self.brokers, **self.draining}
        return {
            name: retired[name] if name in retired else live[name].residue()
            for name in self.every
        }

    # -- routing -----------------------------------------------------------

    def route(self, key: str) -> Any:
        """A live active broker for *key*, in ring preference order.

        Falls back past dead preference entries (crashed-but-active
        units) to any live unit; raises :class:`BrokerError` when the
        pool has no live capacity at all.
        """
        if not self.brokers:
            raise BrokerError("no active brokers in pool")
        for candidate in self.ring.preference(key):
            broker = self.brokers.get(candidate)
            if broker is not None and broker.alive:
                return broker
        for broker in self.brokers.values():
            if broker.alive:
                return broker
        raise BrokerError("no live brokers in pool")

    def _peer(self, exclude: str) -> Any:
        """A live active broker other than *exclude* (None if none)."""
        for broker in self.brokers.values():
            if broker.name != exclude and broker.alive:
                return broker
        return None

    # -- the drain protocol ------------------------------------------------

    def _handoff(self, victim: Any) -> int:
        """Re-home the victim's still-queued requests onto a live peer.

        Each orphan is settled on the victim's books (admission ledger
        balanced, journal entry cleared) and forwarded to a peer, whose
        enqueue stage re-admits and re-journals it; the reply address
        stays the original client. With no peer available the orphan is
        answered ``DROPPED`` directly — refused, never lost.
        """
        journal = victim.journal
        moved = 0
        now = self.sim._now
        for item in victim.queue.reset():
            request = item.request
            victim.admission.request_finished()
            if journal is not None:
                journal.record_answered(request.request_id)
            peer = self._peer(exclude=victim.name)
            if peer is None:
                victim.socket.sendto(
                    BrokerReply(
                        request_id=request.request_id,
                        status=ReplyStatus.DROPPED,
                        payload="pool draining",
                        fidelity=0.0,
                        error="drain-no-peer",
                        broker=victim.name,
                        context=request.context,
                    ),
                    request.reply_to,
                )
                self.metrics.increment("autoscaler.drain.no_peer")
                continue
            # Rewrite the service name: pool units may expose distinct
            # aliases (``items-0``, ``items-1`` …) and the peer's
            # ValidateServiceStage checks its own.
            victim.socket.sendto(
                _dc_replace(request, service=peer.service, sent_at=now),
                peer.address,
            )
            moved += 1
        if moved:
            self.handoffs += moved
            self.metrics.increment("autoscaler.drain.handoff", moved)
        return moved

    def _drain(self, broker: Any):
        """Coordinator process for one graceful drain (see module doc)."""
        sim = self.sim
        broker.begin_drain()
        deadline = sim.now + self.drain_grace
        handed_off = False
        while True:
            if not broker.alive:
                # Crashed mid-drain: the supervisor fail-fasts the
                # journal and the chaos resurrection restarts the
                # broker (begin_drain's flag survives the restart, so
                # it keeps refusing work). Wait it out, then resume
                # with a fresh grace window.
                self.metrics.increment("autoscaler.drain.interrupted")
                while not broker.alive:
                    yield DRAIN_POLL
                deadline = sim.now + self.drain_grace
                handed_off = False
                continue
            journal = broker.journal
            pending = (
                len(broker.queue)
                + broker.admission.outstanding
                + (journal.pending_count if journal is not None else 0)
            )
            if pending == 0:
                break
            if not handed_off and sim.now >= deadline:
                self._handoff(broker)
                handed_off = True
            yield DRAIN_POLL
        if self.group is not None:
            self.group.leave(broker.name)
        if self.listener is not None:
            self.listener.deregister(broker.name)
        if self.supervisor is not None:
            self.supervisor.release(broker.name)
        broker.decommission()
        del self.draining[broker.name]
        self.retired[broker.name] = broker.residue()
        self.drains_completed += 1
        self.metrics.increment("autoscaler.drained")
        if self.on_retire is not None:
            self.on_retire(broker)


class Autoscaler:
    """Closed-loop controller driving a :class:`BrokerPool`.

    Every *interval* it computes the pool's load signal — the mean
    in-flight-plus-queued requests per active broker, read from the
    scraper's ``broker.load.<name>`` gauge series (live broker
    readings fill in for units provisioned since the last scrape) —
    feeds :func:`decide_scale`, and applies the decision. An active SLO
    burn alert vetoes scale-in. Decisions are counted under
    ``autoscaler.*`` and the size/signal timeline is kept in
    :attr:`history` for experiment tables.
    """

    def __init__(
        self,
        sim: Any,
        pool: BrokerPool,
        policy: AutoscalerPolicy,
        scraper: Any = None,
        engine: Any = None,
        interval: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.pool = pool
        self.policy = policy
        self.scraper = scraper
        self.engine = engine
        self.interval = float(interval)
        self.metrics = metrics if metrics is not None else pool.metrics
        self.last_scale_at = float("-inf")
        #: ``(time, size, signal, action)`` per evaluation.
        self.history: List[Tuple[float, int, float, str]] = []

    def signal_value(self) -> float:
        """The pool's current load signal (see class docstring)."""
        brokers = self.pool.active
        if not brokers:
            return 0.0
        total = 0.0
        for broker in brokers:
            reading = None
            if self.scraper is not None:
                series = self.scraper.series.get(f"broker.load.{broker.name}")
                if series is not None:
                    point = series.last()
                    if point is not None:
                        reading = point[1]
            if reading is None:
                reading = float(broker.outstanding) if broker.alive else 0.0
            total += reading
        return total / len(brokers)

    def start(self, until: Optional[float] = None) -> Any:
        """Spawn the control-loop process; returns it."""
        return self.sim.process(self._run(until), name="autoscaler")

    def _run(self, until: Optional[float]):
        pool = self.pool
        metrics = self.metrics
        while until is None or self.sim.now < until:
            yield self.interval
            if until is not None and self.sim.now >= until:
                return
            now = self.sim.now
            size = pool.size
            signal = self.signal_value()
            alert = (
                bool(self.engine.active_alerts())
                if self.engine is not None
                else False
            )
            decision = decide_scale(
                self.policy, size, signal, now, self.last_scale_at, alert
            )
            metrics.increment("autoscaler.decisions")
            metrics.observe("autoscaler.pool_size", float(size))
            self.history.append((now, size, signal, decision.action))
            if decision.action == "out":
                pool.scale_to(decision.desired)
                self.last_scale_at = now
            elif decision.action == "in":
                pool.scale_to(decision.desired)
                self.last_scale_at = now
            else:
                metrics.increment("autoscaler.holds")
                if decision.reason.endswith("cooldown"):
                    metrics.increment("autoscaler.blocked_cooldown")
                elif decision.reason == "slo-burn-alert":
                    metrics.increment("autoscaler.blocked_alert")

    def gauges(self) -> Dict[str, Callable[[], float]]:
        """Scraper-ready gauges for the pool's size and drain state."""
        pool = self.pool
        return {
            "autoscaler.pool_size": lambda: float(pool.size),
            "autoscaler.draining": lambda: float(len(pool.draining)),
            "autoscaler.retired": lambda: float(len(pool.retired)),
        }
