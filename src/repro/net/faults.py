"""Deterministic fault injection: crash, partition, degrade — on schedule.

The paper's distributed model exists to keep answering "even when the
backend servers are not available" (§III): brokers fall back to cached
results of lower fidelity or a busy indication instead of leaving the
client hanging. Exercising that promise requires faults, and this
module provides them *deterministically*: a :class:`FaultPlan` is a
fixed schedule of fault windows — built by hand or drawn from a named
RNG substream (:meth:`FaultPlan.crash_restart_cycle`) — and a
:class:`FaultInjector` replays it against live servers and links. Runs
with the same seed produce the same outages at the same instants, and a
run with an *empty* plan is byte-identical to one without an injector
at all.

Five fault shapes cover the failure modes the broker pipeline must
absorb (see ``DESIGN.md`` §5 for the fault-to-stage mapping):

* :class:`BackendCrash` — the server process dies (listener unbound,
  live connections severed) and restarts after ``duration``;
* :class:`BrokerCrash` — the *broker* process dies mid-flight and
  restarts after ``duration`` (see :mod:`repro.core.lifecycle` for
  detection and recovery);
* :class:`LinkDown` — a network partition between two hosts: streams
  crossing the link are killed, new connects fail, datagrams vanish;
* :class:`LinkDegrade` — the link stays up but gains latency and/or
  loses bandwidth;
* :class:`SlowBackend` — the server stays reachable but serves every
  request ``factor`` times slower (overload, GC pauses, a cold cache).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import SimError
from ..metrics import MetricsRegistry
from ..sim.core import Process, Simulation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import Network

__all__ = [
    "BackendCrash",
    "BrokerCrash",
    "LinkDown",
    "LinkDegrade",
    "SlowBackend",
    "FaultPlan",
    "FaultInjector",
]


@dataclass(frozen=True)
class BackendCrash:
    """One crash/restart window for a named backend target.

    The target (looked up in the injector's target map) must expose
    ``crash()`` and ``restart()`` — :class:`~repro.http.server.BackendWebServer`
    does. While the window is open the process is gone: its listener is
    unbound, its live connections are severed, and new connection
    attempts are refused.
    """

    kind = "backend-crash"

    target: str
    at: float
    duration: float

    def key(self) -> str:
        """The outage-window key this fault's downtime is recorded under."""
        return self.target

    def describe(self) -> str:
        """One human-readable schedule line."""
        return (
            f"{self.kind}: {self.target} down "
            f"[{self.at:.3f}s, {self.at + self.duration:.3f}s)"
        )


@dataclass(frozen=True)
class BrokerCrash:
    """One crash/restart window for a named *broker* target.

    The target (looked up in the injector's target map) must expose
    ``crash()`` and ``restart()`` —
    :class:`~repro.core.broker.ServiceBroker` does. While the window is
    open the broker's UDP port is unbound: requests sent to it vanish
    exactly like datagrams to a dead host, its queue and in-service
    work are lost, and clients survive via timeouts, retries, or a
    replica broker (detection and recovery live in
    :mod:`repro.core.lifecycle`).
    """

    kind = "broker-crash"

    target: str
    at: float
    duration: float

    def key(self) -> str:
        """The outage-window key this fault's downtime is recorded under."""
        return self.target

    def describe(self) -> str:
        """One human-readable schedule line."""
        return (
            f"{self.kind}: {self.target} down "
            f"[{self.at:.3f}s, {self.at + self.duration:.3f}s)"
        )


@dataclass(frozen=True)
class LinkDown:
    """A full partition of the link between hosts *a* and *b*.

    Streams crossing the pair are killed on both endpoints (a TCP reset,
    not an orderly FIN — the peer is unreachable), new stream connects
    raise :class:`~repro.errors.NoRouteError`, and datagrams are lost.
    """

    kind = "link-down"

    a: str
    b: str
    at: float
    duration: float

    def key(self) -> str:
        """The outage-window key this fault's downtime is recorded under."""
        return f"{self.a}<->{self.b}"

    def describe(self) -> str:
        """One human-readable schedule line."""
        return (
            f"{self.kind}: {self.a}<->{self.b} partitioned "
            f"[{self.at:.3f}s, {self.at + self.duration:.3f}s)"
        )


@dataclass(frozen=True)
class LinkDegrade:
    """A lossy/slow window on the link between hosts *a* and *b*.

    The base link is replaced with one adding ``extra_latency`` seconds
    of one-way delay and with bandwidth scaled by ``bandwidth_factor``;
    it keeps the base link's loss.
    """

    kind = "link-degrade"

    a: str
    b: str
    at: float
    duration: float
    extra_latency: float = 0.0
    bandwidth_factor: float = 1.0

    def key(self) -> str:
        """The outage-window key this fault's downtime is recorded under."""
        return f"{self.a}<->{self.b}"

    def describe(self) -> str:
        """One human-readable schedule line."""
        return (
            f"{self.kind}: {self.a}<->{self.b} "
            f"+{self.extra_latency * 1000:.1f}ms "
            f"bw×{self.bandwidth_factor:g} "
            f"[{self.at:.3f}s, {self.at + self.duration:.3f}s)"
        )


@dataclass(frozen=True)
class SlowBackend:
    """A degraded-service window: the target serves ``factor``× slower.

    The target must expose a ``service_time_scale`` attribute that its
    request handlers honour (the stock
    :class:`~repro.http.server.BackendWebServer` multiplies static
    service times by it; CGI handlers consult it themselves).
    """

    kind = "slow-backend"

    target: str
    at: float
    duration: float
    factor: float = 4.0

    def key(self) -> str:
        """The outage-window key this fault's downtime is recorded under."""
        return self.target

    def describe(self) -> str:
        """One human-readable schedule line."""
        return (
            f"{self.kind}: {self.target} ×{self.factor:g} slower "
            f"[{self.at:.3f}s, {self.at + self.duration:.3f}s)"
        )


class FaultPlan:
    """An immutable-by-convention schedule of fault windows.

    A plan is just a sequence of fault dataclasses ordered however the
    caller likes; the :class:`FaultInjector` runs each window as its own
    process, so overlap is allowed: a pair stays partitioned while any
    of its :class:`LinkDown` windows is open, and of overlapping
    :class:`LinkDegrade` (each degrading the configured link) or
    :class:`SlowBackend` windows the newest open one is in force. An
    empty plan injects nothing and perturbs nothing — seed runs stay
    byte-identical.
    """

    def __init__(self, faults: Sequence[object] = ()) -> None:
        self.faults: List[object] = list(faults)

    @classmethod
    def empty(cls) -> "FaultPlan":
        """The no-op plan (inject nothing)."""
        return cls()

    @classmethod
    def crash_restart_cycle(
        cls,
        target: str,
        mtbf: float,
        mttr: float,
        until: float,
        rng: random.Random,
        first_at: Optional[float] = None,
    ) -> "FaultPlan":
        """A crash/repair schedule with exponential times-to-failure.

        Time-to-failure is drawn from ``Exp(1/mtbf)`` on *rng* (use a
        named simulation substream so the schedule is reproducible and
        independent of the workload's draws); repair time is the fixed
        *mttr*, which keeps the outage windows easy to reason about in
        the availability benchmark. Windows are generated until *until*.
        """
        if mtbf <= 0 or mttr <= 0:
            raise SimError(f"mtbf and mttr must be > 0: {mtbf!r}, {mttr!r}")
        faults: List[object] = []
        at = first_at if first_at is not None else rng.expovariate(1.0 / mtbf)
        while at < until:
            faults.append(BackendCrash(target=target, at=at, duration=mttr))
            at += mttr + rng.expovariate(1.0 / mtbf)
        return cls(faults)

    @classmethod
    def broker_crash_cycle(
        cls,
        target: str,
        mtbf: float,
        mttr: float,
        until: float,
        rng: random.Random,
    ) -> "FaultPlan":
        """:meth:`crash_restart_cycle`, but the windows kill a *broker*.

        Identical schedule generation, emitting :class:`BrokerCrash`
        faults — the chaos harness points these at
        :class:`~repro.core.broker.ServiceBroker` targets.
        """
        plan = cls.crash_restart_cycle(target, mtbf, mttr, until, rng)
        plan.faults = [
            BrokerCrash(target=fault.target, at=fault.at, duration=fault.duration)
            for fault in plan.faults
        ]
        return plan

    def add(self, fault: object) -> "FaultPlan":
        """Append *fault* and return the plan (for chaining)."""
        self.faults.append(fault)
        return self

    def describe(self) -> List[str]:
        """One schedule line per fault, in plan order."""
        return [fault.describe() for fault in self.faults]

    def __iter__(self) -> Iterator[object]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __repr__(self) -> str:
        return f"<FaultPlan {len(self.faults)} fault(s)>"


class FaultInjector:
    """Replays a :class:`FaultPlan` against live servers and links.

    Parameters
    ----------
    sim:
        The owning simulation.
    plan:
        The fault schedule to replay.
    network:
        Required for link faults; the network whose links are severed
        or degraded.
    targets:
        Name → target object map for backend faults (crash/restart and
        slow-backend windows).
    metrics:
        Registry receiving ``faults.injected`` / ``faults.healed``
        counters.

    :meth:`start` launches one process per fault; nothing happens until
    it is called, and a plan with no faults starts no processes at all.
    The injector records every fault's ``[start, end)`` window under its
    :meth:`key() <BackendCrash.key>`, so experiments can classify each
    request as issued during an outage or during healthy operation
    (:meth:`windows`, :meth:`is_down`).
    """

    def __init__(
        self,
        sim: Simulation,
        plan: FaultPlan,
        network: Optional["Network"] = None,
        targets: Optional[Dict[str, object]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.plan = plan
        self.network = network
        self.targets: Dict[str, object] = dict(targets or {})
        self.metrics = metrics or MetricsRegistry()
        self._windows: Dict[str, List[Tuple[float, float]]] = {}
        self._open: Dict[int, float] = {}
        # Per slow-backend target: its scale before the first open
        # window, and the open windows as (index, factor), newest last.
        self._slow: Dict[str, Tuple[float, List[Tuple[int, float]]]] = {}
        self._started = False

    def start(self) -> List[Process]:
        """Launch the per-fault processes; returns them (rarely awaited)."""
        if self._started:
            raise SimError("fault injector already started")
        self._started = True
        return [
            self.sim.process(
                self._drive(index, fault),
                name=f"fault:{fault.kind}:{fault.key()}",
            )
            for index, fault in enumerate(self.plan)
        ]

    def _drive(self, index: int, fault: object):
        if fault.at > 0:
            yield fault.at
        self._apply(index, fault)
        self._open[index] = self.sim.now
        self.metrics.increment("faults.injected")
        yield fault.duration
        self._revert(index, fault)
        started = self._open.pop(index)
        self._windows.setdefault(fault.key(), []).append((started, self.sim.now))
        self.metrics.increment("faults.healed")

    # -- applying / reverting -------------------------------------------

    def _target(self, name: str) -> object:
        try:
            return self.targets[name]
        except KeyError:
            raise SimError(
                f"fault targets unknown backend {name!r}; "
                f"known: {sorted(self.targets)}"
            ) from None

    def _require_network(self, fault: object) -> "Network":
        if self.network is None:
            raise SimError(
                f"{fault.kind} fault needs a network, but the injector "
                "was built without one"
            )
        return self.network

    def _apply(self, index: int, fault: object) -> None:
        if isinstance(fault, (BackendCrash, BrokerCrash)):
            self._target(fault.target).crash()
        elif isinstance(fault, LinkDown):
            self._require_network(fault).sever_link(fault.a, fault.b)
        elif isinstance(fault, LinkDegrade):
            network = self._require_network(fault)
            base = network.configured_link(fault.a, fault.b)
            network.override_link(fault.a, fault.b, base.degraded(
                extra_latency=fault.extra_latency,
                bandwidth_factor=fault.bandwidth_factor,
            ), window=index)
        elif isinstance(fault, SlowBackend):
            target = self._target(fault.target)
            _, open_factors = self._slow.setdefault(
                fault.target, (target.service_time_scale, [])
            )
            open_factors.append((index, fault.factor))
            target.service_time_scale = fault.factor
        else:
            raise SimError(f"unknown fault type {type(fault).__name__!r}")

    def _revert(self, index: int, fault: object) -> None:
        if isinstance(fault, (BackendCrash, BrokerCrash)):
            self._target(fault.target).restart()
        elif isinstance(fault, LinkDown):
            self._require_network(fault).restore_link(fault.a, fault.b)
        elif isinstance(fault, LinkDegrade):
            self._require_network(fault).clear_override(
                fault.a, fault.b, window=index
            )
        elif isinstance(fault, SlowBackend):
            # The newest still-open window's factor is in force; the
            # original scale comes back when the last one closes.
            original, open_factors = self._slow[fault.target]
            open_factors.remove((index, fault.factor))
            if open_factors:
                scale = open_factors[-1][1]
            else:
                scale = original
                del self._slow[fault.target]
            self._target(fault.target).service_time_scale = scale

    # -- outage-window inspection ---------------------------------------

    def windows(self, key: str) -> List[Tuple[float, float]]:
        """Completed ``[start, end)`` outage windows recorded under *key*.

        A window still open at the time of the call is reported as
        ``[start, sim.now)``.
        """
        closed = list(self._windows.get(key, ()))
        for index, started in self._open.items():
            if self.plan.faults[index].key() == key:
                closed.append((started, self.sim.now))
        closed.sort()
        return closed

    def is_down(self, key: str, at: float) -> bool:
        """True when *at* falls inside any outage window of *key*."""
        return any(start <= at < end for start, end in self.windows(key))

    def __repr__(self) -> str:
        return (
            f"<FaultInjector plan={len(self.plan)} "
            f"targets={sorted(self.targets)}>"
        )
