"""Workload generators.

* :class:`ClosedLoopClient` — WebStone-style best-effort client: issue a
  request, wait for the reply, immediately (or after a think time) issue
  the next. The paper's Table I depends on this loop structure: clients
  that get fast (low-fidelity) answers issue *more* requests.
* :class:`BurstClient` — ``ab``-style: a fixed number of requests at a
  fixed concurrency, used by the clustering experiment ("40 simultaneous
  requests").
* :class:`OpenLoopGenerator` — Poisson arrivals at a target rate,
  independent of completions (for overload ablations).
* :class:`ModulatedOpenLoopGenerator` — non-homogeneous Poisson
  arrivals whose instantaneous rate follows ``rate_at(t)``, sampled
  exactly by Lewis-Shedler thinning.
* :class:`DiurnalLoadGenerator` — a sinusoidal day/night curve (the
  autoscale experiment's 10× swing).
* :class:`FlashCrowdGenerator` — a steady base rate with sudden
  flash-crowd windows multiplying it.
* :func:`zipf_sampler` — popularity skew for cache experiments.
* :class:`OutcomeTally` — the one ledger of terminal request outcomes
  every experiment counts its requests into.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional

from ..metrics import MetricsRegistry, SummaryStats
from ..sim.core import Process, Simulation
from ..sim.resources import Resource

__all__ = [
    "ClosedLoopClient",
    "BurstClient",
    "OpenLoopGenerator",
    "ModulatedOpenLoopGenerator",
    "DiurnalLoadGenerator",
    "FlashCrowdGenerator",
    "zipf_sampler",
    "OUTCOMES",
    "OutcomeTally",
]

#: A request factory: called per iteration, returns a ``yield from``
#: generator that performs one complete request.
RequestFactory = Callable[..., Any]

#: The buckets a terminal request outcome lands in — exactly one each —
#: named as the result fields that count them.
OUTCOMES = ("ok", "degraded", "throttled", "dropped", "timeouts", "errors")

#: Bucket of each terminal status: a reply's ``ReplyStatus`` value, or
#: ``"timeout"`` for a call that timed out. Anything else is an error.
_BUCKETS = {"ok": "ok", "degraded": "degraded", "dropped": "dropped", "timeout": "timeouts"}

#: The ``workload.*`` counter each bucket bumps.
_COUNTERS = {
    "ok": "workload.ok",
    "degraded": "workload.degraded",
    "throttled": "workload.throttled",
    "dropped": "workload.dropped",
    "timeouts": "workload.timeout",
    "errors": "workload.error",
}


class OutcomeTally:
    """Terminal request outcomes, each counted in exactly one bucket.

    :meth:`add` maps a status to its bucket in :data:`OUTCOMES`; a
    DROPPED reply whose error is ``"throttled"`` is a deliberate
    per-tenant refusal and lands in ``throttled``, apart from capacity
    drops. With *metrics*, every outcome also bumps ``workload.done``
    and ``workload.<bucket>`` and, when answered (OK or DEGRADED),
    ``workload.answered`` — plus ``workload.fast`` within
    *fast_threshold* seconds. Each counter is created by its first
    increment, so an outcome that never happens adds no series to a
    telemetry export.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        fast_threshold: float = math.inf,
    ) -> None:
        self.metrics = metrics
        self.fast_threshold = fast_threshold
        #: Outcomes per bucket, in :data:`OUTCOMES` order.
        self.counts: Dict[str, int] = dict.fromkeys(OUTCOMES, 0)

    @property
    def requests(self) -> int:
        """Every outcome counted so far."""
        return sum(self.counts.values())

    @property
    def answered(self) -> int:
        """Outcomes answered with a result (OK + DEGRADED)."""
        return self.counts["ok"] + self.counts["degraded"]

    def add(
        self, status: str, error: str = "", elapsed: Optional[float] = None
    ) -> str:
        """Count one outcome; returns its bucket."""
        bucket = _BUCKETS.get(status, "errors")
        if bucket == "dropped" and error == "throttled":
            bucket = "throttled"
        self.counts[bucket] += 1
        metrics = self.metrics
        if metrics is not None:
            metrics.increment("workload.done")
            metrics.increment(_COUNTERS[bucket])
            if bucket == "ok" or bucket == "degraded":
                metrics.increment("workload.answered")
                if elapsed is not None and elapsed <= self.fast_threshold:
                    metrics.increment("workload.fast")
        return bucket

    def fields(self) -> Dict[str, int]:
        """``requests`` and every bucket but ``throttled``, as result fields.

        A result that counts refusals reads ``counts["throttled"]``
        besides; in one that does not, a refusal leaves ``requests``
        above the sum of its buckets, which its ledger check reports.
        """
        counts = self.counts
        return {
            "requests": self.requests,
            "ok": counts["ok"],
            "degraded": counts["degraded"],
            "dropped": counts["dropped"],
            "timeouts": counts["timeouts"],
            "errors": counts["errors"],
        }


class ClosedLoopClient:
    """One best-effort client looping request → response → request."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        request_factory: RequestFactory,
        think_time: float = 0.0,
        start_delay: float = 0.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.request_factory = request_factory
        self.think_time = think_time
        self.start_delay = start_delay
        self.metrics = MetricsRegistry()
        self.response_times = SummaryStats()
        self.completed = 0
        self.errors = 0
        self._process: Optional[Process] = None
        # Hot-path metric handles: per-client names are fixed, so the
        # f-string + registry lookup happens once, not per request.
        self._errors_counter = self.metrics.handle(f"client.{name}.errors")
        self._response_time = self.metrics.sample_handle(
            f"client.{name}.response_time"
        )

    def start(self, until: Optional[float] = None) -> Process:
        """Begin the loop; stops issuing once *until* (sim time) passes."""
        self._process = self.sim.process(self._run(until), name=f"client:{self.name}")
        return self._process

    def _run(self, until: Optional[float]):
        if self.start_delay:
            yield self.start_delay
        iteration = 0
        sim = self.sim
        while until is None or sim._now < until:
            started = sim._now
            try:
                yield from self.request_factory(self, iteration)
            except Exception:  # noqa: BLE001 - workload keeps going
                self.errors += 1
                self._errors_counter.inc()
            else:
                elapsed = sim._now - started
                self.completed += 1
                self.response_times.add(elapsed)
                self._response_time.add(elapsed)
            iteration += 1
            if self.think_time:
                yield self.think_time

    def __repr__(self) -> str:
        return f"<ClosedLoopClient {self.name} completed={self.completed}>"


class BurstClient:
    """Issue *total* requests at fixed *concurrency*, then stop.

    Mirrors ``ab -n total -c concurrency``: all request slots start at
    once; each slot issues its next request as soon as the previous one
    finishes.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        request_factory: RequestFactory,
        total: int,
        concurrency: int,
    ) -> None:
        if total < 1 or concurrency < 1:
            raise ValueError("total and concurrency must be >= 1")
        self.sim = sim
        self.name = name
        self.request_factory = request_factory
        self.total = total
        self.concurrency = concurrency
        self.response_times = SummaryStats()
        self.errors = 0

    def run(self) -> Process:
        """Start the burst; returns a process that ends when all complete."""
        return self.sim.process(self._run(), name=f"burst:{self.name}")

    def _run(self):
        slots = Resource(self.sim, self.concurrency)
        children = []
        for index in range(self.total):
            children.append(
                self.sim.process(self._one(slots, index), name=f"{self.name}:{index}")
            )
        yield self.sim.all_of(children)
        return self.response_times

    def _one(self, slots: Resource, index: int):
        slot = slots.request()
        yield slot
        started = self.sim.now
        try:
            yield from self.request_factory(self, index)
        except Exception:  # noqa: BLE001 - workload keeps going
            self.errors += 1
        else:
            self.response_times.add(self.sim.now - started)
        finally:
            slots.release(slot)


class OpenLoopGenerator:
    """Poisson arrivals at *rate*/second, each spawning one request."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        request_factory: RequestFactory,
        rate: float,
        rng_stream: Optional[str] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate!r}")
        self.sim = sim
        self.name = name
        self.request_factory = request_factory
        self.rate = rate
        self.rng = sim.rng(rng_stream or f"openloop.{name}")
        self.response_times = SummaryStats()
        self.errors = 0
        self.issued = 0

    def start(self, until: Optional[float] = None) -> Process:
        """Begin generating arrivals until *until* (sim time)."""
        return self.sim.process(self._run(until), name=f"openloop:{self.name}")

    def _run(self, until: Optional[float]):
        while until is None or self.sim.now < until:
            yield self.rng.expovariate(self.rate)
            if until is not None and self.sim.now >= until:
                return
            self.issued += 1
            self.sim.process(self._one(self.issued), name=f"{self.name}:{self.issued}")

    def _one(self, index: int):
        started = self.sim.now
        try:
            yield from self.request_factory(self, index)
        except Exception:  # noqa: BLE001 - workload keeps going
            self.errors += 1
        else:
            self.response_times.add(self.sim.now - started)


class ModulatedOpenLoopGenerator(OpenLoopGenerator):
    """Open-loop arrivals whose rate varies over time: ``rate_at(t)``.

    Samples the non-homogeneous Poisson process *exactly* via
    Lewis-Shedler thinning: candidate arrivals come at the constant
    envelope *peak_rate* and survive with probability
    ``rate_at(t) / peak_rate``. Subclasses define ``rate_at(t)``, which
    must never exceed ``peak_rate``.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        request_factory: RequestFactory,
        peak_rate: float,
        rng_stream: Optional[str] = None,
    ) -> None:
        super().__init__(
            sim, name, request_factory, rate=peak_rate, rng_stream=rng_stream
        )
        self.peak_rate = float(peak_rate)

    def _run(self, until: Optional[float]):
        while until is None or self.sim.now < until:
            yield self.rng.expovariate(self.peak_rate)
            if until is not None and self.sim.now >= until:
                return
            # Thinning: keep the candidate with probability rate/peak.
            if self.rng.random() * self.peak_rate > self.rate_at(self.sim.now):
                continue
            self.issued += 1
            self.sim.process(
                self._one(self.issued), name=f"{self.name}:{self.issued}"
            )


class DiurnalLoadGenerator(ModulatedOpenLoopGenerator):
    """A sinusoidal day/night load curve between *base_rate* and *peak_rate*.

    The rate starts at *base_rate* (midnight), peaks at
    ``period/2``, and returns — one full "day" per *period* simulated
    seconds. ``peak_rate / base_rate`` is the swing the autoscale
    experiment's headline (10×) is measured over.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        request_factory: RequestFactory,
        base_rate: float,
        peak_rate: float,
        period: float,
        rng_stream: Optional[str] = None,
    ) -> None:
        if base_rate <= 0 or peak_rate < base_rate:
            raise ValueError(
                f"need 0 < base_rate <= peak_rate: {base_rate!r}, {peak_rate!r}"
            )
        if period <= 0:
            raise ValueError(f"period must be positive: {period!r}")
        super().__init__(
            sim, name, request_factory, peak_rate, rng_stream=rng_stream
        )
        self.base_rate = float(base_rate)
        self.period = float(period)

    def rate_at(self, t: float) -> float:
        """base + (peak-base) * half-cosine wave over one period."""
        cycle = (t / self.period) % 1.0
        swing = 0.5 * (1.0 - math.cos(2.0 * math.pi * cycle))
        return self.base_rate + (self.peak_rate - self.base_rate) * swing


class FlashCrowdGenerator(ModulatedOpenLoopGenerator):
    """A steady *base_rate* with flash-crowd windows multiplying it.

    *crowds* is a sequence of ``(start, duration, multiplier)`` tuples:
    within a window the rate jumps to ``base_rate * multiplier``
    instantly (the defining feature of a flash crowd is its
    discontinuous onset) and drops back just as sharply when it ends.
    Overlapping windows take the largest multiplier.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        request_factory: RequestFactory,
        base_rate: float,
        crowds,
        rng_stream: Optional[str] = None,
    ) -> None:
        if base_rate <= 0:
            raise ValueError(f"base_rate must be positive: {base_rate!r}")
        self.crowds = []
        worst = 1.0
        for start, duration, multiplier in crowds:
            if duration <= 0 or multiplier < 1.0:
                raise ValueError(
                    f"need duration > 0 and multiplier >= 1: "
                    f"({start!r}, {duration!r}, {multiplier!r})"
                )
            self.crowds.append(
                (float(start), float(duration), float(multiplier))
            )
            worst = max(worst, float(multiplier))
        super().__init__(
            sim,
            name,
            request_factory,
            base_rate * worst,
            rng_stream=rng_stream,
        )
        self.base_rate = float(base_rate)

    def rate_at(self, t: float) -> float:
        """Base rate times the largest multiplier of any active crowd."""
        multiplier = 1.0
        for start, duration, factor in self.crowds:
            if start <= t < start + duration and factor > multiplier:
                multiplier = factor
        return self.base_rate * multiplier


def zipf_sampler(rng, n: int, skew: float = 1.0) -> Callable[[], int]:
    """A sampler of ranks 0..n-1 with Zipf(skew) popularity.

    Rank 0 is the most popular. Uses inverse-CDF over the precomputed
    harmonic weights — exact, fine for the n in the thousands used here.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1: {n!r}")
    weights = [1.0 / (rank + 1) ** skew for rank in range(n)]
    total = math.fsum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)

    def sample() -> int:
        # The first rank whose CDF reaches the draw; the last rank catches
        # a draw above a CDF that rounding left short of 1.0.
        return bisect_left(cumulative, rng.random(), 0, n - 1)

    return sample
