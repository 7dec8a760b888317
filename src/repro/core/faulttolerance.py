"""Fault-tolerance primitives: circuit breakers and retry policies.

The paper's broker keeps answering "even when the backend servers are
not available" (§III). The stages that implement that promise
(:class:`~repro.core.pipeline.RetryStage`,
:class:`~repro.core.pipeline.CircuitBreakerStage`,
:class:`~repro.core.pipeline.FailoverStage`) are built from the two
mechanisms here:

* :class:`CircuitBreaker` — the classic three-state machine, one per
  backend replica. CLOSED passes traffic and counts consecutive
  failures; ``failure_threshold`` of them OPEN the breaker, which
  rejects instantly (no connection attempts against a dead server);
  after ``reset_timeout`` it turns HALF_OPEN and admits a bounded
  number of live probe requests — a success closes it, a failure
  re-opens it. State transitions are mirrored into metrics
  (``broker.breaker.state`` samples plus ``broker.breaker.open`` /
  ``.closed`` / ``.half_open`` counters).
* :class:`RetryPolicy` — capped exponential backoff with jitter for
  re-attempting a failed backend call, drawn from a named RNG
  substream so retry schedules are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, List, Optional, Sequence

from ..errors import BrokerError
from ..metrics import MetricsRegistry
from ..sim.core import Simulation

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "RetryPolicy",
    "available_backends",
]


class BreakerState(Enum):
    """The circuit breaker's three states."""

    CLOSED = "closed"
    """Healthy: traffic flows, failures are counted."""

    OPEN = "open"
    """Tripped: dispatches are rejected without touching the backend."""

    HALF_OPEN = "half-open"
    """Probing: a bounded number of live requests test recovery."""


#: Numeric codes for ``broker.breaker.state`` samples.
_STATE_CODES = {
    BreakerState.CLOSED: 0.0,
    BreakerState.OPEN: 1.0,
    BreakerState.HALF_OPEN: 2.0,
}


class CircuitBreaker:
    """Closed/open/half-open failure gate for one backend replica.

    Parameters
    ----------
    sim:
        The owning simulation (supplies the clock).
    name:
        Label used in traces (normally the backend name).
    failure_threshold:
        Consecutive failures that trip a CLOSED breaker.
    reset_timeout:
        Seconds an OPEN breaker waits before going HALF_OPEN; also the
        replenish period for half-open probe budget.
    metrics:
        Registry receiving state samples and transition counters.
    """

    #: Live probes admitted per HALF_OPEN window.
    half_open_probes = 1

    def __init__(
        self,
        sim: Simulation,
        name: str = "",
        failure_threshold: int = 3,
        reset_timeout: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if failure_threshold < 1:
            raise BrokerError(
                f"failure_threshold must be >= 1: {failure_threshold!r}"
            )
        if reset_timeout <= 0:
            raise BrokerError(f"reset_timeout must be > 0: {reset_timeout!r}")
        self.sim = sim
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.metrics = metrics or MetricsRegistry()
        self._state = BreakerState.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_left = 0
        self._probe_window_at = 0.0

    # -- state ----------------------------------------------------------

    def current_state(self) -> BreakerState:
        """The state *now*, applying the OPEN→HALF_OPEN timer if due."""
        if (
            self._state is BreakerState.OPEN
            and self.sim.now - self._opened_at >= self.reset_timeout
        ):
            self._transition(BreakerState.HALF_OPEN)
            self._probes_left = self.half_open_probes
            self._probe_window_at = self.sim.now
        return self._state

    def try_probe(self) -> bool:
        """Claim one HALF_OPEN probe slot; False when the budget is spent.

        The budget replenishes every ``reset_timeout`` seconds, so a
        claimed-but-never-dispatched probe slot cannot wedge the breaker
        half-open forever.
        """
        if self.current_state() is not BreakerState.HALF_OPEN:
            return False
        if self._probes_left > 0:
            self._probes_left -= 1
            return True
        if self.sim.now - self._probe_window_at >= self.reset_timeout:
            self._probes_left = self.half_open_probes - 1
            self._probe_window_at = self.sim.now
            return True
        return False

    def allows(self) -> bool:
        """True when a dispatch may proceed (CLOSED, or a HALF_OPEN probe)."""
        state = self.current_state()
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.HALF_OPEN:
            return self.try_probe()
        return False

    # -- outcomes -------------------------------------------------------

    def record_success(self) -> None:
        """A dispatch succeeded: reset the streak; HALF_OPEN closes."""
        self._failures = 0
        if self._state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        """A dispatch failed: count it; trip on threshold or failed probe."""
        if self._state is BreakerState.HALF_OPEN:
            self._trip()
            return
        if self._state is BreakerState.OPEN:
            return  # late result of an in-flight call; already open
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._failures = 0
        self._opened_at = self.sim.now
        self._transition(BreakerState.OPEN)

    def _transition(self, state: BreakerState) -> None:
        if state is self._state:
            return
        self._state = state
        self.metrics.observe("broker.breaker.state", _STATE_CODES[state])
        self.metrics.increment(
            f"broker.breaker.{state.value.replace('-', '_')}"
        )

    def __repr__(self) -> str:
        return (
            f"<CircuitBreaker {self.name!r} {self._state.value} "
            f"failures={self._failures}>"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter for backend re-attempts.

    ``max_attempts`` counts *total* executions (1 = no retries). The
    delay before retry *n* (n ≥ 1) is
    ``min(max_delay, base_delay × multiplier^(n-1))`` plus a uniform
    jitter of up to ``jitter × delay`` — the jitter decorrelates the
    retry storms of concurrent dispatchers.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: ClassVar[float] = 2.0
    jitter: ClassVar[float] = 0.5
    max_delay: ClassVar[float] = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise BrokerError(f"max_attempts must be >= 1: {self.max_attempts!r}")
        if self.base_delay < 0:
            raise BrokerError(f"base_delay must be >= 0: {self.base_delay!r}")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """The pause before retry number *attempt* (1-based)."""
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        if self.jitter and delay > 0:
            delay += rng.uniform(0.0, self.jitter * delay)
        return delay


def available_backends(
    backends: Sequence[object], exclude: Sequence[object] = ()
) -> List[object]:
    """The replicas whose breakers admit a dispatch right now.

    Backends without a breaker installed are always available. A
    HALF_OPEN breaker consumes one probe slot when selected here, so
    callers should dispatch to what they are handed.
    """
    available: List[object] = []
    for backend in backends:
        if backend in exclude:
            continue
        breaker = getattr(backend, "breaker", None)
        if breaker is None or breaker.allows():
            available.append(backend)
    return available
