"""Admission control at the broker.

Two independent gates, both from the paper:

1. **Threshold gate** — a request of effective level *c* is admitted
   only while the broker's outstanding count is below
   ``threshold × fraction(c)`` (Section V.B's forward-or-drop rule).
2. **Intensity gate** — "when traffic intensity of QoS classes exceed
   their limits, their requests are dropped and other classes are not
   affected": an optional per-class arrival-rate cap measured over a
   sliding window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from ..metrics import MetricsRegistry
from ..sim.core import Simulation
from .qos import QoSPolicy

__all__ = ["AdmissionController", "AdmissionDecision"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check."""

    admitted: bool
    reason: str = ""

    ACCEPT_REASON = "admitted"
    THRESHOLD_REASON = "qos-threshold"
    INTENSITY_REASON = "class-intensity"


#: Shared immutable decision instances — one admission check runs per
#: arriving request, so :meth:`AdmissionController.decide` avoids
#: allocating a fresh (frozen, hence slow-to-construct) dataclass each
#: time.
_ACCEPT = AdmissionDecision(True, AdmissionDecision.ACCEPT_REASON)
_REJECT_THRESHOLD = AdmissionDecision(False, AdmissionDecision.THRESHOLD_REASON)
_REJECT_INTENSITY = AdmissionDecision(False, AdmissionDecision.INTENSITY_REASON)


class AdmissionController:
    """Applies the QoS policy's gates to arriving requests."""

    #: Seconds of arrivals the intensity gate's rate estimate covers.
    rate_window = 1.0

    def __init__(
        self,
        sim: Simulation,
        policy: QoSPolicy,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.policy = policy
        self.metrics = metrics or MetricsRegistry()
        self.outstanding = 0
        # Arrival timestamps inside the current window, kept only for the
        # levels with a rate limit: nothing else reads them.
        self._arrivals: Dict[int, Deque[float]] = {
            level: deque()
            for level in range(1, policy.levels + 1)
            if policy.rate_limit(level) is not None
        }
        # The policy is immutable, so the per-level limits and metric
        # names are fixed: precompute one plan per level instead of
        # re-deriving them on every arriving request.
        metrics_ = self.metrics
        self._plans: Dict[int, Tuple] = {
            level: (
                policy.rate_limit(level),
                policy.admit_limit(level),
                metrics_.handle(f"admission.accepted.qos{level}"),
                metrics_.handle(f"admission.rejected.threshold.qos{level}"),
                metrics_.handle(f"admission.rejected.intensity.qos{level}"),
            )
            for level in range(1, policy.levels + 1)
        }

    # -- outstanding-count bookkeeping (driven by the broker) -----------

    def request_started(self) -> None:
        """A request was admitted (queued or sent to the backend)."""
        self.outstanding += 1

    def request_finished(self) -> None:
        """A previously admitted request has been answered."""
        if self.outstanding <= 0:
            raise RuntimeError("request_finished() without matching start")
        self.outstanding -= 1

    # -- rate estimation ---------------------------------------------------

    def _pruned(self, level: int) -> Deque[float]:
        """*level*'s arrivals less those that left the sliding window."""
        window = self._arrivals[level]
        horizon = self.sim._now - self.rate_window
        while window and window[0] <= horizon:
            window.popleft()
        return window

    def _rate(self, level: int) -> float:
        """Arrivals/second for *level* over the sliding window."""
        return len(self._pruned(level)) / self.rate_window

    def record_arrival(self, level: int) -> None:
        """Note one arrival of *level* (call for every request seen).

        A level without a rate limit keeps no window; a limited one
        holds only the arrivals of the last ``rate_window`` seconds.
        """
        if level not in self._plans:
            level = self.policy.clamp(level)
        if level in self._arrivals:
            self._pruned(level).append(self.sim._now)

    # -- the decision ------------------------------------------------------

    def decide(self, level: int, protected: bool = False) -> AdmissionDecision:
        """Admit or reject a request of effective QoS *level*.

        *protected* requests (late-step transactions) bypass the
        threshold gate as long as the hard threshold itself is not
        exceeded.
        """
        plan = self._plans.get(level)
        if plan is None:
            level = self.policy.clamp(level)
            plan = self._plans[level]
        limit, admit_limit, accepted, rejected_threshold, rejected_intensity = plan
        if limit is not None and self._rate(level) > limit:
            rejected_intensity.inc()
            return _REJECT_INTENSITY
        bound = self.policy.threshold if protected else admit_limit
        if self.outstanding >= bound:
            rejected_threshold.inc()
            return _REJECT_THRESHOLD
        accepted.inc()
        return _ACCEPT

    def __repr__(self) -> str:
        return (
            f"<AdmissionController outstanding={self.outstanding} "
            f"threshold={self.policy.threshold}>"
        )
