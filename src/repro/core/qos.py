"""QoS classes and the broker admission policy.

The paper's rule (Section V.B): each broker bounds its *outstanding*
requests by a threshold (20 in the testbed), and a request of QoS level
*c* is forwarded only while the outstanding count is below that class's
*fraction* of the threshold. Higher-priority classes get larger
fractions, so under load the low classes are shed first and priority
inversion cannot occur.

The printed paper's fraction values are lost to OCR; we default to the
natural linear schedule ``(C - c + 1) / C`` for *C* classes — with the
paper's 3 classes and threshold 20 that is 20 / 13.3 / 6.7 — which
reproduces the published drop-ratio ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from ..errors import BrokerError

__all__ = ["QoSPolicy"]


@dataclass(frozen=True)
class QoSPolicy:
    """Admission thresholds and scheduling weights for QoS classes.

    Parameters
    ----------
    levels:
        Number of QoS classes; level 1 is the highest priority.
    threshold:
        Maximum outstanding (queued + in-service) requests per broker.
    fractions:
        Optional per-level override of the admitted fraction of
        *threshold*; defaults to the linear schedule described above.
    rate_limits:
        Optional per-level cap on arrival rate (requests/second). When a
        class exceeds its contracted intensity its requests are dropped
        without affecting other classes.
    deadlines:
        Optional per-level completion budget in seconds; the
        fault-tolerant pipeline's
        :class:`~repro.core.pipeline.TimeoutBudgetStage` stamps it on
        each request as an absolute deadline, and retries/failover stop
        when it is exhausted (the request then degrades instead of
        waiting forever).
    """

    levels: int = 3
    threshold: int = 20
    fractions: Optional[Mapping[int, float]] = None
    rate_limits: Optional[Mapping[int, float]] = None
    deadlines: Optional[Mapping[int, float]] = None

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise BrokerError(f"levels must be >= 1: {self.levels!r}")
        if self.threshold < 1:
            raise BrokerError(f"threshold must be >= 1: {self.threshold!r}")
        if self.fractions is not None:
            for level, fraction in self.fractions.items():
                self._check_level(level)
                if not 0.0 < fraction <= 1.0:
                    raise BrokerError(
                        f"fraction for level {level} out of (0, 1]: {fraction!r}"
                    )
        if self.deadlines is not None:
            for level, deadline in self.deadlines.items():
                self._check_level(level)
                if deadline <= 0:
                    raise BrokerError(
                        f"deadline for level {level} must be > 0: {deadline!r}"
                    )

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.levels:
            raise BrokerError(
                f"QoS level {level} out of range 1..{self.levels}"
            )

    def clamp(self, level: int) -> int:
        """Clamp an arbitrary integer into the valid level range."""
        return min(max(level, 1), self.levels)

    def fraction(self, level: int) -> float:
        """Fraction of the threshold admitted for *level*."""
        self._check_level(level)
        if self.fractions is not None and level in self.fractions:
            return self.fractions[level]
        return (self.levels - level + 1) / self.levels

    def admit_limit(self, level: int) -> float:
        """Outstanding-request bound for *level*."""
        return self.threshold * self.fraction(level)

    def deadline(self, level: int) -> Optional[float]:
        """Completion budget for *level* in seconds, if one is set."""
        self._check_level(level)
        if self.deadlines is None:
            return None
        return self.deadlines.get(level)

    def rate_limit(self, level: int) -> Optional[float]:
        """Contracted arrival-rate cap for *level*, if any."""
        self._check_level(level)
        if self.rate_limits is None:
            return None
        return self.rate_limits.get(level)
