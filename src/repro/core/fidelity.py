"""Adaptive low-fidelity replies.

When admission control rejects a request, the broker still answers it
immediately — "cached results from previous queries with lower fidelity
or simply an indication that the system is busy" (paper §IV). The
longer a request is allowed to be processed, the higher the fidelity it
receives; a dropped request gets fidelity 0 and the client learns the
system is busy without waiting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .cache import ResultCache
from .protocol import BrokerReply, BrokerRequest, ReplyStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import RequestContext

__all__ = ["FidelityPolicy"]


class FidelityPolicy:
    """How to answer a request the broker will not forward.

    A cached result, expired or not, is served as a degraded reply;
    ``max_stale_age`` bounds how old it may be, and its fidelity decays
    linearly from ``stale_fidelity`` to ``busy_fidelity`` over that age.
    """

    max_stale_age = 300.0
    stale_fidelity = 0.5
    busy_fidelity = 0.0
    busy_message = "system busy"

    def degrade(
        self,
        request: BrokerRequest,
        cache: Optional[ResultCache],
        reason: str,
        broker_name: str = "",
        context: Optional["RequestContext"] = None,
    ) -> BrokerReply:
        """Build the immediate low-fidelity reply for a rejected request."""
        if cache is not None and request.cacheable:
            stale = cache.get_stale(request.key())
            if stale is not None:
                value, age = stale
                if age <= self.max_stale_age:
                    fidelity = max(
                        self.busy_fidelity,
                        self.stale_fidelity
                        * (1.0 - max(age, 0.0) / self.max_stale_age),
                    )
                    return BrokerReply(
                        request_id=request.request_id,
                        status=ReplyStatus.DEGRADED,
                        payload=value,
                        fidelity=fidelity,
                        from_cache=True,
                        error=reason,
                        broker=broker_name,
                        context=context,
                    )
        return BrokerReply(
            request_id=request.request_id,
            status=ReplyStatus.DROPPED,
            payload=self.busy_message,
            fidelity=self.busy_fidelity,
            from_cache=False,
            error=reason,
            broker=broker_name,
            context=context,
        )
