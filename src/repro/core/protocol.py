"""Broker message formats.

Web applications and brokers exchange :class:`BrokerRequest` /
:class:`BrokerReply` messages over UDP (the paper's distributed model
uses "lightweight UDP" between front end and brokers). A request names
a *service*, an *operation* on it, a payload, and its QoS tagging; a
reply carries the result (possibly degraded) plus provenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, ClassVar, FrozenSet, Optional

from ..net.address import Address

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import RequestContext

__all__ = ["BrokerRequest", "BrokerReply", "ReplyStatus"]


class ReplyStatus(str, Enum):
    """Outcome class of a broker reply."""

    OK = "ok"
    """Full-fidelity result from the backend (or a fresh cache hit)."""

    DEGRADED = "degraded"
    """Admission-rejected, but answered with a stale cached result."""

    DROPPED = "dropped"
    """Admission-rejected with only a 'system busy' indication."""

    ERROR = "error"
    """The backend (or the broker) failed the request."""


@dataclass(frozen=True, slots=True)
class BrokerRequest:
    """One message from a web application to a service broker.

    ``context`` is the request's :class:`~repro.core.pipeline.RequestContext`
    riding along from the front end to the broker. It models an
    out-of-band trace header: excluded from equality, repr, and
    simulated wire size (see ``__nonwire_fields__``).
    """

    #: Dataclass fields that contribute no simulated wire bytes.
    __nonwire_fields__: ClassVar[FrozenSet[str]] = frozenset({"context"})

    request_id: int
    service: str
    operation: str
    payload: Any
    reply_to: Address
    qos_level: int = 1
    txn_id: Optional[str] = None
    txn_step: int = 0
    cacheable: bool = True
    cache_key: Optional[str] = None
    sent_at: float = 0.0
    context: Optional["RequestContext"] = field(
        default=None, compare=False, repr=False
    )

    def key(self) -> str:
        """The cache/clustering key for this request."""
        if self.cache_key is not None:
            return self.cache_key
        return f"{self.service}:{self.operation}:{self.payload!r}"


@dataclass(frozen=True, slots=True)
class BrokerReply:
    """One reply from a service broker to a web application.

    ``context`` carries the request's pipeline context back to the
    caller, so the full per-stage timeline is inspectable end to end.
    Like the request's, it adds no simulated wire bytes.
    """

    #: Dataclass fields that contribute no simulated wire bytes.
    __nonwire_fields__: ClassVar[FrozenSet[str]] = frozenset({"context"})

    request_id: int
    status: ReplyStatus
    payload: Any = None
    fidelity: float = 1.0
    from_cache: bool = False
    error: str = ""
    broker: str = ""
    queue_time: float = 0.0
    service_time: float = 0.0
    context: Optional["RequestContext"] = field(
        default=None, compare=False, repr=False
    )

    @property
    def ok(self) -> bool:
        """True for any answered request (full or degraded fidelity)."""
        return self.status in (ReplyStatus.OK, ReplyStatus.DEGRADED)

    @property
    def full_fidelity(self) -> bool:
        return self.status is ReplyStatus.OK and self.fidelity >= 1.0
