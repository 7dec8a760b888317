"""HTTP message model.

Requests and responses are plain dataclasses passed over stream
connections. Only what the experiments need is modeled: methods GET
and POST.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, FrozenSet, Mapping, Tuple

__all__ = ["HttpRequest", "HttpResponse", "STATUS_REASONS"]

STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True, slots=True)
class HttpRequest:
    """One HTTP request.

    ``params`` carries decoded query-string / form parameters.

    ``context`` is the per-request
    :class:`~repro.core.pipeline.RequestContext` the front-end web
    server attaches at arrival (applications read it to link their
    broker calls to the HTTP request). Like a trace header, it is
    excluded from equality, repr, and simulated wire size.
    """

    #: Dataclass fields that contribute no simulated wire bytes.
    __nonwire_fields__: ClassVar[FrozenSet[str]] = frozenset({"context"})

    method: str
    path: str
    params: Mapping[str, Any] = field(default_factory=dict)
    headers: Mapping[str, str] = field(default_factory=dict)
    body: str = ""
    #: Always empty; an empty tuple is still framed on the wire, so
    #: dropping the field would shrink every request's modelled size.
    paths: Tuple[str, ...] = field(default=(), init=False)
    context: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.method not in ("GET", "POST"):
            raise ValueError(f"unsupported method: {self.method!r}")

    def param(self, name: str, default: Any = None) -> Any:
        """The request parameter *name*, or *default*."""
        return self.params.get(name, default)


@dataclass(frozen=True, slots=True)
class HttpResponse:
    """One HTTP response."""

    status: int
    body: str = ""
    #: No response carries a header, but the empty block is still framed
    #: on the wire.
    headers: Mapping[str, str] = field(default_factory=dict, init=False)
    #: Always empty; like ``headers`` it is still framed on the wire.
    parts: Tuple[Tuple[str, "HttpResponse"], ...] = field(default=(), init=False)

    @property
    def reason(self) -> str:
        return STATUS_REASONS.get(self.status, "Unknown")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @staticmethod
    def text(body: str) -> "HttpResponse":
        """Convenience constructor for a plain-text 200 response."""
        return HttpResponse(status=200, body=body)

    @staticmethod
    def error(status: int, message: str = "") -> "HttpResponse":
        """Convenience constructor for an error response."""
        return HttpResponse(status=status, body=message or STATUS_REASONS.get(status, ""))
