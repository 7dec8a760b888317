"""HTTP message model.

Requests and responses are plain dataclasses passed over stream
connections. Only what the experiments need is modeled: methods GET,
POST, and the batched MGET from the paper's clustering discussion
(Franks' 1994 MGET proposal: ``MGET URI:1.html URI:2.html``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, FrozenSet, Mapping, Tuple

__all__ = ["HttpRequest", "HttpResponse", "STATUS_REASONS"]

STATUS_REASONS: Dict[int, str] = {
    200: "OK",
    206: "Partial Content",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True, slots=True)
class HttpRequest:
    """One HTTP request.

    ``params`` carries decoded query-string / form parameters. For MGET,
    ``paths`` holds the batched URIs and ``path`` is ignored.

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
    paths: Tuple[str, ...] = ()
    context: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.method not in ("GET", "POST", "MGET"):
            raise ValueError(f"unsupported method: {self.method!r}")
        if self.method == "MGET" and not self.paths:
            raise ValueError("MGET requires at least one path")

    def param(self, name: str, default: Any = None) -> Any:
        """The request parameter *name*, or *default*."""
        return self.params.get(name, default)


@dataclass(frozen=True, slots=True)
class HttpResponse:
    """One HTTP response.

    For MGET responses, ``parts`` maps each requested path to its own
    :class:`HttpResponse` and ``body`` is empty.
    """

    status: int
    body: str = ""
    #: No response carries a header, but the empty block is still framed
    #: on the wire.
    headers: Mapping[str, str] = field(default_factory=dict, init=False)
    parts: Tuple[Tuple[str, "HttpResponse"], ...] = ()

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
