"""Web application model for the front-end server.

A :class:`WebApplication` is a dynamic application ("CGI executable or
PHP/ASP script" in the paper's terms): a path plus a handler generator
``handler(frontend, request)`` that produces an :class:`HttpResponse`
(or a body string). Handlers access backend services through whatever
gateway they were constructed with — the API-based baseline or a broker
client — which is exactly the axis the paper's experiments compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..http.messages import HttpRequest

__all__ = ["WebApplication", "qos_of"]

#: Header carrying a request's QoS class (1 = highest priority).
QOS_HEADER = "x-qos"

#: Seconds of non-backend work (request parsing, HTML rendering) an
#: application is charged per invocation.
PARSE_TIME = 0.0005


def qos_of(request: HttpRequest) -> int:
    """The QoS class of *request*, from its ``x-qos`` header.

    A missing or malformed header means class 1.
    """
    try:
        return int(request.headers.get(QOS_HEADER, 1))
    except (TypeError, ValueError):
        return 1


@dataclass(frozen=True)
class WebApplication:
    """A dynamic application mounted at *path* on the front end.

    Each invocation is charged :data:`PARSE_TIME` before its handler runs.
    """

    path: str
    handler: Callable
