"""HTTP layer: message model, backend web server, client."""

from .._lazy import lazy_exports

_EXPORTS = {
    "HttpClient": "client",
    "HttpConnection": "client",
    "HttpRequest": "messages",
    "HttpResponse": "messages",
    "STATUS_REASONS": "messages",
    "BackendWebServer": "server",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
