"""Front-end web server, application model, and API-based baseline."""

from .._lazy import lazy_exports

_EXPORTS = {
    "ApiBackendGateway": "api_access",
    "WebApplication": "app",
    "FrontendWebServer": "server",
    "qos_of": "app",
    "QOS_HEADER": "app",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
