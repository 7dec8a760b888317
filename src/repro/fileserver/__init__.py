"""File service: disk model, filesystem, server, client."""

from .._lazy import lazy_exports

_EXPORTS = {
    "FileClient": "client",
    "FileConnection": "client",
    "DiskModel": "disk",
    "Extent": "filesystem",
    "FileSystem": "filesystem",
    "FileServer": "server",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
