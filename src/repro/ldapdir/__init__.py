"""LDAP-style directory service: tree, filters, server, client."""

from .._lazy import lazy_exports

_EXPORTS = {
    "DirectoryClient": "client",
    "DirectoryConnection": "client",
    "SearchResult": "client",
    "DN": "entry",
    "Entry": "entry",
    "parse_dn": "entry",
    "parse_filter": "filters",
    "DirectoryServer": "server",
    "DirectoryTree": "tree",
    "SCOPE_BASE": "tree",
    "SCOPE_ONE": "tree",
    "SCOPE_SUB": "tree",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
