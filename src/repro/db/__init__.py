"""Mini relational database: engine, networked server, and client."""

from .._lazy import lazy_exports

_EXPORTS = {
    "Database": "engine",
    "DatabaseServer": "server",
    "DatabaseClient": "client",
    "DatabaseConnection": "client",
    "QueryResult": "client",
    "service_time": "cost",
    "ExecutionStats": "executor",
    "ResultSet": "executor",
    "HashIndex": "index",
    "parse": "parser",
    "tokenize": "parser",
    "Column": "schema",
    "Schema": "schema",
    "Table": "table",
    "Comparison": "query",
    "InList": "query",
    "SelectStatement": "query",
    "UpdateStatement": "query",
    "MaterializedView": "views",
    "ViewCatalog": "views",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
