"""Request clustering: batch related requests into one backend access.

"Service brokers can gather all the requests and rewrite the query
command" (paper §V.A) — clustering is application specific, so the
engine is a pluggable :class:`Combiner` plus a :class:`ClusteringConfig`
(batch size cap and optional gather window). These combiners cover the
paper's cases:

* :class:`RepeatWorkloadCombiner` — the paper's Figure-7 scheme: *n*
  same-script CGI requests become one request with a ``repeat=n``
  parameter; the backend repeats the workload n times in one slot.
* :class:`InListQueryCombiner` — multiple-query optimization in the
  style the paper cites (Sellis, TODS 1988): *n* keyed SELECTs against
  the same table/column are rewritten into one ``WHERE key IN (...)``
  query and the result rows are routed back to each requester.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..db.client import QueryResult
from ..db.parser import parse
from ..db.query import Comparison, SelectStatement
from ..errors import BrokerError, SqlSyntaxError
from .protocol import BrokerRequest

__all__ = [
    "Combiner",
    "ClusteringConfig",
    "RepeatWorkloadCombiner",
    "InListQueryCombiner",
    "FileBatchCombiner",
]


class Combiner:
    """Strategy for grouping requests and merging/splitting them."""

    def key(self, request: BrokerRequest) -> Optional[str]:
        """The cluster key for *request*; ``None`` = not clusterable."""
        raise NotImplementedError

    def combine(self, requests: Sequence[BrokerRequest]) -> Tuple[str, Any]:
        """Merge a batch into one ``(operation, payload)`` backend call."""
        raise NotImplementedError

    def split(self, requests: Sequence[BrokerRequest], result: Any) -> List[Any]:
        """Distribute the combined *result* back to each request."""
        raise NotImplementedError


@dataclass(frozen=True)
class ClusteringConfig:
    """How aggressively a broker clusters.

    ``max_batch`` is the paper's *degree of clustering*; ``window`` is
    how long a dispatcher waits to let companions accumulate (0 =
    cluster only what is already queued).
    """

    combiner: Combiner
    max_batch: int = 1
    window: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise BrokerError(f"max_batch must be >= 1: {self.max_batch!r}")
        if self.window < 0:
            raise BrokerError(f"window must be >= 0: {self.window!r}")


class RepeatWorkloadCombiner(Combiner):
    """Figure-7 clustering: one CGI call repeats the workload *n* times.

    Applies to HTTP ``"get"`` operations whose payload is
    ``(path, params)``; the combined call carries ``repeat=n`` and the
    backend script (see the FIG-7 scenario) loops its workload. Every
    request in the batch receives the same response body.
    """

    #: The query parameter carrying the repeat count.
    repeat_param = "repeat"

    def key(self, request: BrokerRequest) -> Optional[str]:
        if request.operation != "get":
            return None
        path, _params = request.payload
        return f"repeat:{request.service}:{path}"

    def combine(self, requests: Sequence[BrokerRequest]) -> Tuple[str, Any]:
        path, params = requests[0].payload
        merged = dict(params or {})
        merged[self.repeat_param] = len(requests)
        return "get", (path, merged)

    def split(self, requests: Sequence[BrokerRequest], result: Any) -> List[Any]:
        return [result for _ in requests]


def _sql_literal(value: Any) -> str:
    """Render a Python value as a mini-SQL literal."""
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return repr(value)


class InListQueryCombiner(Combiner):
    """Rewrite *n* keyed SELECTs into one ``WHERE key IN (...)`` query.

    Clusters ``"query"`` operations whose SQL parses to::

        SELECT <cols|*> FROM <table> WHERE <key> = <literal>

    (no ``COUNT(*)`` or GROUP BY). The combined query selects the
    requested columns plus the key column, so the broker can route each
    result row back to the request whose key value it matches —
    including requests whose key found no rows (they receive an empty
    result, exactly as if they had run alone).
    """

    def _pattern(self, request: BrokerRequest) -> Optional[SelectStatement]:
        if request.operation != "query" or not isinstance(request.payload, str):
            return None
        try:
            statement = parse(request.payload)
        except SqlSyntaxError:
            return None
        if not isinstance(statement, SelectStatement):
            return None
        if statement.aggregates or statement.group_by is not None:
            return None
        if not isinstance(statement.where, Comparison):
            return None
        return statement

    def key(self, request: BrokerRequest) -> Optional[str]:
        statement = self._pattern(request)
        if statement is None:
            return None
        return (
            f"inlist:{request.service}:{statement.table}:"
            f"{statement.columns!r}:{statement.where.column}"
        )

    def combine(self, requests: Sequence[BrokerRequest]) -> Tuple[str, Any]:
        statements = [self._pattern(request) for request in requests]
        assert all(s is not None for s in statements)
        head = statements[0]
        if len(requests) == 1:
            return "query", requests[0].payload
        key_column = head.where.column  # type: ignore[union-attr]
        values: List[Any] = []
        for statement in statements:
            value = statement.where.value  # type: ignore[union-attr]
            if value not in values:
                values.append(value)
        if head.columns:
            selected = list(head.columns)
            if key_column not in selected:
                selected.append(key_column)
            select_list = ", ".join(selected)
        else:
            select_list = "*"
        literals = ", ".join(_sql_literal(value) for value in values)
        sql = (
            f"SELECT {select_list} FROM {head.table} "
            f"WHERE {key_column} IN ({literals})"
        )
        return "query", sql

    def split(self, requests: Sequence[BrokerRequest], result: Any) -> List[Any]:
        if len(requests) == 1:
            return [result]
        if not isinstance(result, QueryResult):
            raise BrokerError(
                f"InListQueryCombiner expected a QueryResult, got {result!r}"
            )
        head = self._pattern(requests[0])
        assert head is not None
        key_column = head.where.column  # type: ignore[union-attr]
        try:
            key_position = result.columns.index(key_column)
        except ValueError:
            raise BrokerError(
                f"combined result lacks the key column {key_column!r}"
            ) from None
        wanted = tuple(head.columns) if head.columns else result.columns
        positions = [result.columns.index(name) for name in wanted]
        outputs: List[Any] = []
        for request in requests:
            statement = self._pattern(request)
            assert statement is not None
            value = statement.where.value  # type: ignore[union-attr]
            rows = tuple(
                tuple(row[p] for p in positions)
                for row in result.rows
                if row[key_position] == value
            )
            outputs.append(
                QueryResult(columns=wanted, rows=rows, stats=dict(result.stats))
            )
        return outputs


class FileBatchCombiner(Combiner):
    """Cluster file reads into one batched disk pass.

    "The file servers may cluster requests whose accesses are in
    adjacent disk layout" (paper §II): batching the reads into one
    ``read_batch`` exchange lets the file server's elevator order the
    whole group by block position, turning scattered seeks into one
    sweep. Results come back per file in request order.
    """

    def key(self, request: BrokerRequest) -> Optional[str]:
        if request.operation != "read":
            return None
        return f"filebatch:{request.service}"

    def combine(self, requests: Sequence[BrokerRequest]) -> Tuple[str, Any]:
        if len(requests) == 1:
            return requests[0].operation, requests[0].payload
        return "read_batch", tuple(request.payload for request in requests)

    def split(self, requests: Sequence[BrokerRequest], result: Any) -> List[Any]:
        if len(requests) == 1:
            return [result]
        if not isinstance(result, list) or len(result) != len(requests):
            raise BrokerError(
                f"read_batch returned {result!r} for {len(requests)} requests"
            )
        return list(result)
