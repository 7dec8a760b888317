"""Plain-text table rendering for the benchmark harness.

The paper's evaluation consists of small tables and x/y series; these
helpers render them with aligned columns so benchmark output can be
compared side by side with the paper's tables. The observability layer
adds latency-distribution views: :func:`render_histograms` summarizes a
set of :class:`~repro.metrics.histogram.LatencyHistogram` objects as a
p50/p90/p99/p99.9 table and :func:`render_histogram` shows one
histogram's bucket shape as ASCII bars.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Sequence

from .histogram import LatencyHistogram

__all__ = [
    "render_table",
    "render_series",
    "render_histograms",
    "render_histogram",
    "format_cell",
]


def format_cell(value: Any) -> str:
    """Render one table cell: floats get 4 significant digits."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if value == int(value) and abs(value) < 1e12:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


def render_table(
    rows: Sequence[Mapping[str, Any]],
    columns: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render *rows* (list of dicts) as an aligned text table."""
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    header = list(columns)
    body: List[List[str]] = [
        [format_cell(row.get(col, "")) for col in header] for row in rows
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_histograms(
    histograms: Mapping[str, LatencyHistogram],
    title: str = "",
) -> str:
    """Render named histograms as one quantile table in milliseconds.

    Empty histograms render their quantile cells as ``-``.
    """
    rows = [
        {
            "name": name,
            "count": hist.count,
            "p50_ms": hist.p50 * 1000.0,
            "p90_ms": hist.p90 * 1000.0,
            "p99_ms": hist.p99 * 1000.0,
            "p99.9_ms": hist.p999 * 1000.0,
            "max_ms": hist.maximum * 1000.0,
        }
        for name, hist in histograms.items()
    ]
    return render_table(rows, title=title)


def render_histogram(hist: LatencyHistogram) -> str:
    """Render one histogram's non-empty buckets as 40-column ASCII bars."""
    if hist.count == 0:
        return "(empty histogram)"
    peak = max(count for _, count in hist.buckets())
    lines = []
    for edge, count in hist.buckets():
        if not count:
            continue
        label = "overflow" if edge == float("inf") else f"<= {edge * 1000.0:g} ms"
        bar = "#" * max(1, round(40 * count / peak))
        lines.append(f"{label:>16}  {bar} {count}")
    return "\n".join(lines)


def render_series(xs: Iterable[Any], ys: Iterable[Any]) -> str:
    """Render a two-column x/y series (one figure curve)."""
    rows = [{"x": x, "y": y} for x, y in zip(xs, ys)]
    return render_table(rows, ["x", "y"])
