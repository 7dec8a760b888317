"""Plain-text table rendering for the benchmark harness.

The paper's evaluation consists of small tables and x/y series; these
helpers render them with aligned columns so benchmark output can be
compared side by side with the paper's tables. The observability layer
adds a latency-distribution view: :func:`render_histograms` summarizes
a set of :class:`~repro.metrics.histogram.LatencyHistogram` objects as
a p50/p90/p99/p99.9 table.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Sequence

from .histogram import LatencyHistogram

__all__ = [
    "render_table",
    "render_histograms",
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


def render_table(rows: Sequence[Mapping[str, Any]], title: str = "") -> str:
    """Render *rows* (list of dicts) as an aligned text table.

    The columns are every key of every row, in order of first use.
    """
    header: List[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
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
