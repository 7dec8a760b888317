"""Terminal operator dashboard: sparkline panels over the ring buffers.

Renders the :class:`~repro.obs.telemetry.TelemetryScraper`'s
:class:`~repro.obs.telemetry.TimeSeries` as unicode sparklines, grouped
into panels per stage/QoS/shard. :func:`render_dashboard` draws the
newest state; subscribe :func:`live_panel` to the scraper and each
scrape re-renders the current frame. A frame is a pure function of the
buffers, so frames are deterministic and testable.

Rendering reads the buffers only — it never touches the simulation, so
drawing a dashboard (or not) cannot perturb a seeded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "sparkline",
    "Panel",
    "default_panels",
    "render_dashboard",
    "live_panel",
]

#: Eight-level block characters, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Columns of a dashboard row's sparkline.
SPARK_WIDTH = 40


def sparkline(values: Sequence[float]) -> str:
    """The last :data:`SPARK_WIDTH` values as a unicode sparkline.

    A flat series renders at the lowest level; an empty one renders
    empty. NaNs render as spaces.
    """
    tail = list(values)[-SPARK_WIDTH:]
    if not tail:
        return ""
    finite = [v for v in tail if v == v]
    if not finite:
        return " " * len(tail)
    low = min(finite)
    high = max(finite)
    span = high - low
    top = len(SPARK_CHARS) - 1
    chars = []
    for value in tail:
        if value != value:
            chars.append(" ")
        elif span <= 0:
            chars.append(SPARK_CHARS[0])
        else:
            level = int((value - low) / span * top + 0.5)
            chars.append(SPARK_CHARS[level])
    return "".join(chars)


@dataclass(frozen=True)
class Panel:
    """One dashboard panel: labelled rows over named series.

    ``kind`` selects how a series is drawn: ``"value"`` plots the raw
    points (gauges, percentiles); ``"rate"`` plots successive deltas
    divided by the scrape interval (cumulative counters).
    """

    title: str
    rows: Tuple[Tuple[str, str], ...]  # (label, series name)
    kind: str = "value"

    def __post_init__(self) -> None:
        if self.kind not in ("value", "rate"):
            raise ValueError(f"panel kind must be value|rate: {self.kind!r}")


#: Cap rows per auto-built panel so wide fleets stay readable.
MAX_PANEL_ROWS = 12


def _panel_from(
    title: str,
    names: List[str],
    kind: str,
    label_of: Callable[[str], str],
) -> Optional[Panel]:
    if not names:
        return None
    rows = tuple((label_of(name), name) for name in sorted(names)[:MAX_PANEL_ROWS])
    return Panel(title=title, rows=rows, kind=kind)


def default_panels(scraper: Any) -> List[Panel]:
    """Derive a sensible panel set from the series the scraper holds.

    Groups by name family: per-QoS completion rates, windowed p99s,
    broker outstanding load, queue depths, shard table, chaos workload
    outcomes, and SLO budgets. Families with no series are omitted.
    """
    names = sorted(scraper.series)
    panels: List[Panel] = []

    def tail(name: str) -> str:
        return name.split(".", 1)[1] if "." in name else name

    candidates: List[Optional[Panel]] = [
        _panel_from(
            "full-fidelity completions (req/s)",
            [n for n in names if n.startswith("app.fullfid.")],
            "rate",
            tail,
        ),
        _panel_from(
            "chaos workload outcomes (req/s)",
            [
                n
                for n in names
                if n.startswith("workload.")
                and not n.startswith("workload.done.")
                and n.count(".") == 1
            ],
            "rate",
            tail,
        ),
        _panel_from(
            "windowed p99 latency (s)",
            [n for n in names if ".p99." in n],
            "value",
            lambda n: n.replace("obs.latency.", ""),
        ),
        _panel_from(
            "broker outstanding load",
            [
                n
                for n in names
                if n.startswith("broker.load.") and n.count(".") == 2
            ],
            "value",
            lambda n: n.rsplit(".", 1)[-1],
        ),
        _panel_from(
            "broker queue depth",
            [n for n in names if n.endswith(".queue_depth") and n.startswith("broker.load.")],
            "value",
            lambda n: n.split(".")[2],
        ),
        _panel_from(
            "queue sheds (req/s)",
            [n for n in names if n.startswith("broker.load.") and n.endswith(".shed")],
            "rate",
            lambda n: n.split(".")[2],
        ),
        _panel_from(
            "shard load (leader-reported)",
            [
                n
                for n in names
                if n.startswith("shard.load.") and not n.endswith(".queue_depth")
            ],
            "value",
            lambda n: n[len("shard.load."):],
        ),
        # "We refused" (broker throttle refusals / admission 503s) vs
        # "we lost" (backpressure sheds, admission drops): one panel so
        # an operator can tell deliberate refusal from capacity loss.
        _panel_from(
            "refused vs shed vs dropped (req/s)",
            [
                n
                for n in names
                if n in (
                    "frontend.rejected",
                    "broker.throttle.rejected",
                    "broker.shed",
                    "broker.drops",
                )
            ],
            "rate",
            lambda n: n,
        ),
        _panel_from(
            "autoscaler pool (units)",
            [
                n
                for n in names
                if n in (
                    "autoscaler.pool_size",
                    "autoscaler.draining",
                    "autoscaler.retired",
                )
            ],
            "value",
            tail,
        ),
        _panel_from(
            "autoscaler events (per s)",
            [
                n
                for n in names
                if n in (
                    "autoscaler.scale_out",
                    "autoscaler.scale_in",
                    "autoscaler.drained",
                    "autoscaler.drain.handoff",
                )
            ],
            "rate",
            tail,
        ),
        _panel_from(
            "SLO error budget remaining",
            [n for n in names if n.startswith("slo.") and n.endswith(".budget")],
            "value",
            lambda n: n[len("slo."):-len(".budget")],
        ),
    ]
    for panel in candidates:
        if panel is not None:
            panels.append(panel)
    return panels


def _series_values(
    scraper: Any, name: str, kind: str
) -> Tuple[List[float], Optional[float]]:
    """(plotted values, last value) for one series."""
    series = scraper.series.get(name)
    if series is None:
        return [], None
    points = series.points()
    if not points:
        return [], None
    if kind == "rate":
        interval = scraper.interval
        values = [
            (b - a) / interval
            for (_, a), (_, b) in zip(points, points[1:])
        ]
        if not values:
            values = [0.0]
    else:
        values = [v for _, v in points]
    return values, values[-1]


def render_dashboard(scraper: Any, engine: Any = None) -> str:
    """One full dashboard frame of the newest state, as a string."""
    last = scraper.records[-1] if scraper.records else None
    now = last.t if last is not None else 0.0
    lines = [
        f"┌─ telemetry dashboard ─ t={now:g}s ─ live ─ "
        f"{scraper.scrapes} scrapes @ {scraper.interval:g}s ─┐"
    ]
    for panel in default_panels(scraper):
        lines.append("")
        lines.append(f"── {panel.title} " + "─" * max(0, 46 - len(panel.title)))
        for label, name in panel.rows:
            values, last_value = _series_values(scraper, name, panel.kind)
            spark = sparkline(values)
            shown = "-" if last_value is None else f"{last_value:g}"
            lines.append(f"  {label:<22} {spark:<{SPARK_WIDTH}} {shown:>10}")
    if engine is not None:
        active = engine.active_alerts()
        fired = len(engine.alerts)
        lines.append("")
        lines.append(
            f"── alerts: {fired} fired, {len(active)} active "
            + "─" * 24
        )
        for alert in active:
            lines.append(
                f"  ⚠ {alert.severity:<5} {alert.slo:<20} "
                f"since t={alert.fired_at:g}s"
            )
    lines.append("└" + "─" * 64 + "┘")
    return "\n".join(lines)


def live_panel(emit: Callable[[str], None]) -> Callable[[Any, Any], None]:
    """A scraper subscriber that re-renders the dashboard as it runs.

    ``scraper.subscribe(live_panel(print))`` emits a frame every
    scrape. Rendering is read-only, so the live view cannot perturb
    the seeded run.
    """

    def on_scrape(scraper: Any, record: Any) -> None:
        emit(render_dashboard(scraper))

    return on_scrape
