"""Exporters: Chrome traces, span JSONL, telemetry JSONL, Prometheus.

Machine-readable views of collected traces and telemetry:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  Trace Event Format ("JSON Object Format": a ``traceEvents`` list of
  complete ``"X"`` events with microsecond ``ts``/``dur``, plus
  instant ``"i"`` events for span events and ``"M"`` metadata
  naming each request's lane). The file loads directly in
  ``chrome://tracing`` and in Perfetto.
* :func:`to_jsonl` / :func:`write_jsonl` — one JSON object per span,
  flat, for ad-hoc analysis with line-oriented tools.
* :func:`telemetry_to_jsonl` / :func:`write_telemetry_jsonl` — one
  JSON object per scrape from a
  :class:`~repro.obs.telemetry.TelemetryScraper` (after a header
  line), the archival form of the in-flight time series.
* :func:`to_prometheus` / :func:`write_prometheus` — a Prometheus
  text-exposition snapshot of the *final* scrape (counters, gauges,
  and cumulative histogram buckets), for tooling that speaks the
  exposition format.

Each writer validates before writing (``validate_*``) so a malformed
export fails loudly at the source; CI re-runs the same validators on
the produced artifacts.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from .spans import Trace

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "to_jsonl",
    "write_jsonl",
    "validate_chrome_trace",
    "telemetry_to_jsonl",
    "write_telemetry_jsonl",
    "validate_telemetry_jsonl",
    "to_prometheus",
    "write_prometheus",
    "validate_prometheus",
    "TELEMETRY_SCHEMA_VERSION",
]

#: Simulated seconds → Chrome trace microseconds.
_US = 1_000_000.0

#: Event phases the exporter emits (and the validator accepts).
_PHASES = ("X", "i", "M")


def _jsonable(value: Any) -> Any:
    """A JSON-safe rendering of one attribute value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


def to_chrome_trace(traces: Iterable[Trace]) -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document from *traces*.

    Each trace gets its own thread lane (``tid``) named after the
    request; spans become complete ``"X"`` events and span events
    become instant ``"i"`` events.
    """
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro service-broker simulation"},
        }
    ]
    for tid, trace in enumerate(traces, 1):
        identity = (
            f"req {trace.request_id}"
            if trace.request_id is not None
            else f"trace {trace.trace_id}"
        )
        label = f"{identity} {trace.origin or '?'} qos{trace.qos_level}"
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 1,
                "tid": tid,
                "args": {"name": label},
            }
        )
        for span in trace.root.walk():
            event: Dict[str, Any] = {
                "ph": "X",
                "name": span.name,
                "cat": span.category,
                "ts": span.start * _US,
                "dur": span.duration * _US,
                "pid": 1,
                "tid": tid,
            }
            if span.attrs:
                event["args"] = {
                    key: _jsonable(value) for key, value in span.attrs.items()
                }
            events.append(event)
            for span_event in span.events:
                events.append(
                    {
                        "ph": "i",
                        "name": span_event.name,
                        "cat": span.category,
                        "ts": span_event.time * _US,
                        "pid": 1,
                        "tid": tid,
                        "s": "t",
                        "args": {
                            key: _jsonable(value)
                            for key, value in span_event.fields.items()
                        },
                    }
                )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro obs"},
    }


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema-check a Chrome trace document; returns problems (empty = ok).

    Checks the shape CI relies on: a dict with a non-empty
    ``traceEvents`` list whose entries carry a string ``name``, a known
    phase, integer ``pid``/``tid``, non-negative numeric ``ts`` (for
    non-metadata events), and — for ``"X"`` events — a non-negative
    numeric ``dur``.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: name missing or not a string")
        phase = event.get("ph")
        if phase not in _PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key} missing or not an int")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts missing or negative")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur missing or negative")
    return problems


def write_chrome_trace(
    traces: Iterable[Trace], path: Union[str, Path]
) -> Dict[str, Any]:
    """Validate and write the Chrome trace for *traces*; returns the doc.

    Raises :class:`ValueError` when the built document fails
    :func:`validate_chrome_trace` — the exporter never writes a file
    the schema check would reject.
    """
    doc = to_chrome_trace(traces)
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(
            f"refusing to write invalid chrome trace: {problems[:5]}"
        )
    Path(path).write_text(
        json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8"
    )
    return doc


def to_jsonl(traces: Iterable[Trace]) -> List[str]:
    """One JSON line per span, flat (trace id, parent name, timings)."""
    lines: List[str] = []
    for trace in traces:
        for span in trace.root.walk():
            record = {
                "trace": trace.trace_id,
                "request": trace.request_id,
                "span": span.name,
                "category": span.category,
                "start": span.start,
                "end": span.end,
                "duration": span.duration,
                "parent": span.parent.name if span.parent is not None else None,
                "attrs": {
                    key: _jsonable(value) for key, value in span.attrs.items()
                },
                "events": len(span.events),
            }
            lines.append(json.dumps(record, sort_keys=True))
    return lines


def write_jsonl(traces: Iterable[Trace], path: Union[str, Path]) -> int:
    """Write the JSONL span dump; returns the number of lines written."""
    lines = to_jsonl(traces)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


# ---------------------------------------------------------------------------
# Telemetry JSONL
# ---------------------------------------------------------------------------

#: Bumped whenever the telemetry JSONL record shape changes.
TELEMETRY_SCHEMA_VERSION = 1


def _null_nan(value: Any) -> Any:
    """NaN → None so the JSON stays strict (``allow_nan=False``)."""
    if isinstance(value, float) and value != value:
        return None
    return value


def telemetry_to_jsonl(scraper: Any) -> List[str]:
    """The scraper's retained scrapes as JSONL lines.

    Line 1 is a ``kind: "header"`` record (schema version, scrape
    interval, totals); each following line is one scrape's
    :class:`~repro.obs.telemetry.ScrapeRecord` with strictly
    increasing ``t``. All values are numbers or ``null`` — NaN is
    mapped to ``null`` and the dump uses ``allow_nan=False`` so a
    stray infinity fails at export time rather than at the consumer.
    """
    header = {
        "kind": "header",
        "schema": TELEMETRY_SCHEMA_VERSION,
        "interval": scraper.interval,
        "capacity": scraper.capacity,
        "scrapes": scraper.scrapes,
        "retained": len(scraper.records),
        "series": len(scraper.series),
    }
    lines = [json.dumps(header, sort_keys=True, allow_nan=False)]
    for record in scraper.records:
        doc = record.to_dict()
        for section in ("counters", "gauges", "percentiles"):
            doc[section] = {
                name: _null_nan(value)
                for name, value in doc[section].items()
            }
        lines.append(json.dumps(doc, sort_keys=True, allow_nan=False))
    return lines


def validate_telemetry_jsonl(lines: Iterable[str]) -> List[str]:
    """Schema-check telemetry JSONL lines; returns problems (empty = ok).

    Checks: line 1 is a header with a known schema version and positive
    interval; every other line is a ``kind: "scrape"`` record whose
    ``t`` values strictly increase and whose counter/gauge/percentile
    maps hold only finite numbers (or ``null`` for percentiles with no
    data in the window).
    """
    problems: List[str] = []
    last_t: float = float("-inf")
    saw_header = False
    for index, line in enumerate(lines):
        where = f"line {index + 1}"
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as error:
            problems.append(f"{where}: invalid JSON ({error.msg})")
            continue
        if not isinstance(doc, dict):
            problems.append(f"{where}: not an object")
            continue
        kind = doc.get("kind")
        if index == 0:
            if kind != "header":
                problems.append(f"{where}: first record must be the header")
                continue
            saw_header = True
            if doc.get("schema") != TELEMETRY_SCHEMA_VERSION:
                problems.append(
                    f"{where}: unknown schema version {doc.get('schema')!r}"
                )
            interval = doc.get("interval")
            if not isinstance(interval, (int, float)) or interval <= 0:
                problems.append(f"{where}: interval missing or not positive")
            continue
        if kind != "scrape":
            problems.append(f"{where}: unknown record kind {kind!r}")
            continue
        t = doc.get("t")
        if not isinstance(t, (int, float)):
            problems.append(f"{where}: t missing or not a number")
            continue
        if t <= last_t:
            problems.append(
                f"{where}: t={t} does not increase (previous {last_t})"
            )
        last_t = t
        for section in ("counters", "gauges", "percentiles"):
            table = doc.get(section)
            if not isinstance(table, dict):
                problems.append(f"{where}: {section} missing or not an object")
                continue
            nullable = section == "percentiles"
            for name, value in table.items():
                if value is None:
                    if not nullable:
                        problems.append(
                            f"{where}: {section}[{name!r}] is null"
                        )
                    continue
                if not isinstance(value, (int, float)) or (
                    isinstance(value, float)
                    and (value != value or value in (float("inf"), float("-inf")))
                ):
                    problems.append(
                        f"{where}: {section}[{name!r}] is not a finite number"
                    )
    if not saw_header:
        problems.append("no header record")
    return problems


def write_telemetry_jsonl(scraper: Any, path: Union[str, Path]) -> int:
    """Validate and write the telemetry JSONL; returns the line count.

    Raises :class:`ValueError` when the built lines fail
    :func:`validate_telemetry_jsonl` — never writes a file its own
    schema check would reject.
    """
    lines = telemetry_to_jsonl(scraper)
    problems = validate_telemetry_jsonl(lines)
    if problems:
        raise ValueError(
            f"refusing to write invalid telemetry JSONL: {problems[:5]}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_PROM_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$"
)


def _prom_name(name: str) -> str:
    """A metric name into Prometheus form, under the ``repro_`` prefix."""
    return "repro_" + _PROM_INVALID.sub("_", name)


def _prom_value(value: float) -> str:
    return repr(float(value))


def to_prometheus(scraper: Any) -> str:
    """The final scrape as Prometheus text exposition.

    Counters and gauges come from the newest retained
    :class:`~repro.obs.telemetry.ScrapeRecord`; watched histograms are
    emitted as classic cumulative ``_bucket{le=...}`` series plus
    ``_sum``/``_count``, from their newest snapshot. Metric names are
    sanitized (dots → underscores) under a ``repro_`` prefix.
    """
    lines: List[str] = []
    record = scraper.records[-1] if scraper.records else None
    if record is not None:
        for name in sorted(record.counters):
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {_prom_value(record.counters[name])}")
        for name in sorted(record.gauges):
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_value(record.gauges[name])}")
    for name in sorted(scraper._tracks):
        track = scraper._tracks[name]
        snaps = track._snaps
        if not snaps:
            continue
        _, counts, overflow, count, total = snaps[-1]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for edge, bucket in zip(track.edges, counts):
            cumulative += bucket
            lines.append(
                f'{prom}_bucket{{le="{edge:g}"}} {_prom_value(cumulative)}'
            )
        lines.append(
            f'{prom}_bucket{{le="+Inf"}} {_prom_value(cumulative + overflow)}'
        )
        lines.append(f"{prom}_sum {_prom_value(total)}")
        lines.append(f"{prom}_count {_prom_value(count)}")
    return "\n".join(lines) + "\n"


def validate_prometheus(text: str) -> List[str]:
    """Check Prometheus exposition text; returns problems (empty = ok).

    Every non-comment line must be ``name[{labels}] value`` with a
    legal metric name and a finite parseable value; ``# TYPE`` comments
    must name a known metric type.
    """
    problems: List[str] = []
    saw_sample = False
    for index, line in enumerate(text.splitlines()):
        where = f"line {index + 1}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    problems.append(f"{where}: malformed TYPE comment")
                elif not _PROM_NAME.match(parts[2]):
                    problems.append(f"{where}: bad metric name {parts[2]!r}")
                elif parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    problems.append(f"{where}: unknown type {parts[3]!r}")
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            problems.append(f"{where}: not a valid sample line")
            continue
        saw_sample = True
        try:
            value = float(match.group(3))
        except ValueError:
            problems.append(f"{where}: unparseable value {match.group(3)!r}")
            continue
        if value != value or value in (float("inf"), float("-inf")):
            problems.append(f"{where}: non-finite value")
    if not saw_sample:
        problems.append("no samples")
    return problems


def write_prometheus(scraper: Any, path: Union[str, Path]) -> str:
    """Validate and write the Prometheus snapshot; returns the text."""
    text = to_prometheus(scraper)
    problems = validate_prometheus(text)
    if problems:
        raise ValueError(
            f"refusing to write invalid Prometheus snapshot: {problems[:5]}"
        )
    Path(path).write_text(text, encoding="utf-8")
    return text
