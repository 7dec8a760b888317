"""Every span event of ``repro obs --quick``, byte for byte.

For each scenario the CLI accepts, the test runs it at the ``--quick``
size (12 clients, 20 s, clustering degree 4, seed 2026, every root
request retained) and renders one line per span event: the retained
trace's id, the path of span names from its root to the span holding
the event, and the event's time, name and sorted fields. The copy in
``span_events.golden`` pins where each request event lands; regenerate
it only for a deliberate change of events::

    PYTHONPATH=src python tests/obs/test_span_event_golden.py \\
        > tests/obs/span_events.golden
"""

from __future__ import annotations

from pathlib import Path
from typing import List

from repro.obs.inspect import SCENARIOS, _run_scenario
from repro.obs.spans import TraceCollector

PINNED = Path(__file__).with_name("span_events.golden")


def _path(span) -> str:
    names = []
    while span is not None:
        names.append(span.name)
        span = span.parent
    return "/".join(reversed(names))


def span_event_lines(scenario: str) -> List[str]:
    """One line per span event of *scenario* at the ``--quick`` size."""
    collector = TraceCollector(sample=1)
    _run_scenario(scenario, collector, 12, 20.0, 4, 2026)
    lines = []
    for trace in collector.traces:
        for span in trace.root.walk():
            for event in span.events:
                fields = " ".join(
                    f"{key}={event.fields[key]!r}" for key in sorted(event.fields)
                )
                lines.append(
                    f"{trace.trace_id} {_path(span)} {event.time!r} "
                    f"{event.name} {fields}"
                )
    return lines


def render_golden() -> str:
    out = []
    for scenario in SCENARIOS:
        lines = span_event_lines(scenario)
        out.append(f"## {scenario}: {len(lines)} events")
        out.extend(lines)
    return "\n".join(out) + "\n"


def test_span_events_are_byte_identical():
    assert render_golden() == PINNED.read_text()


if __name__ == "__main__":
    print(render_golden(), end="")
