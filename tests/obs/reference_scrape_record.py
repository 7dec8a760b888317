"""The dict-backed ``ScrapeRecord``, kept verbatim as a test reference.

This is ``repro.obs.telemetry.ScrapeRecord`` as it was before a record
became name tuples and ``array('d')`` value columns: three dicts of boxed
floats per scrape. ``test_scrape_record_differential.py`` builds it and
the shipped class from the same scrapes and requires equal dicts. Do not
optimise it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["ScrapeRecord"]


class ScrapeRecord:
    """One scrape's worth of samples — the JSONL export unit."""

    __slots__ = ("t", "counters", "gauges", "percentiles")

    def __init__(
        self,
        t: float,
        counters: Dict[str, float],
        gauges: Dict[str, float],
        percentiles: Dict[str, Optional[float]],
    ) -> None:
        self.t = t
        self.counters = counters
        self.gauges = gauges
        self.percentiles = percentiles

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (``kind`` discriminates against the header)."""
        return {
            "kind": "scrape",
            "t": self.t,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "percentiles": dict(self.percentiles),
        }

    def __repr__(self) -> str:
        return (
            f"<ScrapeRecord t={self.t:.3f} counters={len(self.counters)} "
            f"gauges={len(self.gauges)}>"
        )
