"""Differential oracle: columnar ``ScrapeRecord`` vs the dict-backed one.

Hypothesis generates runs of scrapes whose sections draw their names from
a small pool (so key sets repeat, grow, shrink and reorder) and whose
values include nan, ±inf, -0.0 and ``None`` percentiles. The shipped
record, chained to the one before it as the scraper chains them, and
``reference_scrape_record.ScrapeRecord`` must give ``==`` dicts (nan
matching nan, zero signs and types too). Two whole telemetry runs are
then scraped into both and their records compared.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import telemetry
from repro.obs.telemetry import ScrapeRecord, run_telemetry_command

from .reference_scrape_record import ScrapeRecord as ReferenceRecord

_NAMES = ("a", "b.c", "d", "e.p99.5s", "f")
_float = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, 1.0]),
)


def _section(values):
    return st.dictionaries(st.sampled_from(_NAMES), values, max_size=len(_NAMES))


_scrape = st.tuples(
    _section(_float),
    _section(_float),
    _section(st.one_of(st.none(), _float)),
)


def same(a, b) -> bool:
    """``a == b`` for nested dicts, with nan equal to nan; types too."""
    if isinstance(a, dict) and isinstance(b, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, float) and a == 0.0:
        return b == 0.0 and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


@settings(max_examples=300, deadline=None)
@given(scrapes=st.lists(_scrape, min_size=1, max_size=8))
def test_every_record_reads_back_as_the_dict_record(scrapes):
    previous = None
    for t, (counters, gauges, percentiles) in enumerate(scrapes):
        record = ScrapeRecord(float(t), counters, gauges, percentiles, previous)
        expected = ReferenceRecord(
            float(t), dict(counters), dict(gauges), dict(percentiles)
        )
        assert same(record.to_dict(), expected.to_dict())
        for section in ("counters", "gauges", "percentiles"):
            assert same(getattr(record, section), getattr(expected, section))
        assert repr(record) == repr(expected)
        if previous is not None:
            for names in ("_counter_names", "_gauge_names", "_percentile_names"):
                if getattr(record, names) == getattr(previous, names):
                    assert getattr(record, names) is getattr(previous, names)
        previous = record


def test_a_real_nan_percentile_is_not_read_as_missing():
    record = ScrapeRecord(1.0, {}, {}, {"x": math.nan, "y": None})
    read = record.percentiles
    assert math.isnan(read["x"]) and read["y"] is None


def _scraped(monkeypatch, scenario, record_type):
    monkeypatch.setattr(telemetry, "ScrapeRecord", record_type)
    out = run_telemetry_command(
        scenario=scenario, quick=True, seed=3, slo=True, emit=None
    )
    return [record.to_dict() for record in out["scraper"].records]


@pytest.mark.parametrize("scenario", ["qos", "chaos"])
def test_a_telemetry_run_scrapes_the_same_records(monkeypatch, scenario):
    """``qos`` scrapes windowed percentiles; ``chaos`` the SLO engine's
    gauges (``None`` percentiles are the generated test's job)."""

    def reference(t, counters, gauges, percentiles, previous=None):
        return ReferenceRecord(t, counters, gauges, percentiles)

    expected = _scraped(monkeypatch, scenario, reference)
    actual = _scraped(monkeypatch, scenario, ScrapeRecord)
    assert len(actual) == len(expected) > 0
    for got, want in zip(actual, expected):
        assert same(got, want), got["t"]
    if scenario == "qos":
        assert any(doc["percentiles"] for doc in actual)
