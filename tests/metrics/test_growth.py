"""What one more request costs a run in resident bytes — as a count.

``tracemalloc`` peaks repeat to a fraction of a percent where wall-clock
drifts by tens, so memory growth is asserted, not just reported: the
§V.B broker testbed runs for 24 s and for 96 s of virtual time in this
interpreter, and the extra traced bytes divided by the extra completed
requests must stay under the bound. Samples held as boxed floats in
lists measure 255 bytes per request here; as ``array('d')`` columns, 129.
"""

from __future__ import annotations

import tracemalloc

from repro.metrics import SummaryStats
from repro.workload import run_qos_experiment

#: Peak traced bytes one more completed request may add.
BOUND = 180


def peak_and_completed(duration: float):
    tracemalloc.start()
    try:
        result = run_qos_experiment(60, mode="broker", duration=duration)
        return tracemalloc.get_traced_memory()[1], sum(result.completions.values())
    finally:
        tracemalloc.stop()


def bytes_per_additional_request() -> float:
    short_peak, short_done = peak_and_completed(24.0)
    long_peak, long_done = peak_and_completed(96.0)
    assert long_done > 3 * short_done
    return (long_peak - short_peak) / (long_done - short_done)


def test_a_request_adds_at_most_the_bound():
    assert bytes_per_additional_request() <= BOUND


def test_boxed_samples_in_a_list_exceed_the_bound(monkeypatch):
    """The seeded mutant: store ``float(value)`` in a list again."""

    def init(self, values=None):
        real_init(self)
        self._values = [float(value) for value in values or ()]

    real_init = SummaryStats.__init__
    monkeypatch.setattr(SummaryStats, "__init__", init)
    monkeypatch.setattr(
        SummaryStats, "add", lambda self, value: self._values.append(float(value))
    )
    monkeypatch.setattr(SummaryStats, "values", lambda self: list(self._values))
    assert bytes_per_additional_request() > BOUND
