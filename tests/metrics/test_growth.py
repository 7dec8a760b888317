"""What one more request costs a run in resident bytes — as a count.

``tracemalloc`` peaks repeat to a fraction of a percent where wall-clock
drifts by tens, so memory growth is asserted, not just reported: a
workload runs for a short and for a long stretch of virtual time in this
interpreter, and the extra traced peak divided by the extra requests
must stay under the workload's bound.

What a request may leave behind: its latency in the result's
``SummaryStats`` columns (8 bytes where one is kept, plus the array's
over-allocation), and nothing else. Registry samples are moments (no
column), the admission window holds one rate window, and the rings
(telemetry records and series, event rings, the network's stream
registry) are bounded — a short run sees them filling, which is what
the larger bounds pay for. When a bound fails, the message
breaks the run down by registry sample name: the bytes a name's
observations would hold as an 8-byte column.

This file gates ``qos_broker`` in tier 1 and checks that two seeded
mutants exceed its bound; ``growth_table.py`` beside it runs the
five-workload table (~50 s) as its own CI step.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter as Tally
from collections import deque
from typing import Callable, Dict, List, NamedTuple, Tuple

import pytest

from repro.core.admission import AdmissionController
from repro.metrics import MetricsRegistry, SummaryStats
from repro.metrics import collector
from repro.workload import run_autoscale_experiment, run_cache_tier_experiment
from repro.workload import run_qos_experiment


def _qos(mode: str) -> Callable[[float], int]:
    def run(duration: float) -> int:
        result = run_qos_experiment(60, mode=mode, duration=duration)
        return sum(result.completions.values())

    return run


def _cache(write_fraction: float) -> Callable[[float], int]:
    def run(duration: float) -> int:
        return run_cache_tier_experiment(
            n_clients=60, duration=duration, write_fraction=write_fraction
        ).requests

    return run


class Row(NamedTuple):
    """One workload of the table: how to run it, for how long, its bound."""

    run: Callable[[float], int]
    short: float
    long: float
    #: Peak traced bytes one more request may add.
    bound: float


#: The five e2e workloads (``benchmarks/e2e/workloads.py``) at reduced
#: durations. Bounds in bytes per extra request; with registry samples
#: as moments the rows measured 14 / 8 / 147 / 320 / 254, and 130 / 56 /
#: 252 / 470 / 674 when they were columns. ``qos_broker``'s bound sits
#: low enough that each seeded mutant below crosses it (96 and 39). The cache workloads
#: pay for filling their result caches and views (bounded by the key
#: pool). ``fleet_autoscale`` runs 360 → 1,080 s, past the point where its
#: 720-record telemetry rings are full, so its row is what each scale
#: event leaves behind: it measures 25 B, and read 261 B while every
#: retired broker and backend stayed reachable (ROADMAP 5(d)), which its
#: bound of 60 B fails.
TABLE: Dict[str, Row] = {
    "qos_broker": Row(_qos("broker"), 16.0, 64.0, 24.0),
    "qos_api": Row(_qos("api"), 600.0, 2400.0, 16.0),
    "cache_read": Row(_cache(0.02), 3.0, 12.0, 200.0),
    "cache_write": Row(_cache(0.3), 1.5, 6.0, 400.0),
    "fleet_autoscale": Row(
        lambda duration: run_autoscale_experiment(duration=duration).requests,
        360.0,
        1080.0,
        60.0,
    ),
}


class Growth(NamedTuple):
    """Bytes per extra request, and what the samples would have held."""

    bytes_per_request: float
    #: ``(name, bytes per extra request as a column)``, largest first.
    columns: List[Tuple[str, float]]

    def report(self) -> str:
        total = sum(size for _, size in self.columns)
        lines = [
            f"{self.bytes_per_request:.1f} B per extra request; "
            f"registry samples as columns would add {total:.1f} B:"
        ]
        lines += [f"  {name}: {size:.1f} B" for name, size in self.columns[:12]]
        return "\n".join(lines)


def _traced_run(run: Callable[[float], int], duration: float):
    """(peak traced bytes, requests, sample counts by name) of one run."""
    registries: List[MetricsRegistry] = []
    real_init = MetricsRegistry.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        registries.append(self)

    gc.collect()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MetricsRegistry, "__init__", init)
        tracemalloc.start()
        try:
            requests = run(duration)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    counts: Tally = Tally()
    for registry in registries:
        for name, sample in registry.samples().items():
            counts[name] += sample.count
    return peak, requests, counts


def measure(row: Row) -> Growth:
    # An untraced warm-up pays what a process pays once (lazy imports,
    # compiled sizing handlers, the parse cache), so that neither traced
    # run does and the figure is the same alone or inside a suite.
    row.run(row.short / 4)
    short_peak, short_done, short_counts = _traced_run(row.run, row.short)
    long_peak, long_done, long_counts = _traced_run(row.run, row.long)
    assert long_done > 2 * short_done
    extra = long_done - short_done
    columns = sorted(
        (
            (name, 8.0 * (long_counts[name] - short_counts[name]) / extra)
            for name in long_counts
        ),
        key=lambda item: -item[1],
    )
    return Growth((long_peak - short_peak) / extra, columns)


def test_a_request_adds_at_most_the_bound():
    growth = measure(TABLE["qos_broker"])
    assert growth.bytes_per_request <= TABLE["qos_broker"].bound, growth.report()


class _ArraySample(SummaryStats):
    """A registry sample that keeps its column again (ingress zeros too)."""

    __slots__ = ()
    count = property(SummaryStats.count.fget, lambda self, _: self.add(0.0))


def _unpruned_record_arrival(self, level):
    self._arrivals.setdefault(level, deque()).append(self.sim._now)


_MUTANTS = {
    "array-samples": (collector, "Moments", _ArraySample),
    "unpruned-admission": (
        AdmissionController, "record_arrival", _unpruned_record_arrival
    ),
}


@pytest.mark.parametrize("mutant", sorted(_MUTANTS))
def test_a_seeded_mutant_exceeds_the_bound(monkeypatch, mutant):
    """Registry samples that keep an array again, or an admission window
    that keeps every arrival, each cost ``qos_broker`` more than its bound."""
    monkeypatch.setattr(*_MUTANTS[mutant])
    growth = measure(TABLE["qos_broker"])
    assert growth.bytes_per_request > TABLE["qos_broker"].bound, growth.report()
