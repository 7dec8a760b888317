"""Hierarchical metrics registry: counters and timing samples.

Components record into a shared :class:`MetricsRegistry` using dotted
names (``"broker.db.dropped.qos3"``). The registry is deliberately
simulation-agnostic — callers pass the timestamp where one is relevant —
so the same registry serves unit tests and full experiments.

Two access styles coexist:

* **By name** — ``increment(name)`` / ``observe(name, value)``: one dict
  lookup per call. Fine for cold paths and tests.
* **By handle** — ``handle(name)`` returns the underlying
  :class:`Counter` once; hot paths keep it and call ``.inc()``, which is
  a plain attribute add with no string hashing. ``sample_handle(name)``
  does the same for :class:`~repro.metrics.stats.Moments` (call
  ``.add(value)`` directly). The stage pipeline and the network layer
  pre-resolve their handles at construction time (see
  ``DESIGN.md`` §Performance).

A sample is a :class:`~repro.metrics.stats.Moments`: count, mean,
minimum and maximum, folded as each value arrives. It keeps
no observations, so a request costs a registry no bytes however long a
run lasts (DESIGN.md §9). Exact percentiles are for the result
latencies an experiment collects itself, in
:class:`~repro.metrics.stats.SummaryStats`.

``counters(prefix)`` uses a lazily maintained sorted-name index, so
reporting loops that repeatedly filter by prefix cost
``O(log n + matches)`` instead of a scan over every counter ever
recorded.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from .histogram import LatencyHistogram
from .stats import Moments

__all__ = ["MetricsRegistry", "Counter"]


class Counter:
    """A single named counter, usable as a zero-hash hot-path handle.

    Obtained from :meth:`MetricsRegistry.handle`; ``inc`` adds to the
    value without touching the registry's name table.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, by: float = 1.0) -> None:
        """Add *by* to the counter."""
        self.value += by

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value:g}>"


class MetricsRegistry:
    """Named counters and samples.

    * ``increment(name, by)`` — monotonically counts events.
    * ``observe(name, value)`` — folds a value into the :class:`Moments`
      sample *name*.
    * ``handle(name)`` / ``sample_handle(name)`` — pre-resolved hot-path
      handles (no per-call string hashing).
    """

    __slots__ = (
        "_counters",
        "_samples",
        "_histograms",
        "_counter_index",
    )

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._samples: Dict[str, Moments] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        # Sorted-name index for prefix queries; None marks it stale
        # (rebuilt lazily on the next prefix lookup).
        self._counter_index: Optional[List[str]] = None

    # -- counters ------------------------------------------------------

    def handle(self, name: str) -> Counter:
        """The :class:`Counter` for *name*, created on first use.

        Hot paths resolve the handle once and call ``.inc()`` on it;
        the registry sees the updated value through the shared object.
        """
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
            self._counter_index = None
        return counter

    def increment(self, name: str, by: float = 1.0) -> None:
        """Add *by* to the counter *name*."""
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
            self._counter_index = None
        counter.value += by

    def counter(self, name: str) -> float:
        """Current value of a counter (0 if never incremented)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0.0

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """All counters whose name starts with *prefix*.

        Uses the sorted-name index: cost is ``O(log n + matches)``, not
        a scan over every counter in the registry.
        """
        counters = self._counters
        if not prefix:
            return {name: counter.value for name, counter in counters.items()}
        index = self._counter_index
        if index is None:
            index = self._counter_index = sorted(counters)
        result: Dict[str, float] = {}
        for i in range(bisect_left(index, prefix), len(index)):
            name = index[i]
            if not name.startswith(prefix):
                break
            result[name] = counters[name].value
        return result

    # -- samples -------------------------------------------------------

    def sample_handle(self, name: str) -> Moments:
        """The :class:`Moments` for *name*, created on first use.

        The moments object doubles as the hot-path handle: keep it and
        call ``.add(value)`` directly.
        """
        stats = self._samples.get(name)
        if stats is None:
            stats = Moments()
            self._samples[name] = stats
        return stats

    def observe(self, name: str, value: float) -> None:
        """Add one observation to the sample *name*."""
        stats = self._samples.get(name)
        if stats is None:
            stats = Moments()
            self._samples[name] = stats
        stats.add(value)

    def sample(self, name: str) -> Moments:
        """The moments of *name* (empty ones if nothing was observed)."""
        return self._samples.get(name, Moments())

    # -- histograms ----------------------------------------------------

    def histogram_handle(self, name: str) -> LatencyHistogram:
        """The :class:`~repro.metrics.histogram.LatencyHistogram` for
        *name*, created on first use with the default bucket edges.

        Like :meth:`sample_handle`, the histogram object doubles as the
        hot-path handle: keep it and call ``.add(value)`` directly.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = LatencyHistogram()
            self._histograms[name] = histogram
        return histogram

    def histograms(self, prefix: str = "") -> Dict[str, LatencyHistogram]:
        """All histograms whose name starts with *prefix*, sorted by name.

        Histograms are few (one per instrumented stage/class/backend),
        so this is a plain scan — no index like the counter/sample maps.
        """
        return {
            name: self._histograms[name]
            for name in sorted(self._histograms)
            if name.startswith(prefix)
        }

    # -- misc ----------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[str, float]]:
        return iter(
            sorted((name, c.value) for name, c in self._counters.items())
        )

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry counters={len(self._counters)} "
            f"samples={len(self._samples)}>"
        )
