"""In-flight time-series telemetry: the scraper and its ring buffers.

PR 4's observability is post-hoc — spans, waterfalls, and end-of-run
histogram tables only exist after ``sim.run()`` returns. This module
adds the *in-flight* half: a :class:`TelemetryScraper` simulation
process that wakes every ``interval`` simulated seconds and samples

* **counters** from watched :class:`~repro.metrics.MetricsRegistry`
  instances (stored cumulatively; windows are answered as deltas/rates),
* **gauges** — arbitrary zero-argument callables such as broker
  outstanding counts and bounded-queue depths (see
  :meth:`~repro.core.broker.ServiceBroker.load_gauges` and
  :meth:`~repro.core.queueing.BrokerQueue.gauges`), plus dynamic gauge
  sources like the centralized :class:`~repro.core.centralized.LoadListener`'s
  leader-only shard table, and
* **histograms** — :class:`~repro.metrics.histogram.LatencyHistogram`
  snapshots turned into *windowed* percentiles ("premium p99 over the
  last 30 simulated seconds"), the signal a one-shot report cannot give,

into bounded ring-buffer :class:`TimeSeries` plus a bounded deque of
per-scrape :class:`ScrapeRecord` rows (the JSONL export unit — see
:func:`repro.obs.export.write_telemetry_jsonl`). Both keep C-double
columns rather than boxed floats (DESIGN.md §15.1).

Determinism contract: the scraper draws **no** random numbers, sends
**no** simulation messages, and mutates **no** workload state — each
scrape is a pure read of the registries and gauges at an
already-determined instant. Scheduling the scraper consumes event
sequence numbers, but the 3-tuple heap keys preserve the relative
order of all other same-time events, so workload results are identical
with telemetry on or off, and the scrape series itself is a pure
function of ``(seed, scrape_interval)``. With telemetry disabled
nothing here is constructed at all, keeping seeded golden outputs
byte-identical.

The SLO engine (:mod:`repro.obs.slo`) subscribes at scrape boundaries;
the terminal dashboard (:mod:`repro.obs.dashboard`) renders the ring
buffers live or replayed. This layer is the metrics bus the elastic
autoscaler (ROADMAP item 3) will consume.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from collections import deque
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..metrics import MetricsRegistry
from ..metrics.histogram import LatencyHistogram

__all__ = [
    "TimeSeries",
    "ScrapeRecord",
    "TelemetryScraper",
    "describe_telemetry",
    "run_telemetry_command",
]

#: Default ring-buffer capacity: 720 points at the default 1 s interval
#: is 12 simulated minutes of history — comfortably more than any
#: scenario run while keeping memory bounded for soak loops.
DEFAULT_CAPACITY = 720

#: Percentiles computed per watched histogram per scrape.
PERCENTILES: Tuple[float, ...] = (50.0, 99.0)

#: Rolling windows (simulated seconds) for windowed percentiles.
WINDOWS: Tuple[float, ...] = (5.0, 30.0)

#: The time field of a histogram snapshot — the key window reads bisect
#: on (records are time-ordered, so the ring is sorted by it).
_TIME = itemgetter(0)


class TimeSeries:
    """A bounded ring buffer of ``(time, value)`` points.

    Appends must be time-ordered (the scraper only ever appends "now").
    When the buffer is full the oldest point is evicted and ``dropped``
    incremented, so windowed queries silently clip to retained history
    — :meth:`delta_over` falls back to the oldest retained point as its
    baseline in that case rather than inventing a zero that predates
    eviction.

    Storage is two parallel ``array('d')`` columns (time, value): 16
    bytes a point, both stored as C doubles (``append(t, 3)`` reads back
    ``3.0``). The time column is sorted, so window reads bisect it
    directly; ``(t, v)`` tuples exist only in what the read methods
    return.
    """

    __slots__ = ("name", "capacity", "_times", "_values", "dropped")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.name = name
        self.capacity = capacity
        self._times = array("d")
        self._values = array("d")
        #: Points evicted by the ring bound.
        self.dropped = 0

    def append(self, t: float, value: float) -> None:
        """Record *value* at time *t* (must not precede the last point)."""
        times = self._times
        if times and t < times[-1]:
            raise ValueError(
                f"non-monotonic append to {self.name!r}: {t} < {times[-1]}"
            )
        times.append(t)
        try:
            self._values.append(value)
        except TypeError:
            del times[-1]  # keep the columns the same length
            raise
        if len(times) > self.capacity:
            del times[0]
            del self._values[0]
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._times)

    def points(self) -> List[Tuple[float, float]]:
        """All retained points, oldest first."""
        return list(zip(self._times, self._values))

    def last(self) -> Optional[Tuple[float, float]]:
        """The newest point, or ``None`` when empty."""
        return (self._times[-1], self._values[-1]) if self._times else None

    def value_at(self, at: float) -> Optional[float]:
        """Value of the newest point with ``t <= at`` (``None`` if none)."""
        index = bisect_right(self._times, at)
        return self._values[index - 1] if index else None

    def delta_over(self, window: float, at: Optional[float] = None) -> float:
        """Increase over ``(at - window, at]`` for a cumulative series.

        The baseline is the newest point with ``t <= at - window``. If
        no retained point is that old, the baseline is ``0.0`` when the
        window genuinely reaches back before the first scrape (counters
        start at zero at t=0), or the oldest *retained* value when the
        ring has already evicted history — the honest answer for a
        clipped window.
        """
        times = self._times
        if not times:
            return 0.0
        if at is None:
            at = times[-1]
        current = self.value_at(at)
        if current is None:
            return 0.0
        index = bisect_right(times, at - window)
        if index:
            baseline = self._values[index - 1]
        else:
            baseline = self._values[0] if self.dropped else 0.0
        return current - baseline

    def __repr__(self) -> str:
        return (
            f"<TimeSeries {self.name!r} n={len(self._times)}"
            f"/{self.capacity} dropped={self.dropped}>"
        )


class _HistogramTrack:
    """Ring of cumulative histogram snapshots for windowed percentiles.

    Registry histograms are cumulative over the whole run; subtracting
    the snapshot nearest ``now - window`` from the current one yields
    the histogram of *just that window's* observations, from which
    bucket-interpolated percentiles follow. The delta histogram's
    min/max are reconstructed from its occupied bucket bounds (the
    exact per-window extremes are not recoverable from cumulative
    counts), so windowed percentiles are bucket-resolution estimates —
    deterministic and bounded, which is what the SLO math needs.
    """

    __slots__ = ("edges", "_snaps", "dropped")

    def __init__(self, edges: Tuple[float, ...], capacity: int) -> None:
        self.edges = edges
        # (t, counts, overflow, count, total) cumulative snapshots.
        self._snaps: Deque[Tuple[float, Tuple[int, ...], int, int, float]] = (
            deque(maxlen=capacity)
        )
        self.dropped = 0

    def record(self, t: float, histogram: LatencyHistogram) -> None:
        if len(self._snaps) == self._snaps.maxlen:
            self.dropped += 1
        self._snaps.append(
            (
                t,
                tuple(histogram.counts),
                histogram.overflow,
                histogram.count,
                histogram.total,
            )
        )

    def windowed(
        self, window: float, at: Optional[float] = None
    ) -> Optional[LatencyHistogram]:
        """Delta histogram covering ``(at - window, at]`` (None if no data)."""
        snaps = self._snaps
        if not snaps:
            return None
        if at is None:
            at = snaps[-1][0]
        index = bisect_right(snaps, at, key=_TIME)
        if not index:
            return None
        newest = snaps[index - 1]
        index = bisect_right(snaps, at - window, key=_TIME)
        base = snaps[index - 1] if index else None
        delta = LatencyHistogram(self.edges)
        if base is None:
            counts = list(newest[1])
            overflow, count, total = newest[2], newest[3], newest[4]
        else:
            counts = [a - b for a, b in zip(newest[1], base[1])]
            overflow = newest[2] - base[2]
            count = newest[3] - base[3]
            total = newest[4] - base[4]
        delta.counts = counts
        delta.overflow = overflow
        delta.count = count
        delta.total = total
        if count > 0:
            occupied = [i for i, c in enumerate(counts) if c]
            if occupied:
                first, last = occupied[0], occupied[-1]
                delta._min = 0.0 if first == 0 else self.edges[first - 1]
                delta._max = (
                    self.edges[-1] if overflow > 0 else self.edges[last]
                )
            else:  # everything landed in the overflow bucket
                delta._min = self.edges[-1]
                delta._max = self.edges[-1]
        return delta


#: How a ``None`` percentile (no observation in the window) is stored:
#: a quiet NaN whose payload no arithmetic produces, so it cannot
#: collide with a real value, a real NaN included.
_NO_DATA_BITS = 0x7FF8_5CA9_E000_0001
_NO_DATA_BYTES = _NO_DATA_BITS.to_bytes(8, "little")
_NO_DATA = struct.unpack("<d", _NO_DATA_BYTES)[0]


def _is_no_data(value: float) -> bool:
    return value != value and struct.pack("<d", value) == _NO_DATA_BYTES


def _names(section: Mapping[str, Any], shared: Optional[Tuple[str, ...]]):
    """*section*'s keys as a tuple — *shared* itself when they match it."""
    names = tuple(section)
    return shared if names == shared else names


class ScrapeRecord:
    """One scrape's worth of samples — the JSONL export unit.

    Stored as columns, not dicts: ``t`` plus, per section (counters,
    gauges, percentiles), one tuple of names and one ``array('d')`` of
    values in the same order. A record built with *previous* (the
    scraper passes the record before it) shares each name tuple that
    did not change, so a record costs about 8 bytes a value. Values read
    back as floats; a ``None`` percentile is stored as a reserved NaN
    and reads back as ``None``. :attr:`counters`, :attr:`gauges`,
    :attr:`percentiles` and :meth:`to_dict` rebuild fresh dicts in the
    original order; a record never changes once built.
    """

    __slots__ = (
        "t",
        "_counter_names",
        "_counter_values",
        "_gauge_names",
        "_gauge_values",
        "_percentile_names",
        "_percentile_values",
    )

    def __init__(
        self,
        t: float,
        counters: Mapping[str, float],
        gauges: Mapping[str, float],
        percentiles: Mapping[str, Optional[float]],
        previous: Optional["ScrapeRecord"] = None,
    ) -> None:
        self.t = t
        self._counter_names = _names(
            counters, previous._counter_names if previous else None
        )
        self._counter_values = array("d", counters.values())
        self._gauge_names = _names(
            gauges, previous._gauge_names if previous else None
        )
        self._gauge_values = array("d", gauges.values())
        self._percentile_names = _names(
            percentiles, previous._percentile_names if previous else None
        )
        self._percentile_values = array(
            "d",
            [_NO_DATA if value is None else value for value in percentiles.values()],
        )

    @property
    def counters(self) -> Dict[str, float]:
        """``{name: cumulative value}``, in scrape order."""
        return dict(zip(self._counter_names, self._counter_values))

    @property
    def gauges(self) -> Dict[str, float]:
        """``{name: instantaneous value}``, in scrape order."""
        return dict(zip(self._gauge_names, self._gauge_values))

    @property
    def percentiles(self) -> Dict[str, Optional[float]]:
        """``{name: windowed percentile or None}``, in scrape order."""
        return {
            name: None if _is_no_data(value) else value
            for name, value in zip(self._percentile_names, self._percentile_values)
        }

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (``kind`` discriminates against the header)."""
        return {
            "kind": "scrape",
            "t": self.t,
            "counters": self.counters,
            "gauges": self.gauges,
            "percentiles": self.percentiles,
        }

    def __repr__(self) -> str:
        return (
            f"<ScrapeRecord t={self.t:.3f} counters={len(self._counter_names)} "
            f"gauges={len(self._gauge_names)}>"
        )


class TelemetryScraper:
    """Periodic sampler of registries, gauges, and histograms.

    Construct it unattached, point it at sources (:meth:`watch_registry`,
    :meth:`watch_broker`, :meth:`watch_listener`, :meth:`add_gauge`,
    :meth:`add_counter`), optionally bind an SLO engine
    (:meth:`use_slo`), then :meth:`attach` to a simulation and
    :meth:`start` the scrape loop. Every sample lands in a named
    :class:`TimeSeries` in :attr:`series` and in the bounded
    :attr:`records` deque; subscribers run after each scrape (the live
    dashboard hook).

    Scrapes happen at ``k * interval`` for ``k = 1..`` up to the
    ``until`` horizon — purely observational, so the workload is
    byte-identical with the scraper present or absent.
    """

    #: Points kept per series, and scrape records kept.
    capacity = DEFAULT_CAPACITY

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"scrape interval must be > 0: {interval!r}")
        self.interval = interval
        self.sim: Optional[Any] = None
        self.slo: Optional[Any] = None
        #: All ring buffers, keyed by series name.
        self.series: Dict[str, TimeSeries] = {}
        #: Bounded per-scrape records (the JSONL export unit).
        self.records: Deque[ScrapeRecord] = deque(maxlen=self.capacity)
        #: Total scrapes performed.
        self.scrapes = 0
        # (label, registry, prefix) triples enumerated each scrape.
        self._registries: List[Tuple[str, MetricsRegistry, str]] = []
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._counter_fns: Dict[str, Callable[[], float]] = {}
        self._gauge_sources: List[Callable[[], Mapping[str, float]]] = []
        self._tracks: Dict[str, _HistogramTrack] = {}
        self._subscribers: List[Callable[["TelemetryScraper", ScrapeRecord], None]] = []
        self._started = False

    # -- wiring --------------------------------------------------------

    def attach(self, sim: Any) -> "TelemetryScraper":
        """Bind to *sim* (required before :meth:`start`); returns self."""
        self.sim = sim
        return self

    def watch_registry(
        self, registry: MetricsRegistry, prefix: str = "", label: str = ""
    ) -> "TelemetryScraper":
        """Sample every counter and histogram under *prefix* each scrape.

        *label* is prepended to series names — use it to disambiguate
        identically-named counters from per-broker registries
        (``"broker1:"`` etc.). New counters/histograms appearing
        mid-run are picked up automatically on the next scrape.
        """
        self._registries.append((label, registry, prefix))
        return self

    def add_gauge(self, name: str, fn: Callable[[], float]) -> "TelemetryScraper":
        """Register an instantaneous reading sampled each scrape."""
        self._gauges[name] = fn
        return self

    def add_counter(self, name: str, fn: Callable[[], float]) -> "TelemetryScraper":
        """Register a *cumulative* reading (e.g. a shed count).

        Stored under counters so deltas/rates over windows are
        meaningful, unlike a point-in-time gauge.
        """
        self._counter_fns[name] = fn
        return self

    def add_gauge_source(
        self, fn: Callable[[], Mapping[str, float]]
    ) -> "TelemetryScraper":
        """Register a dynamic gauge source returning ``{name: value}``.

        Evaluated fresh each scrape — for tables whose key set changes
        at runtime, like the load listener's shard map.
        """
        self._gauge_sources.append(fn)
        return self

    def watch_broker(self, broker: Any) -> "TelemetryScraper":
        """Sample a broker's load/queue gauges and shed counter.

        Uses :meth:`ServiceBroker.load_gauges
        <repro.core.broker.ServiceBroker.load_gauges>`: outstanding
        admissions and queue depths are gauges; the cumulative
        ``.shed`` reading is registered as a counter so burn-rate
        windows can ask "sheds in the last 5 s".
        """
        for name, fn in broker.load_gauges().items():
            if name.endswith(".shed"):
                self.add_counter(name, fn)
            else:
                self.add_gauge(name, fn)
        return self

    def unwatch_broker(self, broker: Any) -> "TelemetryScraper":
        """Stop sampling *broker* and drop its series (it left for good).

        Undoes :meth:`watch_broker`: the gauge and counter readers go,
        and so do their :class:`TimeSeries`, so a retired broker is no
        longer reachable from the scraper. Records already taken keep
        their readings.
        """
        for name in broker.load_gauges():
            self._gauges.pop(name, None)
            self._counter_fns.pop(name, None)
            self.series.pop(name, None)
        return self

    def watch_listener(self, listener: Any) -> "TelemetryScraper":
        """Sample the centralized listener's leader-only shard table.

        Rides the existing :class:`~repro.core.centralized.ShardLoadReport`
        path: only the current leader of each replica group reports, so
        the scraped ``shard.load.<service>.s<shard>`` gauges are the
        leader-only aggregation for free — no extra messages.
        """

        def source() -> Dict[str, float]:
            out: Dict[str, float] = {}
            for (service, shard), report in sorted(listener.shards.items()):
                base = f"shard.load.{service}.s{shard}"
                out[base] = float(report.outstanding)
                out[base + ".queue_depth"] = float(report.queue_depth)
            return out

        return self.add_gauge_source(source)

    def use_slo(self, engine: Any) -> "TelemetryScraper":
        """Evaluate *engine* at every scrape boundary.

        The engine's budget/burn gauges are folded into each
        :class:`ScrapeRecord` (and its alerts fire as deterministic
        timestamped events — see :class:`repro.obs.slo.SloEngine`).
        """
        self.slo = engine
        return self

    def subscribe(
        self, fn: Callable[["TelemetryScraper", ScrapeRecord], None]
    ) -> "TelemetryScraper":
        """Call ``fn(scraper, record)`` after every scrape (live hooks)."""
        self._subscribers.append(fn)
        return self

    # -- the scrape loop -----------------------------------------------

    def start(self, until: float) -> "TelemetryScraper":
        """Spawn the scrape process, sampling up to time *until*."""
        if self.sim is None:
            raise RuntimeError("attach(sim) before start()")
        if self._started:
            raise RuntimeError("scraper already started")
        self._started = True
        self.sim.process(self._loop(until), name="telemetry:scraper")
        return self

    def _loop(self, until: float):
        interval = self.interval
        while self.sim.now + interval <= until + 1e-9:
            yield interval
            self.scrape()

    def _series(self, name: str) -> TimeSeries:
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = TimeSeries(name, self.capacity)
        return series

    def scrape(self) -> ScrapeRecord:
        """Sample every source once, at the current simulated time."""
        if self.sim is None:
            raise RuntimeError("attach(sim) before scrape()")
        now = self.sim.now
        counters: Dict[str, float] = {}
        percentiles: Dict[str, Optional[float]] = {}
        for label, registry, prefix in self._registries:
            for name, value in registry.counters(prefix).items():
                counters[label + name] = value
            for name, histogram in registry.histograms(prefix).items():
                full = label + name
                track = self._tracks.get(full)
                if track is None or track.edges != histogram.edges:
                    track = self._tracks[full] = _HistogramTrack(
                        histogram.edges, self.capacity
                    )
                track.record(now, histogram)
                for window in WINDOWS:
                    delta = track.windowed(window, at=now)
                    for q in PERCENTILES:
                        key = f"{full}.p{q:g}.{window:g}s"
                        if delta is not None and delta.count > 0:
                            percentiles[key] = delta.percentile(q)
                        else:
                            percentiles[key] = None
        for name, fn in self._counter_fns.items():
            counters[name] = float(fn())
        gauges: Dict[str, float] = {}
        for name, fn in self._gauges.items():
            gauges[name] = float(fn())
        for source in self._gauge_sources:
            for name, value in source().items():
                gauges[name] = float(value)
        for name, value in counters.items():
            self._series(name).append(now, value)
        for name, value in gauges.items():
            self._series(name).append(now, value)
        for name, maybe in percentiles.items():
            if maybe is not None:
                self._series(name).append(now, maybe)
        self.scrapes += 1
        if self.slo is not None:
            slo_gauges = self.slo.evaluate(self, now)
            gauges.update(slo_gauges)
            for name, value in slo_gauges.items():
                self._series(name).append(now, value)
        records = self.records
        record = ScrapeRecord(
            now, counters, gauges, percentiles, records[-1] if records else None
        )
        records.append(record)
        for fn in self._subscribers:
            fn(self, record)
        return record

    # -- queries (the SLO engine's read surface) -----------------------

    def counter_delta(
        self,
        names: Iterable[str],
        window: float,
        at: Optional[float] = None,
    ) -> float:
        """Summed increase of the named counter series over the window.

        Missing series contribute ``0.0`` — a counter that never
        incremented simply has no budget impact yet.
        """
        total = 0.0
        for name in names:
            series = self.series.get(name)
            if series is not None:
                total += series.delta_over(window, at)
        return total

    def __repr__(self) -> str:
        return (
            f"<TelemetryScraper interval={self.interval} "
            f"scrapes={self.scrapes} series={len(self.series)}>"
        )


# ---------------------------------------------------------------------------
# CLI driver (`repro telemetry`)
# ---------------------------------------------------------------------------

#: Scenarios the telemetry CLI can run.
SCENARIOS: Tuple[str, ...] = ("qos", "chaos", "shard")


def describe_telemetry() -> str:
    """The `repro telemetry --describe` text."""
    lines = [
        "in-flight telemetry layer",
        "=========================",
        "",
        "TelemetryScraper (obs/telemetry.py)",
        "  A simulation process sampling watched sources every",
        "  `--interval` simulated seconds into bounded ring-buffer",
        "  TimeSeries: registry counters (cumulative; windows answered",
        "  as deltas/rates), broker load and bounded-queue gauges, the",
        "  centralized listener's leader-only shard table, and",
        "  LatencyHistogram snapshots as windowed percentiles",
        "  (p50/p99 over 5 s and 30 s windows by default).",
        "",
        "SLO engine (obs/slo.py)",
        "  Declarative per-QoS-class objectives with rolling error",
        "  budgets and multi-window burn-rate alerts (fast 5 s/1 min",
        "  and slow 30 s/6 min pairs). Alerts fire as timestamped,",
        "  deterministic events at scrape boundaries.",
        "",
        "Dashboard (obs/dashboard.py)",
        "  Terminal sparkline panels per stage/QoS/shard, rendered",
        "  live (subscribe) or replayed from the ring buffers.",
        "",
        "Exporters (obs/export.py)",
        "  Per-scrape JSONL (schema-validated) and a Prometheus text",
        "  exposition snapshot of the final scrape.",
        "",
        "Determinism: the scraper draws no RNG and sends no messages;",
        "workload outputs are identical with telemetry on or off, and",
        "the scrape series is a pure function of (seed, interval).",
        "",
        "scenarios: " + ", ".join(SCENARIOS),
    ]
    return "\n".join(lines)


def _print(emit: Optional[Callable[[str], None]], text: str) -> None:
    if emit is not None:
        emit(text)


def run_telemetry_command(
    scenario: str = "qos",
    clients: int = 60,
    duration: float = 120.0,
    interval: float = 1.0,
    seed: int = 2026,
    shards: int = 4,
    replicas: int = 2,
    slo: bool = False,
    dashboard: bool = False,
    export: Optional[str] = None,
    quick: bool = False,
    emit: Optional[Callable[[str], None]] = print,
) -> Dict[str, Any]:
    """Drive one telemetry-instrumented scenario end to end.

    Returns a summary dict (scraper, engine, result, export paths) so
    tests can assert on it; all human-facing output goes through
    *emit*.
    """
    from ..workload.chaos import run_chaos_experiment
    from ..workload.scenarios import (
        run_qos_experiment,
        run_sharded_qos_experiment,
    )
    from .slo import (
        SloEngine,
        chaos_slos,
        qos_slos,
        render_alert_timeline,
        render_slo_table,
    )
    from .spans import TraceCollector

    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown telemetry scenario {scenario!r}; expected one of "
            f"{SCENARIOS}"
        )
    if quick:
        clients = min(clients, 12)
        duration = min(duration, 30.0)

    scraper = TelemetryScraper(interval=interval)
    engine = SloEngine(chaos_slos() if scenario == "chaos" else qos_slos())
    scraper.use_slo(engine)

    _print(
        emit,
        f"telemetry: scenario={scenario} seed={seed} "
        f"duration={duration:g}s interval={interval:g}s",
    )
    if scenario == "qos":
        obs = TraceCollector(sample=1000, limit=64)
        result: Any = run_qos_experiment(
            clients,
            mode="broker",
            duration=duration,
            seed=seed,
            obs=obs,
            telemetry=scraper,
        )
    elif scenario == "chaos":
        result = run_chaos_experiment(
            duration=max(duration, 90.0),
            seed=seed,
            telemetry=scraper,
        )
    else:  # shard
        result = run_sharded_qos_experiment(
            clients,
            shards=shards,
            replicas=replicas,
            mode="centralized",
            duration=duration,
            seed=seed,
            telemetry=scraper,
        )

    _print(
        emit,
        f"scrapes={scraper.scrapes} series={len(scraper.series)} "
        f"alerts={len(engine.alerts)}",
    )

    out: Dict[str, Any] = {
        "scenario": scenario,
        "scraper": scraper,
        "engine": engine,
        "result": result,
        "exports": {},
    }

    if dashboard:
        from .dashboard import render_dashboard

        _print(emit, "")
        _print(emit, render_dashboard(scraper, engine=engine))
    if slo:
        _print(emit, "")
        _print(emit, render_slo_table(engine, scraper))
        _print(emit, "")
        _print(emit, render_alert_timeline(engine))
    if export:
        from .export import write_prometheus, write_telemetry_jsonl

        jsonl_path = export
        if jsonl_path.endswith(".jsonl"):
            prom_path = jsonl_path[: -len(".jsonl")] + ".prom"
        else:
            prom_path = jsonl_path + ".prom"
        lines = write_telemetry_jsonl(scraper, jsonl_path)
        write_prometheus(scraper, prom_path)
        out["exports"] = {"jsonl": jsonl_path, "prometheus": prom_path}
        _print(emit, "")
        _print(emit, f"wrote {lines} JSONL lines to {jsonl_path}")
        _print(emit, f"wrote Prometheus snapshot to {prom_path}")
    return out
