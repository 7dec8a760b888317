"""Hot-path performance benchmarks and the regression harness.

Five benchmarks, exposed through ``python -m repro bench`` and selected
with ``--suite``:

* ``kernel`` — a pure event-kernel micro-benchmark: many concurrent
  processes each yielding a long chain of timeouts, measured in
  simulator events per wall-clock second. The primary number uses the
  kernel-native float-yield idiom (``yield 0.001``, see DESIGN.md §14);
  ``timeout_events_per_sec`` tracks the classic
  ``yield sim.timeout(...)`` spelling. Exercises the heap loop,
  :class:`~repro.sim.core.Timeout` allocation, and process resumption
  with no networking or broker code at all.
* ``pipeline`` — a small broker scenario (closed-loop clients against
  the distributed stage plan) measured in completed requests per
  wall-clock second. Exercises the full ingress/dispatch pipeline, the
  net layer, and the metrics registry.
* ``macro`` — the §V.B QoS testbed at full size
  (``run_qos_experiment(60, mode="broker", duration=120.0)``),
  repeated several times; reports requests per wall-clock second plus
  the p50/p99 of the per-repetition wall times.
* ``parallel`` — the partitioned sharded §V.B testbed under
  :func:`~repro.sim.parallel.run_partitions`, swept over worker
  counts; reports per-point wall times and the speedup relative to
  the same partitions run in-process, plus the serial experiment as
  its own row. Scaling is bounded by the cores actually available
  (the result records ``cores``); on a single-core host the sweep
  measures fork overhead, not speedup.
* ``telemetry`` — the macro scenario run back-to-back with the
  :class:`~repro.obs.telemetry.TelemetryScraper` disabled and enabled;
  reports the fractional wall-time overhead of in-flight scraping
  (gated under 2% by ``benchmarks/perf/test_perf_regression.py``).

Results are written as JSON (``BENCH_pipeline.json``, or
``BENCH_parallel.json`` for the parallel-only suite) and compared
against a committed baseline (``benchmarks/perf/baseline.json``): a
throughput drop beyond the allowed regression fraction raises
:class:`BenchRegression`, which the CLI turns into a non-zero exit
code. Throughput numbers are machine-dependent — the committed baseline
tracks relative regressions in CI, not absolute performance.
"""

from __future__ import annotations

import cProfile
import io
import gc
import json
import pstats
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .sim.core import Simulation
from .workload.scenarios import (
    QOS_SERVICE_TIMES,
    _run_sharded_parallel,
    run_qos_experiment,
    run_sharded_qos_experiment,
)

__all__ = [
    "BenchRegression",
    "bench_kernel",
    "bench_pipeline",
    "bench_macro",
    "bench_parallel",
    "bench_telemetry",
    "bench_autoscale",
    "run_suite",
    "compare_to_baseline",
    "render_report",
    "DEFAULT_BASELINE",
    "DEFAULT_PROFILE_OUT",
    "SUITES",
]

#: Seed shared by every benchmark run (results are fully deterministic).
SEED = 2026

#: Default location of the committed baseline, relative to the repo root.
DEFAULT_BASELINE = Path("benchmarks") / "perf" / "baseline.json"

#: Default file the ``--profile`` pstats dump is written to.
DEFAULT_PROFILE_OUT = "BENCH_profile.pstats"

#: ``--suite`` names -> benchmarks run. ``default`` is the historical
#: trio; ``parallel`` is split out because it forks worker processes.
SUITES: Dict[str, Sequence[str]] = {
    "default": ("kernel", "pipeline", "macro"),
    "kernel": ("kernel",),
    "pipeline": ("pipeline",),
    "macro": ("macro",),
    "parallel": ("parallel",),
    "telemetry": ("telemetry",),
    "autoscale": ("autoscale",),
    "all": (
        "kernel", "pipeline", "macro", "parallel", "telemetry", "autoscale",
    ),
}

#: Throughput keys checked against the baseline, per benchmark.
#: Benchmarks absent from the result document are skipped; benchmarks
#: present in the results but absent from the baseline section are
#: reported as uncompared rather than failing.
_COMPARED = (
    ("kernel", "events_per_sec"),
    ("pipeline", "requests_per_sec"),
    ("macro", "requests_per_sec"),
    ("parallel", "pages_per_sec_w1"),
)


class BenchRegression(RuntimeError):
    """Raised when a benchmark regresses beyond the allowed fraction.

    Carries the rendered report so the CLI can print the full results
    before exiting non-zero.
    """

    def __init__(self, message: str, report: str) -> None:
        super().__init__(message)
        self.report = report


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a small, non-empty sample."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def bench_kernel(events: int = 500_000, processes: int = 100) -> Dict[str, Any]:
    """Measure raw kernel throughput in events per wall-clock second.

    Runs the same timer-chain workload twice: once with the
    kernel-native float-yield idiom (the primary ``events_per_sec``)
    and once with explicit :meth:`~repro.sim.core.Simulation.timeout`
    events (``timeout_events_per_sec``), so both hot paths stay on the
    regression radar.
    """
    per_process = events // processes
    total = per_process * processes

    def measure(float_idiom: bool) -> float:
        sim = Simulation(seed=SEED)

        def float_chain(step: float):
            for _ in range(per_process):
                yield step

        def timeout_chain(step: float):
            timeout = sim.timeout
            for _ in range(per_process):
                yield timeout(step)

        chain = float_chain if float_idiom else timeout_chain
        for index in range(processes):
            sim.process(chain(0.001 * (index + 1)), name=f"bench{index}")
        started = time.perf_counter()
        sim.run()
        return time.perf_counter() - started

    wall = measure(float_idiom=True)
    timeout_wall = measure(float_idiom=False)
    return {
        "events": total,
        "wall_s": wall,
        "events_per_sec": total / wall,
        "timeout_wall_s": timeout_wall,
        "timeout_events_per_sec": total / timeout_wall,
    }


def _collector_work(before: List[Dict[str, int]], requests: int) -> Dict[str, Any]:
    """Collector work since ``gc.get_stats()`` was *before*: reported, not gated."""
    after = gc.get_stats()
    collected = sum(a["collected"] - b["collected"] for a, b in zip(after, before))
    return {
        "gc_collections": [
            a["collections"] - b["collections"] for a, b in zip(after, before)
        ],
        "gc_collected_per_request": collected / requests,
    }


class _KernelProbe:
    """Passed as an experiment's ``obs`` to get hold of its simulation.

    ``attach`` is all an experiment calls on it; unlike a collector's
    it leaves ``sim.obs`` unset, so nothing is traced and nothing slows.
    """

    sim: Optional[Simulation] = None

    def attach(self, sim: Simulation) -> None:
        self.sim = sim


def bench_pipeline(
    duration: float = 120.0, clients: int = 30, repeats: int = 2
) -> Dict[str, Any]:
    """Measure full-pipeline throughput on a mid-size broker scenario."""
    walls: List[float] = []
    requests = 0
    collector = gc.get_stats()
    probe = _KernelProbe()
    for _ in range(repeats):
        started = time.perf_counter()
        result = run_qos_experiment(
            clients, mode="broker", duration=duration, seed=SEED, obs=probe
        )
        walls.append(time.perf_counter() - started)
        requests = sum(result.completions.values())
    wall = min(walls)
    return {
        "clients": clients,
        "duration_virtual_s": duration,
        "repeats": repeats,
        "requests": requests,
        "wall_s": wall,
        "requests_per_sec": requests / wall,
        **_collector_work(collector, requests * repeats),
        "kernel_scheduled_at_end": probe.sim.scheduled,
    }


def bench_macro(
    duration: float = 120.0, clients: int = 60, repeats: int = 3
) -> Dict[str, Any]:
    """Measure the §V.B macro scenario, repeated for stable wall times."""
    walls: List[float] = []
    requests = 0
    collector = gc.get_stats()
    probe = _KernelProbe()
    for _ in range(repeats):
        started = time.perf_counter()
        result = run_qos_experiment(
            clients, mode="broker", duration=duration, seed=SEED, obs=probe
        )
        walls.append(time.perf_counter() - started)
        requests = sum(result.completions.values())
    best = min(walls)
    return {
        "clients": clients,
        "duration_virtual_s": duration,
        "repeats": repeats,
        "requests": requests,
        "walls_s": walls,
        "wall_best_s": best,
        "wall_p50_s": _percentile(walls, 0.50),
        "wall_p99_s": _percentile(walls, 0.99),
        "requests_per_sec": requests / best,
        **_collector_work(collector, requests * repeats),
        "kernel_scheduled_at_end": probe.sim.scheduled,
    }


def bench_parallel(
    clients: int = 48,
    shards: int = 16,
    duration: float = 60.0,
    workers_list: Sequence[int] = (1, 2, 4, 8),
    repeats: int = 2,
) -> Dict[str, Any]:
    """Sweep the partitioned sharded §V.B testbed over worker counts.

    Every point runs the same workload — one independent slice per
    shard — on *workers* processes; ``workers=1`` runs the slices in
    this process, so ``speedup_vs_inprocess`` (relative to the first
    point) is what forking buys on that workload and nothing else. The
    serial experiment (``run_sharded_qos_experiment(workers=1)``, one
    global key stream) is a different workload that completes a
    different page count; it is reported as its own ``serial`` row and
    feeds the gated ``pages_per_sec_w1``. Wall times are
    best-of-*repeats*.
    """
    from .sim.parallel import available_workers

    config = dict(
        n_clients=clients,
        shards=shards,
        replicas=1,
        mode="broker",
        duration=duration,
        service_times=QOS_SERVICE_TIMES,
        threshold=20,
        backend_capacity=5,
        levels=3,
        think_time=0.1,
        key_pool=4096,
        fractions=None,
        seed=SEED,
    )

    def timed(run) -> Dict[str, Any]:
        walls: List[float] = []
        for _ in range(repeats):
            started = time.perf_counter()
            result = run()
            walls.append(time.perf_counter() - started)
        return {
            "wall_s": min(walls),
            "pages": sum(result.completions.values()),
        }

    serial = timed(lambda: run_sharded_qos_experiment(workers=1, **config))
    points: List[Dict[str, Any]] = [
        {
            "workers": workers,
            **timed(lambda: _run_sharded_parallel(workers=workers, **config)),
        }
        for workers in workers_list
    ]
    for point in points:
        point["speedup_vs_inprocess"] = points[0]["wall_s"] / point["wall_s"]
    return {
        "clients": clients,
        "shards": shards,
        "duration_virtual_s": duration,
        "repeats": repeats,
        "cores": available_workers(),
        "serial": serial,
        "points": points,
        "pages_per_sec_w1": serial["pages"] / serial["wall_s"],
        "best_speedup": max(p["speedup_vs_inprocess"] for p in points),
    }


def bench_telemetry(
    duration: float = 120.0,
    clients: int = 60,
    repeats: int = 3,
    interval: float = 1.0,
) -> Dict[str, Any]:
    """Measure the scraper's overhead on the §V.B macro scenario.

    Runs the macro twice per repetition — telemetry disabled, then with a
    :class:`~repro.obs.telemetry.TelemetryScraper` watching every
    registry and broker at *interval* — with the same
    :class:`~repro.obs.spans.TraceCollector` configuration in both arms,
    so the wall-time delta isolates the scrape loop and windowed
    percentiles rather than histogram feeding.

    Two overhead numbers come back:

    * ``overhead_frac`` — ``max(0, wall_on - wall_off) / wall_off`` on
      best-of-*repeats* walls. Honest but noisy: macro wall times jitter
      several percent run-to-run, more than the true overhead.
    * ``scrape_frac`` — every ``scrape()`` call wrapped in
      ``perf_counter``, summed, divided by that run's wall; min over
      repeats. This measures the scraper's wall share directly instead
      of differencing two noisy totals, so it is the number the perf
      gate holds under 2% (see ``benchmarks/perf/test_perf_regression.py``).
    """
    from .obs import TelemetryScraper, TraceCollector

    class TimedScraper(TelemetryScraper):
        scrape_wall = 0.0

        def scrape(self):
            started = time.perf_counter()
            record = super().scrape()
            self.scrape_wall += time.perf_counter() - started
            return record

    def measure(with_telemetry: bool):
        obs = TraceCollector(sample=1000, limit=64)
        telemetry = TimedScraper(interval=interval) if with_telemetry else None
        started = time.perf_counter()
        run_qos_experiment(
            clients, mode="broker", duration=duration, seed=SEED,
            obs=obs, telemetry=telemetry,
        )
        return time.perf_counter() - started, telemetry

    base_walls: List[float] = []
    scraped_walls: List[float] = []
    scrape_fracs: List[float] = []
    scrapes = 0
    for _ in range(repeats):
        wall, _none = measure(with_telemetry=False)
        base_walls.append(wall)
        wall, scraper = measure(with_telemetry=True)
        scraped_walls.append(wall)
        scrape_fracs.append(scraper.scrape_wall / wall)
        scrapes = scraper.scrapes
    base = min(base_walls)
    scraped = min(scraped_walls)
    return {
        "clients": clients,
        "duration_virtual_s": duration,
        "repeats": repeats,
        "interval_s": interval,
        "scrapes": scrapes,
        "wall_base_s": base,
        "wall_telemetry_s": scraped,
        "overhead_frac": max(0.0, scraped - base) / base,
        "scrape_frac": min(scrape_fracs),
    }


def bench_autoscale(
    duration: float = 240.0,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Time the elastic-pool headline experiment end to end.

    The autoscale experiment is the heaviest composed scenario in the
    repo — diurnal generators, an elastic broker pool, the telemetry
    scraper, the SLO engine, and the drain protocol all at once — so
    its wall time is a good canary for cross-subsystem slowdowns that
    the isolated kernel/pipeline benchmarks miss. Reports best-of-
    *repeats* wall and requests per wall-clock second, and carries the
    invariant verdict so a perf run that silently breaks correctness
    is visible in the results document.
    """
    from .workload.chaos import run_autoscale_experiment

    walls: List[float] = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = run_autoscale_experiment(duration=duration, seed=SEED)
        walls.append(time.perf_counter() - started)
    best = min(walls)
    return {
        "duration_virtual_s": duration,
        "repeats": repeats,
        "requests": result.requests,
        "scale_events": result.scale_outs + result.scale_ins,
        "drains_completed": result.drains_completed,
        "wall_best_s": best,
        "wall_p50_s": _percentile(walls, 0.50),
        "requests_per_sec": result.requests / best,
        "invariants_hold": result.all_invariants_hold,
    }


def run_suite(quick: bool = False, suite: str = "default") -> Dict[str, Any]:
    """Run the benchmarks named by *suite*; return the result document.

    ``quick`` shrinks every benchmark (~3 s total instead of ~20 s);
    quick and full results are never compared to each other — the
    baseline file keeps one section per mode.
    """
    try:
        benches = SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r} (choose from {sorted(SUITES)})"
        ) from None
    results: Dict[str, Any] = {
        "schema": 2,
        "mode": "quick" if quick else "full",
        "suite": suite,
        "seed": SEED,
    }
    if quick:
        # Walls below ~0.2 s are startup-jitter dominated, so even the
        # quick points stay big enough to give a stable throughput.
        runners = {
            "kernel": lambda: bench_kernel(events=100_000, processes=50),
            "pipeline": lambda: bench_pipeline(
                duration=120.0, clients=30, repeats=2
            ),
            "macro": lambda: bench_macro(duration=20.0, repeats=2),
            # Kept big enough that the serial wall clears startup
            # jitter; the gated pages_per_sec_w1 needs a stable wall.
            "parallel": lambda: bench_parallel(
                clients=24,
                shards=4,
                duration=60.0,
                workers_list=(1, 2),
                repeats=1,
            ),
            "telemetry": lambda: bench_telemetry(duration=20.0, repeats=2),
            "autoscale": lambda: bench_autoscale(duration=120.0, repeats=2),
        }
    else:
        runners = {
            "kernel": bench_kernel,
            "pipeline": bench_pipeline,
            "macro": bench_macro,
            "parallel": bench_parallel,
            "telemetry": bench_telemetry,
            "autoscale": bench_autoscale,
        }
    for bench in benches:
        results[bench] = runners[bench]()
    return results


def profile_macro(
    out: str = DEFAULT_PROFILE_OUT, top: int = 10
) -> str:
    """Run one macro repetition under cProfile.

    The full stats are dumped to *out* in the binary ``pstats`` format
    (load with ``python -m pstats`` or ``snakeviz``); the returned
    string is only a short top-*top* cumulative-time summary for the
    report, so the stats no longer flood stdout.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    run_qos_experiment(60, mode="broker", duration=120.0, seed=SEED)
    profiler.disable()
    profiler.dump_stats(out)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    return (
        f"cProfile stats written to {out} "
        f"(load with: python -m pstats {out})\n" + buffer.getvalue()
    )


def compare_to_baseline(
    results: Dict[str, Any],
    baseline: Dict[str, Any],
    max_regression: float = 0.30,
) -> List[str]:
    """Compare *results* to the matching baseline section.

    Returns one human-readable line per compared metric; raises
    :class:`ValueError` when the baseline has no section for this mode.
    Benchmarks the suite did not run are skipped; benchmarks missing
    from the baseline section are reported but not failed. Lines for
    metrics that regressed beyond *max_regression* start with
    ``REGRESSION``.
    """
    section = baseline.get(results["mode"])
    if section is None:
        raise ValueError(
            f"baseline has no {results['mode']!r} section "
            f"(sections: {sorted(baseline)})"
        )
    lines = []
    for bench, key in _COMPARED:
        if bench not in results:
            continue
        current = results[bench][key]
        if bench not in section:
            lines.append(
                f"{'no-base':>10}  {bench}.{key}: {current:,.0f} "
                f"(baseline has no {bench!r} entry; not compared)"
            )
            continue
        reference = section[bench][key]
        floor = reference * (1.0 - max_regression)
        ratio = current / reference if reference else float("inf")
        status = "ok" if current >= floor else "REGRESSION"
        lines.append(
            f"{status:>10}  {bench}.{key}: {current:,.0f} "
            f"vs baseline {reference:,.0f} ({ratio:.2f}x, "
            f"floor {floor:,.0f})"
        )
    return lines


def _collector_line(bench: Dict[str, Any]) -> str:
    """The report lines for a benchmark's reported-not-gated keys."""
    generations = "/".join(str(count) for count in bench["gc_collections"])
    return (
        f"            gc: {generations} collections (gen 0/1/2), "
        f"{bench['gc_collected_per_request']:.1f} objects collected per request\n"
        f"            kernel: {bench['kernel_scheduled_at_end']:,} entries "
        "still scheduled at the end of the run"
    )


def render_report(results: Dict[str, Any]) -> str:
    """Render the result document as an aligned text summary."""
    lines = [
        f"bench ({results['mode']} mode, suite "
        f"{results.get('suite', 'default')}, seed {results['seed']})"
    ]
    kernel = results.get("kernel")
    if kernel is not None:
        lines.append(
            f"  kernel:   {kernel['events_per_sec']:>12,.0f} events/s "
            f"({kernel['events']:,} events in {kernel['wall_s']:.3f}s; "
            f"timeout idiom {kernel['timeout_events_per_sec']:,.0f}/s)"
        )
    pipeline = results.get("pipeline")
    if pipeline is not None:
        lines.append(
            f"  pipeline: {pipeline['requests_per_sec']:>12,.0f} requests/s "
            f"({pipeline['requests']:,} requests in {pipeline['wall_s']:.3f}s)"
        )
        lines.append(_collector_line(pipeline))
    macro = results.get("macro")
    if macro is not None:
        lines.append(
            f"  macro:    {macro['requests_per_sec']:>12,.0f} requests/s "
            f"({macro['requests']:,} requests, best of {macro['repeats']} "
            f"wall {macro['wall_best_s']:.3f}s, "
            f"p50 {macro['wall_p50_s']:.3f}s, p99 {macro['wall_p99_s']:.3f}s)"
        )
        lines.append(_collector_line(macro))
    telemetry = results.get("telemetry")
    if telemetry is not None:
        lines.append(
            f"  telemetry: {telemetry['scrape_frac']:.2%} scrape wall share "
            f"(differenced {telemetry['overhead_frac']:.2%}; "
            f"base {telemetry['wall_base_s']:.3f}s vs "
            f"scraped {telemetry['wall_telemetry_s']:.3f}s, "
            f"{telemetry['scrapes']} scrapes @ {telemetry['interval_s']:g}s)"
        )
    autoscale = results.get("autoscale")
    if autoscale is not None:
        verdict = "hold" if autoscale["invariants_hold"] else "VIOLATED"
        lines.append(
            f"  autoscale: {autoscale['requests_per_sec']:>11,.0f} requests/s "
            f"({autoscale['requests']:,} requests, "
            f"{autoscale['scale_events']} scale events, "
            f"{autoscale['drains_completed']} drains, best of "
            f"{autoscale['repeats']} wall {autoscale['wall_best_s']:.3f}s; "
            f"invariants {verdict})"
        )
    parallel = results.get("parallel")
    if parallel is not None:
        lines.append(
            f"  parallel: {parallel['shards']} shards, "
            f"{parallel['clients']} clients, {parallel['cores']} core(s):"
        )
        serial = parallel["serial"]
        lines.append(
            f"    serial (one simulation, global key stream): "
            f"wall {serial['wall_s']:.3f}s ({serial['pages']:,} pages)"
        )
        for point in parallel["points"]:
            lines.append(
                f"    partitioned, workers={point['workers']}: "
                f"wall {point['wall_s']:.3f}s "
                f"({point['speedup_vs_inprocess']:.2f}x vs in-process, "
                f"{point['pages']:,} pages)"
            )
    return "\n".join(lines)


def run_bench_command(
    quick: bool = False,
    profile: bool = False,
    out: Optional[str] = None,
    baseline_path: Optional[str] = None,
    max_regression: float = 0.30,
    suite: str = "default",
    profile_out: str = DEFAULT_PROFILE_OUT,
) -> str:
    """The ``repro bench`` implementation; returns the printed report.

    ``out=None`` picks ``BENCH_parallel.json`` for the parallel-only
    suite and ``BENCH_pipeline.json`` otherwise; pass ``""`` to skip
    writing. Raises :class:`BenchRegression` when a compared throughput
    falls more than *max_regression* below the baseline.
    """
    results = run_suite(quick=quick, suite=suite)
    if out is None:
        out = (
            "BENCH_parallel.json" if suite == "parallel"
            else "BENCH_pipeline.json"
        )
    parts = [render_report(results)]
    if out:
        Path(out).write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        parts.append(f"results written to {out}")
    path = Path(baseline_path) if baseline_path else DEFAULT_BASELINE
    if path.exists():
        baseline = json.loads(path.read_text(encoding="utf-8"))
        lines = compare_to_baseline(
            results, baseline, max_regression=max_regression
        )
        parts.append(f"baseline {path} (max regression {max_regression:.0%}):")
        parts.extend(f"  {line}" for line in lines)
        if any(line.startswith("REGRESSION") for line in lines):
            report = "\n".join(parts)
            raise BenchRegression(
                "benchmark regressed beyond the allowed threshold", report
            )
    elif baseline_path:
        raise FileNotFoundError(f"baseline not found: {baseline_path}")
    else:
        parts.append(f"no baseline at {path}; comparison skipped")
    if profile:
        parts.append("")
        parts.append(profile_macro(out=profile_out))
    return "\n".join(parts)
