"""Declarative SLOs, rolling error budgets, and burn-rate alerts.

An :class:`SloSpec` names the counters that define "good" (or "bad")
and "total" events for one objective — e.g. *premium requests answered
at full fidelity* with a 90 % objective. The :class:`SloEngine`
evaluates every spec at each scrape boundary of a
:class:`~repro.obs.telemetry.TelemetryScraper`:

* **burn rate** over window *W* is ``bad_fraction(W) / (1 - objective)``
  — burn 1.0 consumes the error budget exactly at the sustainable
  pace; burn 10 exhausts a day's budget in ~2.4 hours (in wall-clock
  SRE terms; here everything is simulated seconds).
* **multi-window alerts**: a pair fires only when *both* its short and
  long windows exceed the pair's threshold — the short window gives
  fast detection, the long window suppresses blips. The windows
  follow the classic fast (5 s / 1 min) + slow (30 s / 6 min) pairing,
  scaled to simulation time.
* **error budget**: ``1 - burn(BUDGET_WINDOW)`` — the fraction of the
  rolling budget still unspent (can go negative when the objective is
  being missed outright).

Because evaluation happens only at scrape boundaries and reads only
ring-buffer deltas, every alert timestamp is deterministic in
``(seed, scrape_interval)`` — rerun the same scenario and the alert
timeline is identical, which the determinism tests assert.

Burn thresholds here are lower than Google-SRE production defaults
(14.4 / 6): those assume 99.9 %-class objectives where the budget is
tiny. The simulated broker's objectives are in the 0.75–0.95 range, so
the maximum possible burn is ``1 / (1 - objective)`` (4–20) and the
factories pick thresholds that are reachable yet ignore steady-state
noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SloSpec",
    "BurnAlert",
    "SloEngine",
    "qos_slos",
    "chaos_slos",
    "shard_slos",
    "autoscale_slos",
    "render_slo_table",
    "render_alert_timeline",
]

#: Window for the rolling error-budget gauge, in simulated seconds.
BUDGET_WINDOW = 360.0


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over scraped counters.

    Exactly one of *good* or *bad* should be given (both are summed
    counter-name tuples): with *good*, ``bad = total - good``; with
    *bad*, it is used directly. Missing counters read as zero, so a
    spec can safely name counters that only exist in some modes (e.g.
    ``frontend.rejected.*`` only appears under admission control).
    """

    name: str
    objective: float
    total: Tuple[str, ...]
    good: Tuple[str, ...] = ()
    bad: Tuple[str, ...] = ()
    description: str = ""
    #: (short, long) windows in simulated seconds for the fast pair.
    fast: ClassVar[Tuple[float, float]] = (5.0, 60.0)
    #: (short, long) windows for the slow pair.
    slow: ClassVar[Tuple[float, float]] = (30.0, 360.0)
    #: Burn-rate thresholds; a pair fires when BOTH windows exceed it.
    fast_burn: float = 2.0
    slow_burn: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1): {self.objective!r}"
            )
        if bool(self.good) == bool(self.bad):
            raise ValueError(
                f"spec {self.name!r} needs exactly one of good= or bad="
            )
        if not self.total:
            raise ValueError(f"spec {self.name!r} needs total= counters")

    @property
    def budget(self) -> float:
        """The error budget fraction, ``1 - objective``."""
        return 1.0 - self.objective


@dataclass
class BurnAlert:
    """One burn-rate alert firing (and, eventually, resolving).

    Timestamps are scrape times — deterministic in
    ``(seed, scrape_interval)``.
    """

    slo: str
    severity: str  # "fast" or "slow"
    fired_at: float
    threshold: float
    short_window: float
    long_window: float
    short_burn: float
    long_burn: float
    resolved_at: Optional[float] = field(default=None, init=False)

    @property
    def active(self) -> bool:
        return self.resolved_at is None


class SloEngine:
    """Evaluates a set of :class:`SloSpec` at scrape boundaries.

    Bind to a scraper with
    :meth:`TelemetryScraper.use_slo
    <repro.obs.telemetry.TelemetryScraper.use_slo>`; the scraper calls
    :meth:`evaluate` after appending each scrape's series points. The
    returned gauges (``slo.<name>.burn<W>s`` and ``slo.<name>.budget``)
    are folded into the scrape record, so the SLO state rides the JSONL
    export and the dashboard for free.
    """

    def __init__(self, specs: Sequence[SloSpec]) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names!r}")
        self.specs: Tuple[SloSpec, ...] = tuple(specs)
        #: Every alert ever fired, in firing order.
        self.alerts: List[BurnAlert] = []
        self._active: Dict[Tuple[str, str], BurnAlert] = {}
        #: Evaluations performed (one per scrape once bound).
        self.evaluations = 0

    def _burn(
        self, spec: SloSpec, scraper: Any, window: float, at: float
    ) -> float:
        total = scraper.counter_delta(spec.total, window, at)
        if total <= 0:
            return 0.0
        if spec.bad:
            bad = scraper.counter_delta(spec.bad, window, at)
        else:
            bad = total - scraper.counter_delta(spec.good, window, at)
        if bad < 0:
            bad = 0.0
        return (bad / total) / spec.budget

    def evaluate(self, scraper: Any, now: float) -> Dict[str, float]:
        """Compute burn/budget gauges and update alert state at *now*."""
        gauges: Dict[str, float] = {}
        self.evaluations += 1
        for spec in self.specs:
            windows = sorted(set(spec.fast) | set(spec.slow))
            burns = {
                window: self._burn(spec, scraper, window, now)
                for window in windows
            }
            for window in windows:
                gauges[f"slo.{spec.name}.burn{window:g}s"] = burns[window]
            gauges[f"slo.{spec.name}.budget"] = 1.0 - self._burn(
                spec, scraper, BUDGET_WINDOW, now
            )
            for severity, (short, long_), threshold in (
                ("fast", spec.fast, spec.fast_burn),
                ("slow", spec.slow, spec.slow_burn),
            ):
                firing = (
                    burns[short] > threshold and burns[long_] > threshold
                )
                key = (spec.name, severity)
                active = self._active.get(key)
                if firing and active is None:
                    alert = BurnAlert(
                        slo=spec.name,
                        severity=severity,
                        fired_at=now,
                        threshold=threshold,
                        short_window=short,
                        long_window=long_,
                        short_burn=burns[short],
                        long_burn=burns[long_],
                    )
                    self._active[key] = alert
                    self.alerts.append(alert)
                elif not firing and active is not None:
                    active.resolved_at = now
                    del self._active[key]
        return gauges

    def active_alerts(self) -> List[BurnAlert]:
        """Alerts currently firing, in firing order."""
        return [alert for alert in self.alerts if alert.active]

    def first_alert_time(self) -> Optional[float]:
        """When the earliest alert fired (None if none ever did)."""
        return self.alerts[0].fired_at if self.alerts else None

    def spec_named(self, name: str) -> SloSpec:
        """The spec called *name* (raises :class:`KeyError` if absent)."""
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(name)

    def __repr__(self) -> str:
        return (
            f"<SloEngine specs={len(self.specs)} "
            f"alerts={len(self.alerts)}>"
        )


# ---------------------------------------------------------------------------
# Spec factories for the built-in scenarios
# ---------------------------------------------------------------------------

#: Per-class full-fidelity objectives for the §V.B QoS scenario. Under
#: the paper's overload the broker protects class 1 at the expense of
#: class 3, so the objectives step down accordingly; class 3's is set
#: where the §V.B overload (60 clients) measurably misses it while a
#: lightly-loaded run does not.
QOS_OBJECTIVES: Dict[int, float] = {1: 0.90, 2: 0.60, 3: 0.30}


def qos_slos() -> List[SloSpec]:
    """Full-fidelity SLOs per QoS class for the §V.B scenario.

    Good = full-fidelity completions; total adds low-fidelity
    fallbacks and (under admission control) front-door rejections.
    """
    specs = []
    for level, objective in QOS_OBJECTIVES.items():
        specs.append(
            SloSpec(
                name=f"qos{level}-fullfid",
                description=(
                    f"class-{level} requests answered at full fidelity"
                ),
                objective=objective,
                good=(f"app.fullfid.qos{level}",),
                total=(
                    f"app.fullfid.qos{level}",
                    f"app.lowfid.qos{level}",
                    f"frontend.rejected.qos{level}",
                ),
                fast_burn=1.5,
                slow_burn=1.1,
            )
        )
    return specs


def chaos_slos() -> List[SloSpec]:
    """SLOs for the chaos soak (crash/restart + load spikes).

    ``chaos-answered`` counts every dropped/timed-out/errored reply —
    including spike traffic, which the availability-floor invariant
    deliberately excludes — so its burn alerts fire during spike sheds
    and crash windows while the steady-workload invariant stays green:
    the early-warning the operator wants *before* the floor trips.
    ``chaos-fast`` tracks replies under the fast-reply threshold and
    burns during failover windows (a crashed primary costs the full
    attempt timeout before the failover answers).
    """
    return [
        SloSpec(
            name="chaos-answered",
            description="replies not dropped/timed out/errored (all traffic)",
            objective=0.95,
            bad=(
                "workload.dropped",
                "workload.timeout",
                "workload.error",
            ),
            total=("workload.done",),
            fast_burn=2.0,
            slow_burn=1.0,
        ),
        SloSpec(
            name="chaos-fast",
            description="replies under the fast-reply latency threshold",
            objective=0.75,
            good=("workload.fast",),
            total=("workload.answered",),
            fast_burn=2.0,
            slow_burn=1.2,
        ),
    ]


def shard_slos() -> List[SloSpec]:
    """Sharded-scenario SLOs — same front-door counters as QoS."""
    return qos_slos()


def autoscale_slos() -> List[SloSpec]:
    """SLOs for the elastic-pool experiments (autoscale + scale chaos).

    Deliberately *excludes* ``workload.throttled`` from the bad
    counters: a per-tenant token-bucket refusal is "we refused", not
    "we lost" — refusing one tenant's flash crowd is the throttle
    working, and must not burn the error budget (and thereby veto the
    very scale-in the refusal enabled). Backpressure sheds
    (``workload.dropped``), timeouts, and errors still burn: those are
    capacity problems the autoscaler should react to, and an active
    burn alert vetoes scale-in (see
    :class:`~repro.core.autoscale.Autoscaler`).
    """
    return [
        SloSpec(
            name="scale-answered",
            description="replies not dropped/timed out/errored "
            "(throttle refusals excluded)",
            objective=0.98,
            bad=(
                "workload.dropped",
                "workload.timeout",
                "workload.error",
            ),
            total=("workload.done",),
            fast_burn=2.0,
            slow_burn=1.0,
        ),
        SloSpec(
            name="scale-fast",
            description="replies under the fast-reply latency threshold",
            objective=0.75,
            good=("workload.fast",),
            total=("workload.answered",),
            fast_burn=2.0,
            slow_burn=1.2,
        ),
    ]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_slo_table(engine: SloEngine, scraper: Any) -> str:
    """A fixed-width summary table of every spec's current state."""
    last = None
    for record in reversed(scraper.records):
        last = record
        break
    lines = [
        "SLO                  objective  budget-left  burn(fast)  burn(slow)  alerts",
        "-" * 78,
    ]
    for spec in engine.specs:
        budget = float("nan")
        fast_burn = float("nan")
        slow_burn = float("nan")
        if last is not None:
            budget = last.gauges.get(f"slo.{spec.name}.budget", float("nan"))
            fast_burn = last.gauges.get(
                f"slo.{spec.name}.burn{spec.fast[0]:g}s", float("nan")
            )
            slow_burn = last.gauges.get(
                f"slo.{spec.name}.burn{spec.slow[0]:g}s", float("nan")
            )
        fired = sum(1 for alert in engine.alerts if alert.slo == spec.name)
        active = sum(
            1
            for alert in engine.alerts
            if alert.slo == spec.name and alert.active
        )
        suffix = f"{fired}" + (f" ({active} active)" if active else "")
        lines.append(
            f"{spec.name:<20} {spec.objective:>8.0%}  {budget:>11.3f}  "
            f"{fast_burn:>10.2f}  {slow_burn:>10.2f}  {suffix}"
        )
    return "\n".join(lines)


def render_alert_timeline(engine: SloEngine) -> str:
    """The chronological FIRE/RESOLVE event list."""
    if not engine.alerts:
        return "alert timeline: (no burn-rate alerts fired)"
    events: List[Tuple[float, int, str]] = []
    for order, alert in enumerate(engine.alerts):
        events.append(
            (
                alert.fired_at,
                order,
                f"t={alert.fired_at:>7.1f}s  FIRE     {alert.severity:<5} "
                f"{alert.slo:<20} burn{alert.short_window:g}s="
                f"{alert.short_burn:.2f} burn{alert.long_window:g}s="
                f"{alert.long_burn:.2f} (threshold {alert.threshold:g})",
            )
        )
        if alert.resolved_at is not None:
            events.append(
                (
                    alert.resolved_at,
                    order,
                    f"t={alert.resolved_at:>7.1f}s  RESOLVE  "
                    f"{alert.severity:<5} {alert.slo:<20}",
                )
            )
    events.sort(key=lambda item: (item[0], item[1]))
    return "\n".join(["alert timeline:"] + [text for _, _, text in events])
