"""Tests for the SLO engine, burn-rate math, and alert determinism."""

from __future__ import annotations

import pytest

from repro.obs import (
    BurnAlert,
    SloEngine,
    SloSpec,
    TelemetryScraper,
    chaos_slos,
    qos_slos,
    render_alert_timeline,
    render_slo_table,
    shard_slos,
)
from repro.workload.chaos import run_chaos_experiment


class FakeScraper:
    """A scraper stub exposing just the counter_delta read surface."""

    def __init__(self, deltas):
        self.deltas = deltas
        self.records = []

    def counter_delta(self, names, window, at=None):
        return sum(self.deltas.get((name, window), 0.0) for name in names)


def spec(**overrides):
    base = dict(
        name="s",
        objective=0.9,
        good=("good",),
        total=("total",),
        fast_burn=2.0,
        slow_burn=1.0,
    )
    base.update(overrides)
    return SloSpec(**base)


class TestSloSpec:
    def test_objective_bounds_enforced(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="objective"):
                spec(objective=bad)

    def test_exactly_one_of_good_or_bad(self):
        with pytest.raises(ValueError, match="exactly one"):
            spec(good=("g",), bad=("b",))
        with pytest.raises(ValueError, match="exactly one"):
            spec(good=(), bad=())

    def test_total_required(self):
        with pytest.raises(ValueError, match="total"):
            spec(total=())

    def test_budget_is_one_minus_objective(self):
        assert spec(objective=0.9).budget == pytest.approx(0.1)


class TestBurnMath:
    def test_burn_is_bad_fraction_over_budget(self):
        engine = SloEngine([spec()])
        scraper = FakeScraper(
            {("total", 5.0): 100.0, ("good", 5.0): 98.0}
        )
        # bad fraction 2% against a 10% budget -> burn 0.2.
        burn = engine._burn(engine.specs[0], scraper, 5.0, at=1.0)
        assert burn == pytest.approx(0.2)

    def test_explicit_bad_counters_used_directly(self):
        engine = SloEngine([spec(good=(), bad=("bad",))])
        scraper = FakeScraper({("total", 5.0): 50.0, ("bad", 5.0): 5.0})
        assert engine._burn(
            engine.specs[0], scraper, 5.0, at=1.0
        ) == pytest.approx(1.0)

    def test_zero_total_means_zero_burn(self):
        engine = SloEngine([spec()])
        assert engine._burn(engine.specs[0], FakeScraper({}), 5.0, 1.0) == 0.0

    def test_good_exceeding_total_clamps_to_zero(self):
        engine = SloEngine([spec()])
        scraper = FakeScraper({("total", 5.0): 10.0, ("good", 5.0): 12.0})
        assert engine._burn(engine.specs[0], scraper, 5.0, 1.0) == 0.0


class TestAlertLifecycle:
    def _engine_and_scraper(self, bad_frac):
        engine = SloEngine([spec(good=(), bad=("bad",), fast_burn=2.0)])
        deltas = {}
        for window in (5.0, 30.0, 60.0, 360.0):
            deltas[("total", window)] = 100.0
            deltas[("bad", window)] = bad_frac * 100.0
        return engine, FakeScraper(deltas)

    def test_pair_fires_only_when_both_windows_exceed(self):
        engine, scraper = self._engine_and_scraper(bad_frac=0.5)  # burn 5
        engine.evaluate(scraper, now=10.0)
        severities = {alert.severity for alert in engine.alerts}
        assert severities == {"fast", "slow"}
        assert all(alert.fired_at == 10.0 for alert in engine.alerts)

    def test_short_window_alone_does_not_fire(self):
        engine = SloEngine([spec(good=(), bad=("bad",), fast_burn=2.0)])
        deltas = {("total", w): 100.0 for w in (5.0, 30.0, 60.0, 360.0)}
        deltas[("bad", 5.0)] = 50.0  # burn 5 on the short window only
        engine.evaluate(FakeScraper(deltas), now=1.0)
        assert not [a for a in engine.alerts if a.severity == "fast"]

    def test_alert_resolves_when_burn_subsides(self):
        engine, hot = self._engine_and_scraper(bad_frac=0.5)
        engine.evaluate(hot, now=1.0)
        assert engine.active_alerts()
        _, cold = self._engine_and_scraper(bad_frac=0.0)
        engine.evaluate(cold, now=2.0)
        assert not engine.active_alerts()
        assert all(alert.resolved_at == 2.0 for alert in engine.alerts)

    def test_no_refire_while_active(self):
        engine, scraper = self._engine_and_scraper(bad_frac=0.5)
        engine.evaluate(scraper, now=1.0)
        engine.evaluate(scraper, now=2.0)
        assert len(engine.alerts) == 2  # one fast + one slow, not four

    def test_evaluate_returns_burn_and_budget_gauges(self):
        engine, scraper = self._engine_and_scraper(bad_frac=0.1)
        gauges = engine.evaluate(scraper, now=1.0)
        assert gauges["slo.s.burn5s"] == pytest.approx(1.0)
        assert gauges["slo.s.budget"] == pytest.approx(0.0)

    def test_first_alert_time(self):
        engine, scraper = self._engine_and_scraper(bad_frac=0.5)
        assert engine.first_alert_time() is None
        engine.evaluate(scraper, now=7.0)
        assert engine.first_alert_time() == 7.0


class TestEngineConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SloEngine([spec(), spec()])

    def test_spec_named_lookup(self):
        engine = SloEngine([spec()])
        assert engine.spec_named("s").name == "s"
        with pytest.raises(KeyError):
            engine.spec_named("missing")


class TestFactories:
    def test_qos_slos_cover_all_levels(self):
        specs = qos_slos()
        assert [s.name for s in specs] == [
            "qos1-fullfid", "qos2-fullfid", "qos3-fullfid",
        ]
        # Objectives step down with priority, like the broker's policy.
        assert specs[0].objective > specs[1].objective > specs[2].objective

    def test_chaos_slos_track_drops_and_latency(self):
        by_name = {s.name: s for s in chaos_slos()}
        assert "workload.dropped" in by_name["chaos-answered"].bad
        assert by_name["chaos-fast"].good == ("workload.fast",)

    def test_shard_slos_mirror_qos(self):
        assert [s.name for s in shard_slos()] == [s.name for s in qos_slos()]


class TestChaosAlertDeterminism:
    """Burn alerts fire deterministically — and before the floor trips."""

    def _soak(self):
        scraper = TelemetryScraper(interval=1.0)
        engine = SloEngine(chaos_slos())
        scraper.use_slo(engine)
        result = run_chaos_experiment(
            duration=90.0, seed=2026, telemetry=scraper
        )
        return result, engine

    def test_alert_timeline_identical_across_reruns(self):
        _, first = self._soak()
        _, second = self._soak()
        assert render_alert_timeline(first) == render_alert_timeline(second)
        assert [
            (a.slo, a.severity, a.fired_at, a.resolved_at)
            for a in first.alerts
        ] == [
            (a.slo, a.severity, a.fired_at, a.resolved_at)
            for a in second.alerts
        ]

    def test_burn_alert_fires_while_availability_floor_holds(self):
        # ISSUE 9 acceptance: the spike-shed burn alert is the early
        # warning; the steady-workload availability invariant stays
        # green for the same run.
        result, engine = self._soak()
        assert engine.alerts, "chaos soak fired no burn-rate alerts"
        floor = next(
            inv for inv in result.invariants if "availability" in inv.name
        )
        assert floor.passed, floor
        assert engine.first_alert_time() < result.duration


class TestRenderers:
    def test_slo_table_lists_every_spec(self):
        scraper = TelemetryScraper(interval=1.0)
        engine = SloEngine(qos_slos())
        text = render_slo_table(engine, scraper)
        for spec_ in engine.specs:
            assert spec_.name in text

    def test_timeline_empty_case(self):
        assert "no burn-rate alerts" in render_alert_timeline(
            SloEngine([spec()])
        )

    def test_timeline_orders_fire_and_resolve_chronologically(self):
        engine = SloEngine([spec()])
        resolved = BurnAlert(
            slo="s", severity="fast", fired_at=5.0, threshold=2.0,
            short_window=5.0, long_window=60.0,
            short_burn=3.0, long_burn=2.5,
        )
        resolved.resolved_at = 9.0
        engine.alerts.append(resolved)
        engine.alerts.append(
            BurnAlert(
                slo="s", severity="slow", fired_at=7.0, threshold=1.0,
                short_window=30.0, long_window=360.0,
                short_burn=1.5, long_burn=1.2,
            )
        )
        lines = render_alert_timeline(engine).splitlines()[1:]
        times = [float(line.split("=")[1].split("s")[0]) for line in lines]
        assert times == sorted(times)
        assert "FIRE" in lines[0] and "RESOLVE" in lines[-1]
