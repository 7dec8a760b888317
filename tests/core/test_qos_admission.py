"""Unit tests for QoSPolicy and AdmissionController."""

from __future__ import annotations

import pytest

from repro.core import AdmissionController, AdmissionDecision, QoSPolicy
from repro.errors import BrokerError


class TestQoSPolicy:
    def test_linear_fraction_schedule(self):
        policy = QoSPolicy(levels=3, threshold=20)
        assert policy.fraction(1) == pytest.approx(1.0)
        assert policy.fraction(2) == pytest.approx(2 / 3)
        assert policy.fraction(3) == pytest.approx(1 / 3)
        assert policy.admit_limit(3) == pytest.approx(20 / 3)

    def test_explicit_fractions_override(self):
        policy = QoSPolicy(levels=2, threshold=10, fractions={2: 0.5})
        assert policy.admit_limit(2) == 5.0
        assert policy.admit_limit(1) == 10.0  # falls back to linear

    def test_validation(self):
        with pytest.raises(BrokerError):
            QoSPolicy(levels=0)
        with pytest.raises(BrokerError):
            QoSPolicy(threshold=0)
        with pytest.raises(BrokerError):
            QoSPolicy(levels=2, fractions={2: 1.5})
        with pytest.raises(BrokerError):
            QoSPolicy(levels=2, fractions={5: 0.5})

    def test_level_clamp(self):
        policy = QoSPolicy(levels=3)
        assert policy.clamp(0) == 1
        assert policy.clamp(99) == 3
        assert policy.clamp(2) == 2

    def test_out_of_range_level_queries_raise(self):
        policy = QoSPolicy(levels=3)
        with pytest.raises(BrokerError):
            policy.fraction(4)
        with pytest.raises(BrokerError):
            policy.rate_limit(0)

    def test_describe(self):
        policy = QoSPolicy(levels=2, threshold=10)
        assert policy.describe() == {1: 10.0, 2: 5.0}

    def test_monotone_fractions(self):
        policy = QoSPolicy(levels=5, threshold=100)
        limits = [policy.admit_limit(level) for level in range(1, 6)]
        assert limits == sorted(limits, reverse=True)


class TestAdmissionController:
    def test_threshold_gate_per_level(self, sim):
        policy = QoSPolicy(levels=3, threshold=9)
        ctrl = AdmissionController(sim, policy)
        # Limits: level1=9, level2=6, level3=3.
        for _ in range(3):
            ctrl.request_started()
        assert ctrl.decide(3).admitted is False
        assert ctrl.decide(2).admitted is True
        for _ in range(3):
            ctrl.request_started()
        assert ctrl.decide(2).admitted is False
        assert ctrl.decide(1).admitted is True
        for _ in range(3):
            ctrl.request_started()
        assert ctrl.decide(1).admitted is False

    def test_rejection_reason_is_threshold(self, sim):
        ctrl = AdmissionController(sim, QoSPolicy(levels=1, threshold=1))
        ctrl.request_started()
        decision = ctrl.decide(1)
        assert decision.reason == AdmissionDecision.THRESHOLD_REASON

    def test_finish_releases_slots(self, sim):
        ctrl = AdmissionController(sim, QoSPolicy(levels=1, threshold=1))
        ctrl.request_started()
        assert not ctrl.decide(1).admitted
        ctrl.request_finished()
        assert ctrl.decide(1).admitted

    def test_finish_without_start_raises(self, sim):
        ctrl = AdmissionController(sim, QoSPolicy())
        with pytest.raises(RuntimeError):
            ctrl.request_finished()

    def test_protected_requests_use_hard_threshold(self, sim):
        policy = QoSPolicy(levels=3, threshold=9)
        ctrl = AdmissionController(sim, policy)
        for _ in range(4):
            ctrl.request_started()
        assert not ctrl.decide(3).admitted
        assert ctrl.decide(3, protected=True).admitted
        for _ in range(5):
            ctrl.request_started()
        assert not ctrl.decide(3, protected=True).admitted  # hard cap

    def test_intensity_gate(self, sim):
        policy = QoSPolicy(levels=2, threshold=100, rate_limits={2: 5.0})
        ctrl = AdmissionController(sim, policy)
        for _ in range(6):
            ctrl.record_arrival(2)
        decision = ctrl.decide(2)
        assert not decision.admitted
        assert decision.reason == AdmissionDecision.INTENSITY_REASON
        # Level 1 is unaffected — "other classes are not affected".
        assert ctrl.decide(1).admitted

    def test_intensity_window_slides(self, sim):
        policy = QoSPolicy(levels=1, threshold=100, rate_limits={1: 5.0})
        ctrl = AdmissionController(sim, policy)

        def run():
            for _ in range(6):
                ctrl.record_arrival(1)
            first = ctrl.decide(1).admitted
            yield sim.timeout(2.0)
            second = ctrl.decide(1).admitted
            return first, second

        first, second = sim.run(sim.process(run()))
        assert first is False
        assert second is True

    def test_arrival_windows_hold_only_what_a_limit_reads(self, sim, monkeypatch):
        """10,000 arrivals leave nothing behind for an unlimited level,
        and no more than one ``rate_window`` of them for a limited one."""
        monkeypatch.setattr(AdmissionController, "rate_window", 0.5)
        policy = QoSPolicy(levels=2, threshold=100, rate_limits={2: 50.0})
        ctrl = AdmissionController(sim, policy)
        stamps = []

        def run():
            for _ in range(10_000):
                yield 0.003
                ctrl.record_arrival(1)
                ctrl.record_arrival(2)
                stamps.append(sim.now)

        sim.run(sim.process(run()))
        in_window = sum(1 for t in stamps if t > sim.now - ctrl.rate_window)
        assert len(ctrl._arrivals.get(1, ())) == 0
        assert 0 < len(ctrl._arrivals[2]) <= in_window
        # The intensity gate still sees the full window.
        assert ctrl._rate(2) == in_window / ctrl.rate_window
