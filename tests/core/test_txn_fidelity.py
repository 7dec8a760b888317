"""Tests for transaction escalation and fidelity degradation."""

from __future__ import annotations

import pytest

from repro.core import BrokerRequest, FidelityPolicy, ReplyStatus, ResultCache, TransactionTracker
from repro.net import Address

REPLY_TO = Address("web", 50000)


def txn_request(request_id: int, qos: int, txn_id=None, step=0) -> BrokerRequest:
    return BrokerRequest(
        request_id=request_id,
        service="svc",
        operation="get",
        payload=("/p", {}),
        reply_to=REPLY_TO,
        qos_level=qos,
        txn_id=txn_id,
        txn_step=step,
    )


class TestTransactionTracker:
    def test_non_transactional_unchanged(self):
        tracker = TransactionTracker()
        request = txn_request(1, qos=3)
        assert tracker.effective_level(request) == 3
        assert not tracker.protected(request)

    def test_escalation_per_step(self):
        tracker = TransactionTracker(escalation_per_step=1)
        assert tracker.effective_level(txn_request(1, 3, "t1", step=1)) == 3
        assert tracker.effective_level(txn_request(2, 3, "t1", step=2)) == 2
        assert tracker.effective_level(txn_request(3, 3, "t1", step=3)) == 1

    def test_escalation_floors_at_one(self):
        tracker = TransactionTracker(escalation_per_step=2)
        assert tracker.effective_level(txn_request(1, 2, "t1", step=5)) == 1

    def test_protection_threshold(self):
        tracker = TransactionTracker(protect_from_step=3)
        assert not tracker.protected(txn_request(1, 3, "t1", step=2))
        assert tracker.protected(txn_request(2, 3, "t1", step=3))

    def test_observe_tracks_highest_step(self):
        tracker = TransactionTracker()
        tracker.observe(txn_request(1, 1, "t1", step=1))
        tracker.observe(txn_request(2, 1, "t1", step=3))
        tracker.observe(txn_request(3, 1, "t1", step=2))
        assert tracker.step_of("t1") == 3
        assert len(tracker._steps) == 1

    def test_complete_forgets(self):
        tracker = TransactionTracker()
        tracker.observe(txn_request(1, 1, "t1", step=1))
        tracker.complete("t1")
        assert tracker.step_of("t1") == 0
        assert len(tracker._steps) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TransactionTracker(escalation_per_step=-1)


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestFidelityPolicy:
    def test_busy_reply_without_cache(self):
        policy = FidelityPolicy()
        reply = policy.degrade(txn_request(1, 3), None, "qos-threshold", "b1")
        assert reply.status is ReplyStatus.DROPPED
        assert reply.fidelity == 0.0
        assert reply.payload == policy.busy_message
        assert reply.error == "qos-threshold"
        assert reply.broker == "b1"
        assert reply.fidelity < 1.0

    def test_stale_cache_gives_degraded_reply(self):
        clock = ManualClock()
        cache = ResultCache(ttl=5, clock=clock)
        policy = FidelityPolicy()
        request = txn_request(1, 3)
        cache.put(request.key(), "old-result")
        clock.now = 10.0  # entry is stale
        reply = policy.degrade(request, cache, "qos-threshold")
        assert reply.status is ReplyStatus.DEGRADED
        assert reply.payload == "old-result"
        assert reply.from_cache
        assert 0.0 < reply.fidelity <= policy.stale_fidelity
        assert reply.ok  # degraded still counts as answered

    def test_fidelity_decays_with_age(self):
        clock = ManualClock()
        cache = ResultCache(ttl=1, clock=clock)
        policy = FidelityPolicy()
        request = txn_request(1, 3)
        cache.put(request.key(), "v")
        clock.now = 10.0
        young = policy.degrade(request, cache, "r").fidelity
        cache.put(request.key(), "v")  # reset stored_at
        clock.now = 105.0
        old = policy.degrade(request, cache, "r")
        assert old.status is ReplyStatus.DEGRADED
        assert old.fidelity < young

    def test_too_old_entries_fall_back_to_busy(self, monkeypatch):
        monkeypatch.setattr(FidelityPolicy, "max_stale_age", 50.0)
        clock = ManualClock()
        cache = ResultCache(ttl=1, clock=clock)
        policy = FidelityPolicy()
        request = txn_request(1, 3)
        cache.put(request.key(), "v")
        clock.now = 60.0
        reply = policy.degrade(request, cache, "r")
        assert reply.status is ReplyStatus.DROPPED

    def test_uncacheable_request_never_gets_stale_data(self):
        clock = ManualClock()
        cache = ResultCache(ttl=100, clock=clock)
        policy = FidelityPolicy()
        request = BrokerRequest(
            request_id=1,
            service="svc",
            operation="get",
            payload=("/p", {}),
            reply_to=REPLY_TO,
            cacheable=False,
        )
        cache.put(request.key(), "secret")
        reply = policy.degrade(request, cache, "r")
        assert reply.status is ReplyStatus.DROPPED
