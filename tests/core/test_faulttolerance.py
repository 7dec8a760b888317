"""Tests for the fault-tolerance primitives and pipeline stages."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BreakerState,
    BrokerClient,
    CircuitBreaker,
    HttpAdapter,
    QoSPolicy,
    ReplyStatus,
    RetryPolicy,
    ServiceBroker,
    available_backends,
    stage_plan,
)
from repro.core.pipeline import CircuitBreakerStage
from repro.core.cache import ResultCache
from repro.errors import BrokerError
from repro.http.server import BackendWebServer
from repro.metrics import MetricsRegistry
from repro.net import BackendCrash, FaultInjector, FaultPlan
from repro.sim import Simulation

FT_ORDER = [
    "validate", "arrival", "timeout", "cache-lookup", "admission",
    "fidelity", "enqueue", "cluster", "breaker", "retry", "failover",
    "fidelity", "cache-fill", "reply",
]


class TestCircuitBreaker:
    def test_starts_closed_and_trips_at_threshold(self, sim):
        breaker = CircuitBreaker(sim, name="b", failure_threshold=3)
        assert breaker.current_state() is BreakerState.CLOSED
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.current_state() is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.current_state() is BreakerState.OPEN
        assert not breaker.allows()

    def test_success_resets_the_failure_count(self, sim):
        breaker = CircuitBreaker(sim, name="b", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.current_state() is BreakerState.CLOSED

    def test_open_goes_half_open_after_reset_timeout(self, sim):
        breaker = CircuitBreaker(sim, name="b", failure_threshold=1, reset_timeout=2.0)
        breaker.record_failure()
        assert breaker.current_state() is BreakerState.OPEN

        def check():
            yield sim.timeout(1.0)
            assert breaker.current_state() is BreakerState.OPEN
            yield sim.timeout(1.0)
            assert breaker.current_state() is BreakerState.HALF_OPEN

        sim.run(sim.process(check()))

    def test_half_open_probe_success_closes(self, sim):
        breaker = CircuitBreaker(sim, name="b", failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure()

        def check():
            yield sim.timeout(1.0)
            assert breaker.allows()  # consumes the probe slot
            assert not breaker.allows()  # budget spent this window
            breaker.record_success()
            assert breaker.current_state() is BreakerState.CLOSED

        sim.run(sim.process(check()))

    def test_half_open_probe_failure_reopens(self, sim):
        breaker = CircuitBreaker(sim, name="b", failure_threshold=3, reset_timeout=1.0)
        for _ in range(3):
            breaker.record_failure()

        def check():
            yield sim.timeout(1.0)
            assert breaker.allows()
            breaker.record_failure()  # a single half-open failure re-trips
            assert breaker.current_state() is BreakerState.OPEN

        sim.run(sim.process(check()))

    def test_probe_budget_replenishes(self, sim):
        breaker = CircuitBreaker(sim, name="b", failure_threshold=1, reset_timeout=1.0)
        breaker.record_failure()

        def check():
            yield sim.timeout(1.0)
            assert breaker.try_probe()
            assert not breaker.try_probe()
            # A probe claimed but never resolved must not wedge the
            # breaker: the budget replenishes a window later.
            yield sim.timeout(1.0)
            assert breaker.try_probe()

        sim.run(sim.process(check()))

    def test_transitions_emit_metrics(self, sim):
        metrics = MetricsRegistry()
        breaker = CircuitBreaker(
            sim, name="b", failure_threshold=1, reset_timeout=1.0, metrics=metrics
        )
        breaker.record_failure()
        assert metrics.counter("broker.breaker.open") == 1

        def check():
            yield sim.timeout(1.0)
            breaker.allows()
            breaker.record_success()

        sim.run(sim.process(check()))
        assert metrics.counter("broker.breaker.half_open") == 1
        assert metrics.counter("broker.breaker.closed") == 1

    def test_rejects_bad_parameters(self, sim):
        with pytest.raises(BrokerError):
            CircuitBreaker(sim, failure_threshold=0)
        with pytest.raises(BrokerError):
            CircuitBreaker(sim, reset_timeout=0.0)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self, monkeypatch):
        monkeypatch.setattr(RetryPolicy, "jitter", 0.0)
        monkeypatch.setattr(RetryPolicy, "max_delay", 0.3)
        policy = RetryPolicy(base_delay=0.1)
        rng = Simulation(seed=1).rng("t")
        assert policy.backoff(1, rng) == pytest.approx(0.1)
        assert policy.backoff(2, rng) == pytest.approx(0.2)
        assert policy.backoff(3, rng) == pytest.approx(0.3)  # capped
        assert policy.backoff(4, rng) == pytest.approx(0.3)

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=0.1)
        rng_a = Simulation(seed=1).rng("t")
        rng_b = Simulation(seed=1).rng("t")
        draws_a = [policy.backoff(1, rng_a) for _ in range(20)]
        draws_b = [policy.backoff(1, rng_b) for _ in range(20)]
        assert draws_a == draws_b
        assert all(0.1 <= d <= 0.15 for d in draws_a)

    def test_rejects_bad_parameters(self):
        with pytest.raises(BrokerError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(BrokerError):
            RetryPolicy(base_delay=-1.0)


class TestAvailableBackends:
    def test_filters_open_breakers_and_exclusions(self, sim):
        class FakeBackend:
            def __init__(self, name):
                self.name = name
                self.breaker = None

        a, b, c = FakeBackend("a"), FakeBackend("b"), FakeBackend("c")
        b.breaker = CircuitBreaker(sim, name="b", failure_threshold=1)
        b.breaker.record_failure()
        assert available_backends([a, b, c]) == [a, c]
        assert available_backends([a, b, c], exclude=(a,)) == [c]


# ---------------------------------------------------------------------------
# Pipeline-level behaviour
# ---------------------------------------------------------------------------


def make_ft_broker(sim, net, replicas=2, deadlines=None, reset_timeout=1.0):
    """A fault-tolerant broker over *replicas* instant web backends."""
    web_node = net.node("webhost")
    backends = []
    for index in range(1, replicas + 1):
        server = BackendWebServer(
            sim, net.node(f"backend{index}"), name=f"backend{index}"
        )

        def cgi(server, request):
            yield server.sim.timeout(0.01 * server.service_time_scale)
            return f"item={request.param('id', '?')}"

        server.add_cgi("/item", cgi)
        backends.append(server)
    broker = ServiceBroker(
        sim,
        web_node,
        service="items",
        adapters=[
            HttpAdapter(sim, web_node, s.address, name=s.name) for s in backends
        ],
        qos=QoSPolicy(levels=1, threshold=10_000, deadlines=deadlines),
        cache=ResultCache(capacity=64, ttl=0.5, clock=lambda: sim.now),
        pool_size=2,
        name="ft",
        stages=stage_plan(
            "fault-tolerant", CircuitBreakerStage(reset_timeout=reset_timeout)
        ),
    )
    client = BrokerClient(sim, web_node, {"items": broker.address})
    return broker, client, backends


class TestFaultTolerantPlan:
    def test_stage_order(self):
        assert [s.name for s in stage_plan("fault-tolerant")] == FT_ORDER

    def test_breaker_stage_installs_breakers(self, sim, net):
        broker, _, _ = make_ft_broker(sim, net)
        assert all(b.breaker is not None for b in broker.backends)

    def test_timeout_stage_stamps_deadline(self, sim, net):
        broker, client, _ = make_ft_broker(sim, net, deadlines={1: 2.5})
        seen = {}

        def driver():
            reply = yield from client.call("items", "get", ("/item", {"id": 1}))
            seen["reply"] = reply

        sim.run(sim.process(driver()))
        reply = seen["reply"]
        assert reply.status is ReplyStatus.OK
        timeline = [(r.stage, r.decision) for r in reply.context.stages]
        assert ("timeout", "budget=2.5") in timeline

    def test_no_deadline_leaves_requests_unbounded(self, sim, net):
        broker, client, _ = make_ft_broker(sim, net)
        seen = {}

        def driver():
            reply = yield from client.call("items", "get", ("/item", {"id": 1}))
            seen["reply"] = reply

        sim.run(sim.process(driver()))
        timeline = [(r.stage, r.decision) for r in seen["reply"].context.stages]
        assert ("timeout", "unbounded") in timeline

    def test_retry_recovers_through_a_crash(self, sim, net):
        broker, client, backends = make_ft_broker(
            sim, net, replicas=2, reset_timeout=0.5
        )
        plan = FaultPlan().add(
            BackendCrash(target="backend1", at=2.0, duration=3.0)
        )
        FaultInjector(
            sim, plan, network=net, targets={b.name: b for b in backends}
        ).start()
        outcomes = {"ok": 0, "other": 0}

        def one(i):
            reply = yield from client.call(
                "items", "get", ("/item", {"id": i % 8}), cacheable=False
            )
            outcomes["ok" if reply.status is ReplyStatus.OK else "other"] += 1

        def driver():
            for i in range(200):
                sim.process(one(i))
                yield sim.timeout(0.05)

        sim.process(driver())
        sim.run(until=30.0)
        # Every request got a full-fidelity answer despite the crash:
        # retries re-routed to the surviving replica.
        assert outcomes["ok"] == 200
        assert outcomes["other"] == 0
        assert broker.metrics.counter("broker.fault.unreachable") > 0
        assert broker.metrics.counter("broker.retry.recovered") > 0

    def test_single_replica_crash_degrades_from_stale_cache(self, sim, net):
        broker, client, backends = make_ft_broker(
            sim, net, replicas=1, reset_timeout=0.5
        )
        plan = FaultPlan().add(
            BackendCrash(target="backend1", at=2.0, duration=5.0)
        )
        FaultInjector(
            sim, plan, network=net, targets={b.name: b for b in backends}
        ).start()
        statuses = []

        def one(i):
            reply = yield from client.call("items", "get", ("/item", {"id": 0}))
            statuses.append(reply.status)

        def driver():
            for i in range(100):
                sim.process(one(i))
                yield sim.timeout(0.08)

        sim.process(driver())
        sim.run(until=30.0)
        # Nothing is left unanswered, and the outage is bridged by
        # degraded stale-cache replies (the cache saw key 0 before the
        # crash, so §III's fallback has something to serve).
        assert len(statuses) == 100
        assert statuses.count(ReplyStatus.DEGRADED) > 0
        assert statuses.count(ReplyStatus.ERROR) == 0
        assert broker.metrics.counter("broker.fault.replies") > 0
        assert broker.metrics.counter("broker.breaker.open") >= 1

    def test_uncacheable_requests_get_busy_replies_when_all_down(self, sim, net):
        broker, client, backends = make_ft_broker(
            sim, net, replicas=1, reset_timeout=5.0
        )
        plan = FaultPlan().add(
            BackendCrash(target="backend1", at=1.0, duration=8.0)
        )
        FaultInjector(
            sim, plan, network=net, targets={b.name: b for b in backends}
        ).start()
        statuses = []

        def one(i):
            reply = yield from client.call(
                "items", "get", ("/item", {"id": i}), cacheable=False
            )
            statuses.append(reply.status)

        def driver():
            yield sim.timeout(2.0)  # past the crash and the breaker trip
            for i in range(20):
                sim.process(one(i))
                yield sim.timeout(0.1)

        sim.process(driver())
        sim.run(until=30.0)
        assert len(statuses) == 20
        # With no cache entry to fall back on, the broker still answers
        # immediately with the paper's busy indication.
        assert statuses.count(ReplyStatus.DROPPED) > 0
        assert statuses.count(ReplyStatus.ERROR) == 0

    def test_breaker_recovers_after_restart(self, sim, net):
        broker, client, backends = make_ft_broker(
            sim, net, replicas=1, reset_timeout=0.5
        )
        plan = FaultPlan().add(
            BackendCrash(target="backend1", at=1.0, duration=2.0)
        )
        FaultInjector(
            sim, plan, network=net, targets={b.name: b for b in backends}
        ).start()
        tail_statuses = []

        def one(i):
            reply = yield from client.call(
                "items", "get", ("/item", {"id": i}), cacheable=False
            )
            if sim.now > 10.0:
                tail_statuses.append(reply.status)

        def driver():
            for i in range(300):
                sim.process(one(i))
                yield sim.timeout(0.05)

        sim.process(driver())
        sim.run(until=40.0)
        # Long after the restart, service is back to full fidelity: the
        # half-open probe traffic closed the breaker again.
        assert tail_statuses
        assert all(s is ReplyStatus.OK for s in tail_statuses)
        assert broker.metrics.counter("broker.breaker.half_open") >= 1
        assert broker.metrics.counter("broker.breaker.closed") >= 1

    def test_empty_fault_plan_matches_plain_execute(self, sim, net):
        # The fault-tolerant plan without faults behaves like the stock
        # pipeline: same replies, no retries, no degradation.
        broker, client, _ = make_ft_broker(sim, net)
        statuses = []

        def one(i):
            reply = yield from client.call(
                "items", "get", ("/item", {"id": i}), cacheable=False
            )
            statuses.append(reply.status)

        def driver():
            for i in range(50):
                sim.process(one(i))
                yield sim.timeout(0.02)

        sim.process(driver())
        sim.run(until=10.0)
        assert statuses == [ReplyStatus.OK] * 50
        assert broker.metrics.counter("broker.retry.attempts") == 0
        assert broker.metrics.counter("broker.fault.replies") == 0
        assert broker.metrics.counter("broker.breaker.open") == 0


class TestHalfOpenProbeBudget:
    """Property-style checks of the HALF_OPEN probe budget."""

    @given(
        probes=st.integers(min_value=1, max_value=4),
        reset=st.sampled_from([0.5, 1.0, 2.0]),
        steps=st.lists(
            st.floats(min_value=0.0, max_value=0.4),
            min_size=1,
            max_size=50,
        ),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_grants_never_exceed_budget_per_window(self, probes, reset, steps):
        """However probe attempts are spaced, a half-open breaker never
        grants more than ``half_open_probes`` per ``reset_timeout``
        window (the budget replenishes once per window)."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(CircuitBreaker, "half_open_probes", probes)
            sim = Simulation(seed=2026)
            breaker = CircuitBreaker(
                sim, name="b", failure_threshold=1, reset_timeout=reset
            )
            breaker.record_failure()  # trip to OPEN at t=0
            sim.run(until=reset)
            assert breaker.current_state() is BreakerState.HALF_OPEN

            granted = 0
            elapsed = 0.0
            for step in steps:
                if step > 0.0:
                    elapsed += step
                    sim.run(until=reset + elapsed)
                if breaker.try_probe():
                    granted += 1
                windows = 1 + int(elapsed // reset)
                assert granted <= probes * windows
            # No probe outcome was ever recorded: the breaker must still
            # be half-open (a stuck probe cannot wedge it open or closed).
            assert breaker.current_state() is BreakerState.HALF_OPEN

    def test_exact_budget_at_window_entry(self, sim, monkeypatch):
        monkeypatch.setattr(CircuitBreaker, "half_open_probes", 2)
        breaker = CircuitBreaker(
            sim, name="b", failure_threshold=1, reset_timeout=1.0
        )
        breaker.record_failure()
        sim.run(until=1.0)
        # Exactly the configured budget is granted, then denial.
        assert breaker.try_probe()
        assert breaker.try_probe()
        assert not breaker.try_probe()
        assert not breaker.allows()

    def test_budget_replenishes_each_window(self, sim):
        breaker = CircuitBreaker(
            sim, name="b", failure_threshold=1,
            reset_timeout=1.0,
        )
        breaker.record_failure()
        sim.run(until=1.0)
        assert breaker.try_probe()
        assert not breaker.try_probe()  # budget spent, still half-open
        sim.run(until=2.5)
        # A full reset_timeout later the claimed-but-unresolved probe
        # slot is replenished — the breaker cannot wedge half-open.
        assert breaker.try_probe()
        assert not breaker.try_probe()

    def test_probe_outcomes_settle_the_state(self, sim):
        breaker = CircuitBreaker(
            sim, name="b", failure_threshold=1,
            reset_timeout=1.0,
        )
        breaker.record_failure()
        sim.run(until=1.0)
        assert breaker.try_probe()
        breaker.record_failure()  # failed probe re-opens immediately
        assert breaker.current_state() is BreakerState.OPEN
        sim.run(until=2.0)
        assert breaker.try_probe()
        breaker.record_success()  # successful probe closes
        assert breaker.current_state() is BreakerState.CLOSED
        assert breaker.allows()
