"""Elastic autoscaling: token buckets, the scale law, the drain protocol.

Unit tests pin down the pure pieces (:class:`TokenBucket`,
:func:`decide_scale`), hypothesis drives the safety properties the
robustness story rests on (bucket level bounded, pool size bounded, no
opposing scale decisions within one cooldown window), and simulation
tests walk the graceful drain protocol end to end — including the
hand-off and raced-arrival refusal paths the macro experiments rarely
reach because their drains quiesce before the grace deadline.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BrokerClient, ReplyStatus
from repro.core.autoscale import (
    AutoscalerPolicy,
    Autoscaler,
    TenantThrottle,
    TokenBucket,
    decide_scale,
)
from repro.http.server import BackendWebServer
from repro.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryScraper
from repro.workload.chaos import _elastic_pool


class TestTokenBucket:
    def test_starts_full_and_spends_down(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert bucket.tokens == 3.0
        assert [bucket.allow(0.0) for _ in range(4)] == [True, True, True, False]
        assert bucket.tokens == 0.0

    def test_refill_is_proportional_and_clamped(self):
        bucket = TokenBucket(rate=2.0, burst=4.0)
        for _ in range(4):
            assert bucket.allow(0.0)
        assert bucket.allow(1.0)  # 2 tokens accrued over 1s
        assert bucket.allow(1.0)
        assert not bucket.allow(1.0)
        bucket.refill(100.0)
        assert bucket.tokens == 4.0  # clamped at burst, not 200

    def test_refused_call_consumes_nothing(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.allow(0.0)
        before = bucket.tokens
        assert not bucket.allow(0.0)
        assert bucket.tokens == before

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


# Arbitrary monotone clock with interleaved spend attempts.
bucket_events = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(events=bucket_events, rate=st.floats(min_value=0.1, max_value=20.0),
       burst=st.floats(min_value=0.5, max_value=10.0))
def test_bucket_level_always_within_bounds(events, rate, burst):
    """Satellite property: the level provably stays in [0, burst]."""
    bucket = TokenBucket(rate=rate, burst=burst)
    now = 0.0
    for gap, cost in events:
        now += gap
        bucket.allow(now, cost)
        assert 0.0 <= bucket.tokens <= burst


class TestTenantThrottle:
    def test_buckets_are_lazy_and_isolated(self):
        throttle = TenantThrottle(rate=1.0, burst=1.0)
        assert throttle.allow("a", 0.0)
        assert not throttle.allow("a", 0.0)
        # Tenant b has its own untouched bucket.
        assert throttle.allow("b", 0.0)
        assert set(throttle.buckets) == {"a", "b"}

    def test_overrides_give_named_tenants_their_own_shape(self):
        throttle = TenantThrottle(
            rate=100.0, burst=100.0, overrides={"burst": (1.0, 2.0)}
        )
        assert throttle.bucket("burst").burst == 2.0
        assert throttle.bucket("anyone").burst == 100.0
        assert [throttle.allow("burst", 0.0) for _ in range(3)] == [
            True, True, False,
        ]


class TestDecideScale:
    POLICY = AutoscalerPolicy(
        target=4.0, hysteresis=0.25, scale_out_cooldown=5.0,
        scale_in_cooldown=30.0, max_step=2, min_size=1, max_size=8,
    )

    def test_in_band_holds(self):
        decision = decide_scale(self.POLICY, 4, 4.0, 100.0, float("-inf"))
        assert (decision.action, decision.reason) == ("hold", "in-band")

    def test_scales_out_proportionally_with_step_limit(self):
        # ceil(4 * 12 / 4) = 12, but the step limit clamps to 6.
        decision = decide_scale(self.POLICY, 4, 12.0, 100.0, float("-inf"))
        assert (decision.action, decision.desired) == ("out", 6)

    def test_scales_in_proportionally(self):
        # ceil(4 * 1 / 4) = 1, step-limited to 2.
        decision = decide_scale(self.POLICY, 4, 1.0, 100.0, float("-inf"))
        assert (decision.action, decision.desired) == ("in", 2)

    def test_cooldown_holds_both_directions(self):
        out = decide_scale(self.POLICY, 4, 12.0, 3.0, 0.0)
        assert (out.action, out.reason) == ("hold", "out-cooldown")
        inward = decide_scale(self.POLICY, 4, 0.5, 20.0, 0.0)
        assert (inward.action, inward.reason) == ("hold", "in-cooldown")

    def test_alert_vetoes_scale_in_only(self):
        vetoed = decide_scale(
            self.POLICY, 4, 0.5, 100.0, float("-inf"), alert_active=True
        )
        assert (vetoed.action, vetoed.reason) == ("hold", "slo-burn-alert")
        out = decide_scale(
            self.POLICY, 4, 12.0, 100.0, float("-inf"), alert_active=True
        )
        assert out.action == "out"

    def test_clamped_at_bounds(self):
        at_max = decide_scale(self.POLICY, 8, 40.0, 100.0, float("-inf"))
        assert (at_max.action, at_max.reason) == ("hold", "at-max")
        at_min = decide_scale(self.POLICY, 1, 0.0, 100.0, float("-inf"))
        assert (at_min.action, at_min.reason) == ("hold", "at-min")

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(target=0.0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(target=1.0, hysteresis=1.0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(target=1.0, max_step=0)
        with pytest.raises(ValueError):
            AutoscalerPolicy(target=1.0, min_size=5, max_size=2)


# An arbitrary control-loop input: per-tick load signal and alert flag.
control_traces = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.booleans(),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(trace=control_traces, target=st.floats(min_value=0.5, max_value=10.0))
def test_control_loop_safety_properties(trace, target):
    """Satellite properties, under arbitrary metric sequences:

    1. the applied pool size stays within ``[min_size, max_size]``;
    2. no two *opposing* scale decisions ever land within one scale-in
       cooldown window of each other (flap suppression).
    """
    policy = AutoscalerPolicy(
        target=target, hysteresis=0.2, scale_out_cooldown=3.0,
        scale_in_cooldown=12.0, max_step=2, min_size=1, max_size=6,
    )
    size = 2
    last_scale_at = float("-inf")
    events = []  # (time, action)
    for tick, (signal, alert) in enumerate(trace):
        now = float(tick)
        decision = decide_scale(policy, size, signal, now, last_scale_at, alert)
        if decision.action != "hold":
            events.append((now, decision.action))
            size = decision.desired
            last_scale_at = now
        assert policy.min_size <= size <= policy.max_size
    for (t1, a1), (t2, a2) in zip(events, events[1:]):
        if a1 != a2:
            window = (
                policy.scale_in_cooldown if a2 == "in"
                else policy.scale_out_cooldown
            )
            assert t2 - t1 >= window, (
                f"opposing {a1}->{a2} within {t2 - t1:g}s"
            )


def _pool_fixture(sim, net, **kwargs):
    """A small elastic pool plus a client routed to every unit."""
    metrics = MetricsRegistry()
    defaults = dict(
        capacity=16, shed_policy="drop-lowest", service_time=0.2,
        backend_capacity=1, base_port=7500, prefix="t", seed=0,
    )
    defaults.update(kwargs)
    net.node("web")  # the front end every unit lives on
    pool, supervisor, listener, group, _watches = _elastic_pool(
        sim, net, metrics, **defaults
    )
    client = BrokerClient(sim, net.nodes["web"], {})
    pool.on_provision = lambda broker: client.add_route(
        broker.service, broker.address
    )
    release_unit = pool.on_retire

    def on_retire(broker):
        release_unit(broker)
        client.remove_route(broker.service)

    pool.on_retire = on_retire
    return pool, supervisor, listener, group, client


class TestDrainProtocol:
    def test_quiesced_drain_retires_and_purges_everywhere(self, sim, net):
        pool, supervisor, listener, group, client = _pool_fixture(sim, net)
        pool.scale_to(2)
        victim = pool.active[-1]

        def run():
            reply = yield from client.call(
                victim.service, "get", ("/item", {"id": 1}),
                cacheable=False, timeout=5.0,
            )
            assert reply.status is ReplyStatus.OK
            yield 1.0  # let a load report land so the listener knows it
            pool.scale_to(1)
            yield 5.0

        sim.run(sim.process(run()))
        assert victim.retired and not victim.alive
        assert pool.drains_completed == 1
        assert victim.name in pool.retired and not pool.draining
        # Shard group handed leadership off and forgot the member.
        assert victim.name not in [m.name for m in group.members]
        assert group.leader is not None and group.leader.name != victim.name
        # Listener purged immediately (the satellite-2 fix): no stale
        # routing entry survives the drain.
        assert all(
            report.broker != victim.name for report in listener.table.values()
        )
        assert pool.metrics.counter("listener.deregistered") == 1
        # Released from supervision before the heartbeats stopped, so
        # the silence is never declared a death.
        assert pool.metrics.counter("lifecycle.released") == 1
        assert supervisor.metrics.counter("lifecycle.detected") == 0

    def test_drain_hands_queued_orphans_to_live_peer(self, sim, net):
        pool, _sup, _lis, _grp, client = _pool_fixture(
            sim, net, drain_grace=0.0
        )
        pool.scale_to(2)
        victim = pool.active[0]
        statuses = []

        def call_one(i):
            reply = yield from client.call(
                victim.service, "get", ("/item", {"id": i}),
                cacheable=False, timeout=10.0,
            )
            statuses.append(reply.status)

        def run():
            for i in range(6):
                sim.process(call_one(i))
            yield 0.05  # enough to enqueue, not enough to finish
            assert len(victim.queue) > 0
            pool.drain(victim.name)
            yield 10.0

        sim.run(sim.process(run()))
        assert pool.handoffs > 0
        assert victim.retired
        # Every orphan reached a terminal outcome — answered by the
        # peer (service rewritten to its alias) or refused, never lost.
        assert len(statuses) == 6
        assert statuses.count(ReplyStatus.OK) >= pool.handoffs

    def test_drain_with_no_peer_refuses_orphans(self, sim, net):
        pool, _sup, _lis, _grp, client = _pool_fixture(
            sim, net, drain_grace=0.0
        )
        pool.scale_to(1)
        victim = pool.active[0]
        statuses = []

        def call_one(i):
            reply = yield from client.call(
                victim.service, "get", ("/item", {"id": i}),
                cacheable=False, timeout=10.0,
            )
            statuses.append((reply.status, reply.error))

        def run():
            for i in range(4):
                sim.process(call_one(i))
            yield 0.05
            pool.drain(victim.name)
            yield 10.0

        sim.run(sim.process(run()))
        assert victim.retired
        assert len(statuses) == 4
        refused = [s for s in statuses if s == (ReplyStatus.DROPPED, "drain-no-peer")]
        assert refused  # the queued orphans were refused, not lost
        assert pool.metrics.counter("autoscaler.drain.no_peer") == len(refused)

    def test_draining_broker_refuses_raced_arrivals(self, sim, net):
        pool, _sup, _lis, _grp, client = _pool_fixture(
            sim, net, service_time=1.0
        )
        pool.scale_to(2)
        victim = pool.active[-1]
        outcome = {}

        def run():
            # An in-flight slow request keeps the victim quiescing, so
            # the drain is still in progress when the raced call lands.
            sim.process(
                client.call(
                    victim.service, "get", ("/item", {"id": 1}),
                    cacheable=False, timeout=10.0,
                )
            )
            yield 0.1
            pool.drain(victim.name)
            yield 0.01  # let the drain coordinator run begin_drain
            assert victim.draining
            reply = yield from client.call(
                victim.service, "get", ("/item", {"id": 9}),
                cacheable=False, timeout=5.0,
            )
            outcome["reply"] = reply
            yield 5.0

        sim.run(sim.process(run()))
        reply = outcome["reply"]
        assert reply.status is ReplyStatus.DROPPED
        assert reply.error == "draining"
        assert victim.metrics.counter("broker.drain.refused") == 1

    def test_retired_broker_refuses_restart(self, sim, net):
        pool, _sup, _lis, _grp, _client = _pool_fixture(sim, net)
        pool.scale_to(1)
        victim = pool.active[0]

        def run():
            pool.drain(victim.name)
            yield 5.0

        sim.run(sim.process(run()))
        assert victim.retired and not victim.alive
        victim.restart()
        assert not victim.alive  # permanently gone

    def test_draining_flag_survives_crash_and_restart(self, sim, net):
        pool, _sup, _lis, _grp, client = _pool_fixture(sim, net)
        pool.scale_to(2)
        victim = pool.active[-1]

        def run():
            for i in range(4):
                sim.process(
                    client.call(
                        victim.service, "get", ("/item", {"id": i}),
                        cacheable=False, timeout=10.0,
                    )
                )
            yield 0.05
            pool.drain(victim.name)
            yield 0.05
            victim.crash()
            yield 1.0  # supervisor fail-fasts the journal meanwhile
            victim.restart()
            assert victim.draining  # still refusing new work
            yield 10.0

        sim.run(sim.process(run()))
        assert victim.retired
        assert pool.drains_completed == 1
        assert pool.metrics.counter("autoscaler.drain.interrupted") >= 1


class TestRetiredUnitIsReleased:
    """A drained unit leaves a record behind, not itself (DESIGN.md §16.2)."""

    def test_retired_units_are_unreachable_and_named_nowhere(
        self, sim, net, no_collector
    ):
        pool, supervisor, _lis, _grp, client = _pool_fixture(sim, net)
        scraper = TelemetryScraper(interval=0.5).attach(sim)
        provision, retire = pool.on_provision, pool.on_retire

        def on_provision(broker):
            provision(broker)
            scraper.watch_broker(broker)

        def on_retire(broker):
            retire(broker)
            scraper.unwatch_broker(broker)

        pool.on_provision, pool.on_retire = on_provision, on_retire
        pool.scale_to(4)
        scraper.start(until=30.0)

        def call_each():
            for broker in pool.active:
                reply = yield from client.call(
                    broker.service, "get", ("/item", {"id": 1}),
                    cacheable=False, timeout=5.0,
                )
                assert reply.status is ReplyStatus.OK

        sim.run(sim.process(call_each()))
        kept, retiring = pool.active[:2], pool.active[2:]  # drains go newest first
        hosts = {b.name: b.backends[0].adapter.address.host for b in pool.active}
        services = {b.name: b.service for b in pool.active}
        servers = {
            server.name: server for server in gc.get_objects()
            if isinstance(server, BackendWebServer) and server.sim is sim
        }
        refs = [weakref.ref(b) for b in retiring]
        refs += [weakref.ref(servers[hosts[b.name]]) for b in retiring]
        assert all(("web", hosts[b.name]) in net._routes for b in retiring)
        names = [b.name for b in retiring]
        del retiring, servers

        pool.scale_to(2)
        while pool.drains_completed < 2:
            sim.run(until=sim.now + 0.05)
        # The release scheduled nothing and drew nothing, and collecting
        # what it let go neither schedules nor draws.
        scheduled = sim.scheduled
        states = {name: rng.getstate() for name, rng in sim._rngs._streams.items()}
        assert gc.collect() > 0
        assert sim.scheduled == scheduled
        assert {
            name: rng.getstate() for name, rng in sim._rngs._streams.items()
        } == states
        assert [ref() for ref in refs] == [None] * 4

        # The pool's record still reports each unit's residue.
        clean = {"queue_depth": 0, "outstanding": 0, "journal_pending": 0}
        assert pool.retired == {name: clean for name in names}
        assert pool.every == ["t0", "t1", "t2", "t3"]
        assert pool.residue() == {name: clean for name in pool.every}

        # No collaborator names a retired unit; each still names the kept.
        scraped = [*scraper._gauges, *scraper._counter_fns, *scraper.series]
        streams = list(sim._rngs._streams)
        for broker in kept:
            assert broker.name in supervisor._watches
            assert [key for key in scraped if broker.name in key.split(".")]
            assert services[broker.name] in client.routes
            assert hosts[broker.name] in net.nodes
            assert f"{broker.name}.retry" in streams
        for name in names:
            host = hosts[name]
            assert name not in supervisor._watches
            assert not [key for key in scraped if name in key.split(".")]
            assert services[name] not in client.routes
            assert host not in net.nodes
            for table in (net._routes, net._link_rngs):
                assert not [key for key in table if host in key]
            assert not [
                stream for stream in streams
                if stream.startswith(f"{name}.") or host in stream
            ]
            with pytest.raises(LookupError):
                sim.rng(f"{name}.retry")


class TestThrottleStage:
    def test_broker_refuses_over_budget_tenant_before_admission(self, sim, net):
        throttle = TenantThrottle(
            rate=1000.0, burst=1000.0, overrides={"burst": (0.1, 2.0)}
        )
        pool, _sup, _lis, _grp, client = _pool_fixture(
            sim, net, throttle=throttle, service_time=0.01,
        )
        pool.scale_to(1)
        broker = pool.active[0]
        replies = []

        def call_one(i, tenant):
            reply = yield from client.call(
                broker.service, "get",
                ("/item", {"id": i, "tenant": tenant}),
                cacheable=False, timeout=5.0,
            )
            replies.append((tenant, reply))

        def run():
            for i in range(5):
                yield from call_one(i, "burst")
            for i in range(5):
                yield from call_one(i, "standard")

        sim.run(sim.process(run()))
        burst = [r for t, r in replies if t == "burst"]
        standard = [r for t, r in replies if t == "standard"]
        refused = [r for r in burst if r.status is ReplyStatus.DROPPED]
        assert refused and all(r.error == "throttled" for r in refused)
        assert all(r.status is ReplyStatus.OK for r in standard)
        # Refusals are counted under their own taxonomy ("we refused"),
        # never as admission drops or sheds ("we lost"), and they never
        # touched the admission ledger or the journal.
        metrics = broker.metrics
        assert metrics.counter("broker.throttle.rejected") == len(refused)
        assert metrics.counter("broker.throttle.rejected.burst") == len(refused)
        assert metrics.counter("broker.drops") == 0
        assert metrics.counter("broker.shed") == 0
        assert broker.admission.outstanding == 0


class TestAutoscalerLoop:
    def test_scales_out_under_load_and_back_when_idle(self, sim, net):
        pool, _sup, _lis, _grp, client = _pool_fixture(
            sim, net, service_time=0.3
        )
        policy = AutoscalerPolicy(
            target=1.0, hysteresis=0.2, scale_out_cooldown=0.5,
            scale_in_cooldown=2.0, max_step=2, min_size=1, max_size=4,
        )
        pool.scale_to(1)
        scaler = Autoscaler(sim, pool, policy, interval=0.25)
        scaler.start(until=40.0)

        def call_one(i):
            broker = pool.route(f"k{i}")
            yield from client.call(
                broker.service, "get", ("/item", {"id": i}),
                cacheable=False, timeout=10.0,
            )

        def run():
            for i in range(40):
                sim.process(call_one(i))
                yield 0.05
            yield 35.0  # idle tail: the pool should shrink back

        sim.run(sim.process(run()))
        sizes = [size for _, size, _, _ in scaler.history]
        assert max(sizes) > 1  # tracked the burst up
        assert pool.size == policy.min_size  # and the idle back down
        assert pool.scale_out_events >= 1
        assert pool.drains_completed >= 1
        assert all(
            policy.min_size <= size <= policy.max_size for size in sizes
        )
