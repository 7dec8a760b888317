"""Tests for workload generators."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.protocol import ReplyStatus
from repro.metrics import MetricsRegistry
from repro.sim import Simulation
from repro.workload import (
    OUTCOMES,
    BurstClient,
    ClosedLoopClient,
    OpenLoopGenerator,
    OutcomeTally,
    zipf_sampler,
)


def make_request_factory(sim, duration):
    def factory(_client, _iteration):
        yield sim.timeout(duration)

    return factory


class TestClosedLoopClient:
    def test_loops_until_deadline(self, sim):
        client = ClosedLoopClient(sim, "c", make_request_factory(sim, 1.0))
        client.start(until=10.0)
        sim.run()
        assert client.completed == 10
        assert client.response_times.mean == pytest.approx(1.0)

    def test_think_time_slows_loop(self, sim):
        client = ClosedLoopClient(
            sim, "c", make_request_factory(sim, 1.0), think_time=1.0
        )
        client.start(until=10.0)
        sim.run()
        assert client.completed == 5

    def test_start_delay(self, sim):
        client = ClosedLoopClient(
            sim, "c", make_request_factory(sim, 1.0), start_delay=5.0
        )
        client.start(until=10.0)
        sim.run()
        assert client.completed == 5

    def test_errors_counted_and_loop_continues(self, sim):
        calls = {"n": 0}

        def flaky(_client, iteration):
            calls["n"] += 1
            yield sim.timeout(1.0)
            if iteration % 2 == 0:
                raise RuntimeError("flaky")

        client = ClosedLoopClient(sim, "c", flaky)
        client.start(until=10.0)
        sim.run()
        assert client.errors == 5
        assert client.completed == 5
        assert calls["n"] == 10


class TestBurstClient:
    def test_respects_concurrency(self, sim):
        active = {"now": 0, "peak": 0}

        def tracked(_client, _index):
            active["now"] += 1
            active["peak"] = max(active["peak"], active["now"])
            yield sim.timeout(1.0)
            active["now"] -= 1

        burst = BurstClient(sim, "b", tracked, total=10, concurrency=3)
        stats = sim.run(burst.run())
        assert stats.count == 10
        assert active["peak"] == 3

    def test_all_requests_complete(self, sim):
        burst = BurstClient(sim, "b", make_request_factory(sim, 0.5), total=7, concurrency=7)
        stats = sim.run(burst.run())
        assert stats.count == 7
        assert sim.now == pytest.approx(0.5)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            BurstClient(sim, "b", make_request_factory(sim, 1), total=0, concurrency=1)


class TestOpenLoopGenerator:
    def test_rate_approximately_honored(self):
        sim = Simulation(seed=5)
        generator = OpenLoopGenerator(sim, "g", make_request_factory(sim, 0.01), rate=50.0)
        generator.start(until=20.0)
        sim.run()
        assert 800 < generator.issued < 1200  # 50/s for 20s = 1000 expected

    def test_arrivals_independent_of_completions(self):
        sim = Simulation(seed=5)
        # Each request takes far longer than the inter-arrival gap.
        generator = OpenLoopGenerator(sim, "g", make_request_factory(sim, 100.0), rate=10.0)
        generator.start(until=5.0)
        sim.run(until=5.0)
        assert generator.issued > 20

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            OpenLoopGenerator(sim, "g", make_request_factory(sim, 1), rate=0)


class TestZipfSampler:
    def test_rank_zero_most_popular(self):
        sim = Simulation(seed=3)
        sample = zipf_sampler(sim.rng("zipf"), n=100, skew=1.0)
        counts = [0] * 100
        for _ in range(20_000):
            counts[sample()] += 1
        assert counts[0] > counts[10] > counts[99]
        # Zipf(1): rank 0 should get roughly 1/H(100) ~ 19% of draws.
        assert 0.12 < counts[0] / 20_000 < 0.30

    def test_all_ranks_in_range(self):
        sim = Simulation(seed=3)
        sample = zipf_sampler(sim.rng("z2"), n=5, skew=2.0)
        assert all(0 <= sample() < 5 for _ in range(1000))

    def test_single_item(self):
        sim = Simulation(seed=3)
        sample = zipf_sampler(sim.rng("z3"), n=1)
        assert sample() == 0

    def test_validation(self):
        sim = Simulation(seed=3)
        with pytest.raises(ValueError):
            zipf_sampler(sim.rng("z4"), n=0)

    @given(
        n=st.integers(min_value=1, max_value=60),
        skew=st.floats(min_value=0.0, max_value=3.0),
        u=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=1.0, max_value=2.0),
        ),
    )
    @example(n=1, skew=1.0, u=0.0)
    @example(n=7, skew=1.0, u=0.0)
    @example(n=7, skew=1.0, u=1.5)
    @example(n=2, skew=0.0, u=0.5)  # u equal to a CDF entry: that rank
    def test_rank_matches_a_linear_scan_of_the_cdf(self, n, skew, u):
        # The same single draw must pick the smallest rank whose
        # cumulative weight reaches u, the last rank when none does.
        weights = [1.0 / (rank + 1) ** skew for rank in range(n)]
        total = math.fsum(weights)
        cumulative, acc = [], 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)
        expected = next(
            (rank for rank in range(n - 1) if cumulative[rank] >= u), n - 1
        )

        class StubRng:
            draws = 0

            def random(self):
                self.draws += 1
                return u

        rng = StubRng()
        assert zipf_sampler(rng, n, skew)() == expected
        assert rng.draws == 1


class TestOutcomeTally:
    @pytest.mark.parametrize(
        "status, error, bucket",
        [
            (ReplyStatus.OK.value, "", "ok"),
            (ReplyStatus.DEGRADED.value, "", "degraded"),
            (ReplyStatus.DROPPED.value, "", "dropped"),
            (ReplyStatus.DROPPED.value, "busy", "dropped"),
            (ReplyStatus.DROPPED.value, "throttled", "throttled"),
            (ReplyStatus.ERROR.value, "", "errors"),
            ("timeout", "", "timeouts"),
            ("no-such-status", "", "errors"),
            # A refusal tag only means something on a DROPPED reply.
            (ReplyStatus.OK.value, "throttled", "ok"),
            ("timeout", "throttled", "timeouts"),
        ],
    )
    def test_each_status_lands_in_exactly_one_bucket(self, status, error, bucket):
        tally = OutcomeTally()
        assert tally.add(status, error) == bucket
        assert tally.counts == {name: int(name == bucket) for name in OUTCOMES}
        assert tally.requests == 1

    def test_every_reply_status_has_a_bucket(self):
        tally = OutcomeTally()
        for status in ReplyStatus:
            tally.add(status.value)
        assert tally.requests == len(ReplyStatus)
        assert tally.answered == 2
        assert tally.counts["ok"] == tally.counts["degraded"] == 1

    def test_fields_are_the_result_ledger_without_refusals(self):
        tally = OutcomeTally()
        for status, error in (("ok", ""), ("dropped", "throttled"), ("timeout", "")):
            tally.add(status, error)
        assert tally.fields() == {
            "requests": 3, "ok": 1, "degraded": 0, "dropped": 0,
            "timeouts": 1, "errors": 0,
        }
        assert tally.counts["throttled"] == 1

    def test_counters_appear_only_when_incremented(self):
        metrics = MetricsRegistry()
        tally = OutcomeTally(metrics, fast_threshold=0.5)
        tally.add("ok", elapsed=0.1)
        assert metrics.counters("workload.") == {
            "workload.answered": 1.0,
            "workload.done": 1.0,
            "workload.fast": 1.0,
            "workload.ok": 1.0,
        }
        tally.add("degraded", elapsed=0.9)
        tally.add("dropped", "throttled")
        tally.add("timeout")
        assert metrics.counters("workload.") == {
            "workload.answered": 2.0,
            "workload.degraded": 1.0,
            "workload.done": 4.0,
            "workload.fast": 1.0,
            "workload.ok": 1.0,
            "workload.throttled": 1.0,
            "workload.timeout": 1.0,
        }
