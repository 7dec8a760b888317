"""Integration tests for the paper's two testbeds (scaled-down runs)."""

from __future__ import annotations

import pytest

from repro.workload import run_clustering_experiment, run_qos_experiment
from repro.workload import scenarios
from repro.workload.scenarios import run_sharded_qos_experiment


@pytest.fixture
def ten_requests(monkeypatch):
    """A 10-request burst instead of the Figure-7 testbed's 40."""
    monkeypatch.setattr(scenarios, "_FIG7_REQUESTS", 10)


class TestClusteringScenario:
    def test_degree_one_serves_every_request_individually(self, ten_requests):
        result = run_clustering_experiment(degree=1, seed=1)
        assert result.errors == 0
        assert result.backend_calls == 10
        assert result.mean_response_time > 0

    def test_clustering_reduces_backend_calls(self, ten_requests):
        result = run_clustering_experiment(degree=5, seed=1)
        assert result.errors == 0
        assert result.backend_calls < 10

    def test_moderate_clustering_beats_no_clustering(self):
        # The headline Figure-7 effect at its design point (degree ~= n/capacity).
        unclustered = run_clustering_experiment(degree=1, seed=1)
        clustered = run_clustering_experiment(degree=8, seed=1)
        assert clustered.mean_response_time < unclustered.mean_response_time

    def test_extreme_clustering_overshoots(self):
        # Serializing all 40 requests into one giant call is slower than
        # the sweet spot — the right side of the U.
        sweet = run_clustering_experiment(degree=8, seed=1)
        extreme = run_clustering_experiment(degree=40, seed=1)
        assert extreme.mean_response_time > sweet.mean_response_time

    def test_determinism(self, ten_requests):
        a = run_clustering_experiment(degree=4, seed=7)
        b = run_clustering_experiment(degree=4, seed=7)
        assert a.mean_response_time == b.mean_response_time

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            run_clustering_experiment(degree=0)


class TestQosScenario:
    def test_api_mode_has_no_differentiation(self):
        result = run_qos_experiment(9, mode="api", duration=40.0, seed=3)
        # All classes complete everything at full fidelity.
        assert result.full_fidelity == result.completions
        times = [result.mean_response_of(level) for level in (1, 2, 3)]
        assert max(times) - min(times) < 1.0

    def test_light_load_no_drops(self):
        result = run_qos_experiment(9, mode="broker", duration=40.0, seed=3)
        for broker_drops in result.drop_ratios.values():
            assert all(ratio == 0.0 for ratio in broker_drops.values())

    def test_overload_drops_ordered_by_class(self):
        result = run_qos_experiment(45, mode="broker", duration=60.0, seed=3)
        total_drops = {
            level: sum(d[level] for d in result.drop_ratios.values())
            for level in (1, 2, 3)
        }
        assert total_drops[3] > 0
        assert total_drops[3] >= total_drops[2] >= total_drops[1]

    def test_overload_response_times_ordered_by_class(self):
        result = run_qos_experiment(45, mode="broker", duration=60.0, seed=3)
        # Full-service class 1 keeps the longest (highest-fidelity)
        # processing time; shed class 3 answers fastest on average.
        assert result.mean_response_of(1) > result.mean_response_of(3)

    def test_lower_classes_complete_more_under_overload(self):
        result = run_qos_experiment(45, mode="broker", duration=60.0, seed=3)
        assert result.completions[3] > result.completions[1]

    def test_api_scales_linearly_broker_saturates(self):
        api_small = run_qos_experiment(9, mode="api", duration=40.0, seed=3)
        api_large = run_qos_experiment(36, mode="api", duration=40.0, seed=3)
        ratio = api_large.mean_response_time / api_small.mean_response_time
        assert ratio > 2.0  # closed-loop FCFS: roughly proportional to N

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            run_qos_experiment(9, mode="magic")
        with pytest.raises(ValueError):
            run_qos_experiment(2, mode="api")


class TestCentralizedQosScenario:
    def test_light_load_admits_everything(self):
        result = run_qos_experiment(9, mode="centralized", duration=40.0, seed=3)
        assert sum(result.frontend_rejections.values()) == 0
        assert result.full_fidelity == result.completions

    def test_overload_rejects_at_the_front_door(self):
        result = run_qos_experiment(45, mode="centralized", duration=60.0, seed=3)
        rejections = result.frontend_rejections
        assert sum(rejections.values()) > 100
        # Rejections class-ordered; brokers themselves shed nothing.
        assert rejections[3] >= rejections[2] >= rejections[1]
        for drops in result.drop_ratios.values():
            assert all(ratio == 0.0 for ratio in drops.values())

    def test_aborted_before_processing(self):
        """Rejected requests never consume backend capacity: full-fidelity
        throughput stays near the broker mode's."""
        centralized = run_qos_experiment(45, mode="centralized", duration=60.0, seed=3)
        broker = run_qos_experiment(45, mode="broker", duration=60.0, seed=3)
        served_c = sum(centralized.full_fidelity.values())
        served_b = sum(broker.full_fidelity.values())
        assert served_c > 0.5 * served_b


class TestCacheTierScenario:
    def test_tier_reduces_backend_load(self):
        from repro.workload import run_cache_tier_experiment

        base = run_cache_tier_experiment(
            n_clients=30, brokers=3, duration=3.0, tier=False, seed=7
        )
        tier = run_cache_tier_experiment(
            n_clients=30, brokers=3, duration=3.0, tier=True, seed=7
        )
        assert base.errors == 0 and tier.errors == 0
        assert not base.tier_enabled and tier.tier_enabled
        # The headline effect: the shared tier absorbs backend refetches
        # that per-broker caches each pay for separately.
        assert tier.backend_queries < base.backend_queries
        assert tier.tier_hits > 0
        assert tier.view_hits > 0
        assert base.tier_hits == 0 and base.view_hits == 0
        # Write-behind ran and the flush queue drained cleanly.
        assert tier.write_behind_flushed > 0
        assert 0.0 < tier.tier_hit_ratio <= 1.0

    def test_accounting_is_consistent(self):
        from repro.workload import run_cache_tier_experiment

        result = run_cache_tier_experiment(
            n_clients=20, brokers=2, duration=2.0, tier=True, seed=5
        )
        assert result.requests >= result.ok
        assert result.from_cache <= result.ok
        assert result.local_hits + result.local_misses > 0
        assert result.latency.count == result.ok

    def test_deterministic_at_fixed_seed(self):
        from repro.workload import run_cache_tier_experiment

        first = run_cache_tier_experiment(
            n_clients=20, brokers=2, duration=2.0, tier=True, seed=9
        )
        second = run_cache_tier_experiment(
            n_clients=20, brokers=2, duration=2.0, tier=True, seed=9
        )
        assert first.backend_queries == second.backend_queries
        assert first.requests == second.requests
        assert first.latency.mean == second.latency.mean


class TestFleetWideHistograms:
    """Satellite: LatencyHistogram.merge() through the parallel driver."""

    KW = dict(shards=4, replicas=1, duration=30.0, seed=11)

    def test_serial_run_populates_per_class_histograms(self):
        result = run_sharded_qos_experiment(12, workers=1, **self.KW)
        assert set(result.latency_histograms) == set(result.completions)
        for level, histogram in result.latency_histograms.items():
            assert histogram.count == result.response_times[level].count

    def test_parallel_merge_is_consistent_with_own_stats(self):
        # The partitioned run is not a serial replay (see DESIGN.md
        # §14), so the fleet-wide merged histogram is checked against
        # the same run's SummaryStats, not the serial histograms.
        parallel = run_sharded_qos_experiment(12, workers=2, **self.KW)
        assert set(parallel.latency_histograms) == set(parallel.completions)
        for level, histogram in parallel.latency_histograms.items():
            stats = parallel.response_times[level]
            assert histogram.count == stats.count
            assert histogram._min == pytest.approx(stats.minimum)
            assert histogram.maximum == pytest.approx(stats.maximum)

    def test_histogram_p99_tracks_summary_stats(self):
        result = run_sharded_qos_experiment(12, workers=1, **self.KW)
        for level, stats in result.response_times.items():
            p99 = result.latency_histograms[level].p99
            # Bucket-interpolated p99 must bracket the exact range.
            assert stats.minimum <= p99 <= stats.maximum * 1.01

    def test_worker_count_does_not_change_histogram(self):
        two = run_sharded_qos_experiment(12, workers=2, **self.KW)
        three = run_sharded_qos_experiment(12, workers=3, **self.KW)
        for level in two.latency_histograms:
            assert list(two.latency_histograms[level].counts) == list(
                three.latency_histograms[level].counts
            )


class TestTelemetryWiring:
    def test_parallel_run_with_telemetry_rejected(self):
        from repro.obs import TelemetryScraper

        with pytest.raises(ValueError, match="workers=1"):
            run_sharded_qos_experiment(
                12,
                workers=2,
                telemetry=TelemetryScraper(),
                **TestFleetWideHistograms.KW,
            )

    def test_serial_sharded_run_scrapes_broker_and_listener(self):
        from repro.obs import TelemetryScraper

        scraper = TelemetryScraper(interval=1.0)
        run_sharded_qos_experiment(
            12,
            mode="centralized",
            workers=1,
            telemetry=scraper,
            **TestFleetWideHistograms.KW,
        )
        names = sorted(scraper.series)
        assert any(n.startswith("broker.load.") for n in names)
        assert any(n.startswith("shard.load.") for n in names)
        assert scraper.scrapes == 30
