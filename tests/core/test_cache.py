"""Unit and property tests for the result cache."""

from __future__ import annotations

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ResultCache


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock():
    return ManualClock()


class TestResultCache:
    def test_put_get(self, clock):
        cache = ResultCache(capacity=4, ttl=10, clock=clock)
        cache.put("k", "value")
        assert cache.get("k") == "value"
        assert cache.stats.hits == 1

    def test_miss_counts(self, clock):
        cache = ResultCache(clock=clock)
        assert cache.get("absent") is None
        assert cache.stats.misses == 1

    def test_ttl_expiry(self, clock):
        cache = ResultCache(ttl=5, clock=clock)
        cache.put("k", "v")
        clock.now = 4.9
        assert cache.get("k") == "v"
        clock.now = 5.0
        assert cache.get("k") is None
        assert "k" not in cache

    def test_per_entry_ttl_override(self, clock):
        cache = ResultCache(ttl=5, clock=clock)
        cache.put("long", "v", ttl=100)
        clock.now = 50
        assert cache.get("long") == "v"

    def test_stale_entry_served_via_get_stale(self, clock):
        cache = ResultCache(ttl=5, clock=clock)
        cache.put("k", "v")
        clock.now = 8.0
        assert cache.get("k") is None
        value, age = cache.get_stale("k")
        assert value == "v"
        assert age == pytest.approx(8.0)

    def test_lru_eviction_order(self, clock):
        cache = ResultCache(capacity=2, ttl=100, clock=clock)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_invalidate(self, clock):
        cache = ResultCache(clock=clock)
        cache.put("k", "v")
        assert cache.invalidate("k")
        assert not cache.invalidate("k")
        assert cache.get("k") is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
        with pytest.raises(ValueError):
            ResultCache(ttl=0)

    def test_hit_ratio(self, clock):
        cache = ResultCache(clock=clock)
        cache.put("k", "v")
        cache.get("k")
        cache.get("miss")
        assert cache.stats.hit_ratio == pytest.approx(0.5)


class TestCacheLruProperty:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["get", "put"]),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=200,
        ),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=60)
    def test_matches_reference_lru_model(self, operations, capacity):
        """The cache agrees with a straightforward OrderedDict LRU model."""
        cache = ResultCache(capacity=capacity, ttl=1e9)
        model: "OrderedDict[str, int]" = OrderedDict()
        for op, key_int in operations:
            key = f"k{key_int}"
            if op == "put":
                cache.put(key, key_int)
                model[key] = key_int
                model.move_to_end(key)
                while len(model) > capacity:
                    model.popitem(last=False)
            else:
                got = cache.get(key)
                expected = model.get(key)
                if expected is not None:
                    model.move_to_end(key)
                assert got == expected
        assert len(cache) == len(model)
        assert all(key in cache for key in model)
