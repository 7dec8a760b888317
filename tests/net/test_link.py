"""Unit tests for links and size estimation."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.net import Link, estimate_size


class TestLink:
    def test_validation(self):
        with pytest.raises(ValueError):
            Link(latency=-1)
        with pytest.raises(ValueError):
            Link(jitter=-0.1)
        with pytest.raises(ValueError):
            Link(bandwidth=0)

    def test_delay_without_jitter_is_deterministic(self):
        link = Link(latency=0.01, bandwidth=1000)
        rng = random.Random(0)
        assert link.delay(500, rng) == pytest.approx(0.01 + 0.5)

    def test_unlimited_bandwidth_ignores_size(self):
        link = Link(latency=0.02, bandwidth=None)
        rng = random.Random(0)
        assert link.delay(10**9, rng) == pytest.approx(0.02)

    def test_jitter_bounded(self):
        link = Link(latency=0.01, jitter=0.005)
        rng = random.Random(1)
        for _ in range(100):
            delay = link.delay(0, rng)
            assert 0.01 <= delay <= 0.015

    def test_archetypes_ordering(self):
        lan, wan = Link.lan(), Link.wan()
        assert lan.latency < wan.latency
        assert (lan.bandwidth or 0) > (wan.bandwidth or 0)
        assert Link.loopback().latency < lan.latency


class TestEstimateSize:
    def test_primitives(self):
        assert estimate_size(None) == 1
        assert estimate_size(True) == 1
        assert estimate_size(42) == 8
        assert estimate_size(3.14) == 8
        assert estimate_size("hello") == 5
        assert estimate_size(b"abc") == 3

    def test_unicode_counts_encoded_bytes(self):
        assert estimate_size("héllo") == 6

    def test_containers_sum_members(self):
        assert estimate_size([1, 2, 3]) == 8 + 24
        assert estimate_size({"k": "vv"}) == 8 + 1 + 2

    def test_dataclass_sums_fields(self):
        @dataclass
        class Point:
            x: int
            y: int

        assert estimate_size(Point(1, 2)) == 8 + 16

    def test_nested_structures(self):
        payload = {"rows": [("a", 1), ("b", 2)]}
        assert estimate_size(payload) > 20

    def test_opaque_object_uses_repr_floor(self):
        class Opaque:
            pass

        assert estimate_size(Opaque()) >= 8
