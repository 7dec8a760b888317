"""Unit tests for Resource, PriorityResource, and Store."""

from __future__ import annotations

import pytest

from repro.errors import SimError
from repro.sim import Resource, Store


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_grants_up_to_capacity(self, sim):
        res = Resource(sim, capacity=2)
        r1, r2, r3 = res.request(), res.request(), res.request()
        sim.run()
        assert r1.processed and r2.processed
        assert not r3.triggered
        assert res.in_use == 2
        assert res.queued == 1

    def test_release_grants_next_waiter(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        sim.run()
        assert not r2.triggered
        res.release(r1)
        sim.run()
        assert r2.processed
        assert res.in_use == 1

    def test_release_unowned_raises(self, sim):
        res = Resource(sim, capacity=1)
        req = res.request()
        other = res.request()
        sim.run()
        with pytest.raises(SimError):
            res.release(other)
        res.release(req)

    def test_cancel_waiting_request(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()
        waiter = res.request()
        third = res.request()
        sim.run()
        res.cancel(waiter)
        res.release(holder)
        sim.run()
        assert third.processed
        assert not waiter.triggered

    def test_cancel_granted_request_releases(self, sim):
        res = Resource(sim, capacity=1)
        holder = res.request()
        waiter = res.request()
        sim.run()
        res.cancel(holder)  # acts as release
        sim.run()
        assert waiter.processed

    def test_fcfs_ordering(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(tag):
            req = res.request()
            yield req
            order.append(tag)
            yield sim.timeout(1)
            res.release(req)

        for tag in "abcd":
            sim.process(worker(tag))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_priority_ordering(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(tag, priority):
            yield sim.timeout(0)  # let the holder grab the slot first
            req = res.request(priority=priority)
            yield req
            order.append(tag)
            yield sim.timeout(1)
            res.release(req)

        holder = res.request()
        sim.process(worker("low", 5))
        sim.process(worker("high", 1))
        sim.run(until=0.5)
        res.release(holder)
        sim.run()
        assert order == ["high", "low"]

    def test_never_exceeds_capacity_under_churn(self, sim):
        res = Resource(sim, capacity=3)
        peak = []

        def worker(i):
            req = res.request()
            yield req
            peak.append(res.in_use)
            yield sim.timeout(0.1 * (i % 4 + 1))
            res.release(req)

        for i in range(25):
            sim.process(worker(i))
        sim.run()
        assert max(peak) <= 3
        assert len(peak) == 25


class TestStore:
    def test_put_get_fifo(self, sim):
        store = Store(sim)
        for item in (1, 2, 3):
            store.put(item)
        results = []

        def getter():
            for _ in range(3):
                value = yield store.get()
                results.append(value)

        sim.process(getter())
        sim.run()
        assert results == [1, 2, 3]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        results = []

        def getter():
            value = yield store.get()
            results.append((sim.now, value))

        def putter():
            yield sim.timeout(5)
            store.put("late")

        sim.process(getter())
        sim.process(putter())
        sim.run()
        assert results == [(5.0, "late")]

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        log = []

        def putter():
            yield store.put("a")
            log.append(("a", sim.now))
            yield store.put("b")
            log.append(("b", sim.now))

        def getter():
            yield sim.timeout(4)
            item = yield store.get()
            log.append((item, sim.now))

        sim.process(putter())
        sim.process(getter())
        sim.run()
        assert ("a", 0.0) in log
        assert ("b", 4.0) in log

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_cancel_pending_get(self, sim):
        store = Store(sim)
        g1 = store.get()
        g2 = store.get()
        store.cancel(g1)
        store.put("only")
        sim.run()
        assert not g1.triggered
        assert g2.processed and g2.value == "only"

    def test_len_tracks_buffer(self, sim):
        store = Store(sim)
        store.put("x")
        store.put("y")
        sim.run()
        assert len(store) == 2

    def test_multiple_getters_served_in_order(self, sim):
        store = Store(sim)
        results = []

        def getter(tag):
            value = yield store.get()
            results.append((tag, value))

        sim.process(getter("first"))
        sim.process(getter("second"))

        def putter():
            yield sim.timeout(1)
            store.put(100)
            yield sim.timeout(1)
            store.put(200)

        sim.process(putter())
        sim.run()
        assert results == [("first", 100), ("second", 200)]
