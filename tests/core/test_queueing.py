"""Unit and property tests for the broker queue."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BrokerQueue, BrokerRequest
from repro.net import Address
from repro.sim import Simulation

REPLY_TO = Address("web", 50000)


def make_request(request_id: int, qos: int, txn_step: int = 0) -> BrokerRequest:
    return BrokerRequest(
        request_id=request_id,
        service="svc",
        operation="get",
        payload=request_id,
        reply_to=REPLY_TO,
        qos_level=qos,
        txn_step=txn_step,
    )


def bounded(sim, capacity: int, shed_policy: str = "reject-new", on_shed=None):
    """A queue bounded the way a broker's backpressure stage bounds it."""
    queue = BrokerQueue(sim)
    queue.configure(capacity, shed_policy, on_shed)
    return queue


class TestBrokerQueue:
    def test_priority_order_then_fcfs(self, sim):
        queue = BrokerQueue(sim)
        queue.put(make_request(1, qos=3))
        queue.put(make_request(2, qos=1))
        queue.put(make_request(3, qos=1))
        queue.put(make_request(4, qos=2))
        order = [item.request.request_id for item in queue.snapshot()]
        assert order == [2, 3, 4, 1]

    def test_get_blocks_until_put(self, sim):
        queue = BrokerQueue(sim)
        got = []

        def consumer():
            item = yield queue.get()
            got.append((sim.now, item.request.request_id))

        def producer():
            yield sim.timeout(3)
            queue.put(make_request(7, qos=1))

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(3.0, 7)]

    def test_len_excludes_claimed(self, sim):
        queue = BrokerQueue(sim)
        queue.put(make_request(1, qos=1))
        queue.put(make_request(2, qos=1))
        assert len(queue) == 2
        taken = queue.take_matching(lambda item: True, limit=1)
        assert len(taken) == 1
        assert len(queue) == 1

    def test_take_matching_respects_predicate_and_limit(self, sim):
        queue = BrokerQueue(sim)
        for i in range(6):
            queue.put(make_request(i, qos=1 + i % 2))
        even = queue.take_matching(
            lambda item: item.request.payload % 2 == 0, limit=2
        )
        assert [item.request.payload for item in even] == [0, 2]
        remaining = [item.request.payload for item in queue.snapshot()]
        assert 0 not in remaining and 2 not in remaining

    def test_cancelled_get_skipped(self, sim):
        queue = BrokerQueue(sim)
        first = queue.get()
        second = queue.get()
        queue.cancel(first)
        queue.put(make_request(1, qos=1))
        sim.run()
        assert not first.triggered
        assert second.processed
        assert second.value.request.request_id == 1

    def test_reprioritize_resorts(self, sim):
        boost = {"on": False}

        def priority(request: BrokerRequest) -> int:
            if boost["on"] and request.txn_step >= 2:
                return 1
            return request.qos_level

        queue = BrokerQueue(sim, priority_of=priority)
        queue.put(make_request(1, qos=3, txn_step=2))
        queue.put(make_request(2, qos=2))
        assert [i.request.request_id for i in queue.snapshot()] == [2, 1]
        boost["on"] = True
        queue.reprioritize()
        assert [i.request.request_id for i in queue.snapshot()] == [1, 2]

    def test_dispatch_to_multiple_getters_in_order(self, sim):
        queue = BrokerQueue(sim)
        served = []

        def consumer(tag):
            item = yield queue.get()
            served.append((tag, item.request.request_id))

        sim.process(consumer("c1"))
        sim.process(consumer("c2"))
        queue.put(make_request(1, qos=1))
        queue.put(make_request(2, qos=1))
        sim.run()
        assert served == [("c1", 1), ("c2", 2)]


class TestBoundedQueue:
    def shed_log(self):
        log = []

        def on_shed(item, policy):
            log.append((item.request.request_id, policy))

        return log, on_shed

    def test_configure_rejects_bad_capacity_and_policy(self, sim):
        queue = BrokerQueue(sim)
        with pytest.raises(ValueError):
            queue.configure(0)
        with pytest.raises(ValueError):
            queue.configure(4, shed_policy="drop-random")

    def test_exact_capacity_admits_boundary_arrival(self, sim):
        queue = bounded(sim, 3)
        for i in range(3):
            assert queue.put(make_request(i, qos=1)) is not None
        assert len(queue) == 3
        assert queue.peak_depth == 3
        assert queue.shed_count == 0

    def test_capacity_one_reject_new(self, sim):
        queue = bounded(sim, 1, shed_policy="reject-new")
        assert queue.put(make_request(1, qos=3)) is not None
        assert queue.put(make_request(2, qos=1)) is None
        assert [i.request.request_id for i in queue.snapshot()] == [1]
        assert queue.shed_count == 1

    def test_capacity_one_drop_oldest_evicts_sole_occupant(self, sim):
        log, on_shed = self.shed_log()
        queue = bounded(sim, 1, shed_policy="drop-oldest", on_shed=on_shed)
        queue.put(make_request(1, qos=1))
        assert queue.put(make_request(2, qos=3)) is not None
        assert log == [(1, "drop-oldest")]
        assert [i.request.request_id for i in queue.snapshot()] == [2]
        assert len(queue) == 1

    def test_drop_oldest_evicts_by_arrival_not_priority(self, sim):
        log, on_shed = self.shed_log()
        queue = bounded(sim, 2, shed_policy="drop-oldest", on_shed=on_shed)
        queue.put(make_request(1, qos=1))
        queue.put(make_request(2, qos=3))
        queue.put(make_request(3, qos=2))
        # The premium request arrived first, so it is the victim.
        assert log == [(1, "drop-oldest")]
        assert [i.request.request_id for i in queue.snapshot()] == [3, 2]

    def test_drop_lowest_evicts_strictly_worse_only(self, sim):
        log, on_shed = self.shed_log()
        queue = bounded(sim, 2, shed_policy="drop-lowest", on_shed=on_shed)
        queue.put(make_request(1, qos=2))
        queue.put(make_request(2, qos=3))
        # A premium arrival evicts the worst queued request.
        assert queue.put(make_request(3, qos=1)) is not None
        assert log == [(2, "drop-lowest")]
        # An equal-class arrival is rejected (FCFS within a class).
        assert queue.put(make_request(4, qos=2)) is None
        # A worse-than-everything arrival is rejected too.
        assert queue.put(make_request(5, qos=3)) is None
        assert [i.request.request_id for i in queue.snapshot()] == [3, 1]
        assert queue.shed_count == 3

    def test_drop_lowest_victim_is_youngest_of_worst_class(self, sim):
        log, on_shed = self.shed_log()
        queue = bounded(sim, 3, shed_policy="drop-lowest", on_shed=on_shed)
        queue.put(make_request(1, qos=3))
        queue.put(make_request(2, qos=3))
        queue.put(make_request(3, qos=2))
        queue.put(make_request(4, qos=1))
        assert log == [(2, "drop-lowest")]

    def test_claimed_items_do_not_count_toward_capacity(self, sim):
        queue = bounded(sim, 2, shed_policy="reject-new")
        queue.put(make_request(1, qos=1))
        queue.put(make_request(2, qos=1))
        taken = queue.take_matching(lambda item: True, limit=1)
        assert [i.request.request_id for i in taken] == [1]
        # The claimed tombstone freed a slot.
        assert queue.put(make_request(3, qos=1)) is not None
        assert queue.put(make_request(4, qos=1)) is None

    def test_take_matching_skips_shed_victims(self, sim):
        queue = bounded(sim, 2, shed_policy="drop-oldest")
        queue.put(make_request(1, qos=1))
        queue.put(make_request(2, qos=1))
        queue.put(make_request(3, qos=1))  # evicts request 1
        taken = queue.take_matching(lambda item: True, limit=10)
        assert [i.request.request_id for i in taken] == [2, 3]

    def test_cancelled_getter_with_full_queue(self, sim):
        queue = bounded(sim, 1, shed_policy="reject-new")
        pending = queue.get()
        queue.cancel(pending)
        # The cancelled getter must not consume the arrival...
        assert queue.put(make_request(1, qos=1)) is not None
        assert not pending.triggered
        # ...and the queue is genuinely full afterwards.
        assert queue.put(make_request(2, qos=1)) is None

    def test_waiting_getter_bypasses_bound(self, sim):
        queue = bounded(sim, 1, shed_policy="reject-new")
        queue.put(make_request(1, qos=1))
        served = []

        def consumer():
            item = yield queue.get()
            served.append(item.request.request_id)

        sim.process(consumer())
        sim.run()
        # The consumer drained the queue; a new arrival is admitted.
        assert served == [1]
        assert queue.put(make_request(2, qos=1)) is not None

    def test_reset_preserves_bound_and_statistics(self, sim):
        queue = bounded(sim, 2, shed_policy="reject-new")
        queue.put(make_request(1, qos=1))
        queue.put(make_request(2, qos=1))
        assert queue.put(make_request(3, qos=1)) is None
        orphans = queue.reset()
        assert [i.request.request_id for i in orphans] == [1, 2]
        assert all(item.claimed for item in orphans)
        assert len(queue) == 0
        assert queue.capacity == 2
        assert queue.shed_count == 1
        assert queue.peak_depth == 2
        # Still bounded after the crash.
        queue.put(make_request(4, qos=1))
        queue.put(make_request(5, qos=1))
        assert queue.put(make_request(6, qos=1)) is None


class TestQueueProperties:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=3), st.integers()),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_no_request_lost_or_duplicated(self, arrivals):
        sim = Simulation()
        queue = BrokerQueue(sim)
        for index, (qos, _) in enumerate(arrivals):
            queue.put(make_request(index, qos=qos))
        drained = []
        while len(queue):
            drained.extend(queue.take_matching(lambda item: True, limit=1))
        ids = [item.request.request_id for item in drained]
        assert sorted(ids) == list(range(len(arrivals)))

    @given(
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=60)
    )
    @settings(max_examples=60)
    def test_service_order_is_priority_then_arrival(self, levels):
        sim = Simulation()
        queue = BrokerQueue(sim)
        for index, qos in enumerate(levels):
            queue.put(make_request(index, qos=qos))
        order = [item.request for item in queue.snapshot()]
        keys = [(r.qos_level, r.request_id) for r in order]
        assert keys == sorted(keys)
