"""Broker lifecycle: crash/restart, the recovery journal, supervision."""

from __future__ import annotations

import pytest

from repro.core import (
    BrokerClient,
    BrokerSupervisor,
    HttpAdapter,
    QoSPolicy,
    RecoveryJournal,
    ReplyStatus,
    ServiceBroker,
)
from repro.errors import BrokerTimeout
from repro.http import BackendWebServer


@pytest.fixture
def backend(sim, net):
    server = BackendWebServer(sim, net.node("origin"), max_clients=2)

    def cgi(server, request):
        yield server.sim.timeout(0.1)
        return "ok"

    server.add_cgi("/work", cgi)
    return server


def make_broker(sim, net, backend, **kwargs):
    node = net.node("webhost")
    defaults = dict(
        service="web",
        adapters=[HttpAdapter(sim, node, backend.address, name="origin")],
        qos=QoSPolicy(levels=3, threshold=10_000),
        dispatchers=1,
        pool_size=1,
    )
    defaults.update(kwargs)
    broker = ServiceBroker(sim, node, **defaults)
    client = BrokerClient(sim, node, {"web": broker.address})
    return broker, client


class TestCrashRestart:
    def test_requests_sent_to_dead_broker_vanish(self, sim, net, backend):
        broker, client = make_broker(sim, net, backend)
        outcome = {}

        def run():
            broker.crash()
            assert not broker.alive
            try:
                yield from client.call(
                    "web", "get", ("/work", {}), cacheable=False, timeout=1.0
                )
            except BrokerTimeout:
                outcome["timed_out"] = True

        sim.run(sim.process(run()))
        assert outcome["timed_out"]
        assert broker.metrics.counter("broker.crashes") == 1

    def test_crash_discards_backlog_and_ledger(self, sim, net, backend):
        broker, client = make_broker(sim, net, backend)

        def driver():
            for i in range(3):
                sim.process(
                    client.call(
                        "web", "get", ("/work", {"i": i}),
                        cacheable=False, timeout=5.0,
                    )
                )
            yield sim.timeout(0.05)
            assert broker.outstanding > 0
            broker.crash()
            assert len(broker.queue) == 0
            assert broker.outstanding == 0

        sim.run(sim.process(driver()))

    def test_restart_serves_again(self, sim, net, backend):
        broker, client = make_broker(sim, net, backend)
        replies = []

        def run():
            broker.crash()
            yield sim.timeout(1.0)
            broker.restart()
            assert broker.alive
            reply = yield from client.call(
                "web", "get", ("/work", {}), cacheable=False, timeout=5.0
            )
            replies.append(reply)

        sim.run(sim.process(run()))
        assert replies[0].status is ReplyStatus.OK
        assert broker.metrics.counter("broker.restarts") == 1

    def test_crash_and_restart_are_idempotent(self, sim, net, backend):
        broker, _ = make_broker(sim, net, backend)
        broker.restart()  # already alive: no-op
        assert broker.metrics.counter("broker.restarts") == 0
        broker.crash()
        broker.crash()  # already dead: no-op
        assert broker.metrics.counter("broker.crashes") == 1


class TestRecoveryJournal:
    def test_rejects_unknown_policy(self, sim):
        with pytest.raises(ValueError):
            RecoveryJournal(sim, policy="pray")

    def test_journal_shadows_unanswered_requests(self, sim, net, backend):
        broker, client = make_broker(sim, net, backend)
        journal = RecoveryJournal(sim, metrics=broker.metrics)
        broker.journal = journal

        def run():
            yield from client.call(
                "web", "get", ("/work", {}), cacheable=False, timeout=5.0
            )

        def probe():
            yield sim.timeout(0.05)
            # Mid-flight: admitted, not yet answered.
            assert journal.pending_count == 1

        sim.process(probe())
        sim.run(sim.process(run()))
        # Answered: the write-ahead entry was cleared by send_reply.
        assert journal.pending_count == 0

    def test_replay_recovers_in_flight_work(self, sim, net, backend):
        broker, client = make_broker(sim, net, backend)
        journal = RecoveryJournal(sim, policy="replay", metrics=broker.metrics)
        broker.journal = journal
        replies = []

        def one(i):
            reply = yield from client.call(
                "web", "get", ("/work", {"i": i}), cacheable=False
            )
            replies.append(reply.status)

        def driver():
            for i in range(3):
                sim.process(one(i))
            yield sim.timeout(0.05)
            broker.crash()
            assert journal.pending_count == 3
            yield sim.timeout(1.0)
            broker.restart()
            yield sim.timeout(2.0)  # let the replayed work complete

        sim.run(sim.process(driver()))
        # Every journaled request was re-run and answered exactly once.
        assert journal.replayed == 3
        assert journal.pending_count == 0
        assert replies == [ReplyStatus.OK] * 3
        assert broker.metrics.counter("lifecycle.replayed") == 3

    def test_shed_policy_answers_degraded_on_restart(self, sim, net, backend):
        broker, client = make_broker(sim, net, backend)
        journal = RecoveryJournal(sim, policy="shed", metrics=broker.metrics)
        broker.journal = journal
        replies = []

        def one(i):
            reply = yield from client.call(
                "web", "get", ("/work", {"i": i}), cacheable=False
            )
            replies.append(reply.status)

        def driver():
            for i in range(3):
                sim.process(one(i))
            yield sim.timeout(0.05)
            broker.crash()
            yield sim.timeout(1.0)
            broker.restart()
            yield sim.timeout(1.0)  # let the shed replies arrive

        sim.run(sim.process(driver()))
        assert journal.shed == 3
        assert len(replies) == 3
        # No backend work was redone: every reply is a busy/degraded one.
        assert all(
            s in (ReplyStatus.DEGRADED, ReplyStatus.DROPPED) for s in replies
        )
        assert broker.metrics.counter("broker.shed.restart") == 3


class TestSupervisor:
    def setup_supervised(self, sim, net, backend):
        broker, client = make_broker(sim, net, backend)
        supervisor = BrokerSupervisor(
            sim, net.node("mon"), metrics=broker.metrics
        )
        journal = RecoveryJournal(sim, metrics=broker.metrics)
        watch = supervisor.watch(broker, journal=journal)
        return broker, client, supervisor, journal, watch

    def test_detects_death_and_fails_fast(self, sim, net, backend):
        broker, client, supervisor, journal, watch = self.setup_supervised(
            sim, net, backend
        )
        replies = []

        def one(i):
            reply = yield from client.call(
                "web", "get", ("/work", {"i": i}), cacheable=False
            )
            replies.append(reply)

        def driver():
            yield sim.timeout(0.5)
            assert watch.up
            for i in range(3):
                sim.process(one(i))
            yield sim.timeout(0.05)
            broker.crash()

        sim.process(driver())
        sim.run(until=2.0)
        # Detection within HEARTBEAT_INTERVAL * MISS_FACTOR of the last heartbeat.
        assert not watch.up
        assert watch.detected == 1
        assert broker.metrics.counter("lifecycle.broker_down") == 1
        # Every in-flight request was answered DROPPED immediately — the
        # clients did not have to wait out a timeout.
        assert journal.failed_fast == 3
        assert len(replies) == 3
        assert all(r.status is ReplyStatus.DROPPED for r in replies)
        assert all(r.error == "broker-crash" for r in replies)

    def test_heartbeats_mark_restart_as_recovery(self, sim, net, backend):
        broker, client, supervisor, journal, watch = self.setup_supervised(
            sim, net, backend
        )

        def driver():
            yield sim.timeout(0.5)
            broker.crash()
            yield sim.timeout(1.0)
            assert not watch.up
            broker.restart()
            yield sim.timeout(0.5)

        sim.process(driver())
        sim.run(until=3.0)
        assert watch.up
        assert watch.recoveries == 1
        assert broker.metrics.counter("lifecycle.broker_up") == 1

    def test_fail_fast_consumes_journal_before_replay(self, sim, net, backend):
        broker, client, supervisor, journal, watch = self.setup_supervised(
            sim, net, backend
        )
        replies = []

        def one(i):
            reply = yield from client.call(
                "web", "get", ("/work", {"i": i}), cacheable=False
            )
            replies.append(reply)

        def driver():
            yield sim.timeout(0.5)
            for i in range(2):
                sim.process(one(i))
            yield sim.timeout(0.05)
            broker.crash()
            yield sim.timeout(1.0)  # well past detection
            broker.restart()
            yield sim.timeout(0.5)

        sim.process(driver())
        sim.run(until=3.0)
        # The supervisor already answered everything; the restart must
        # not answer the same requests a second time.
        assert journal.failed_fast == 2
        assert journal.replayed == 0
        assert len(replies) == 2

    def test_blip_restart_replays_before_detection(self, sim, net, backend):
        broker, client, supervisor, journal, watch = self.setup_supervised(
            sim, net, backend
        )
        replies = []

        def one(i):
            reply = yield from client.call(
                "web", "get", ("/work", {"i": i}), cacheable=False
            )
            replies.append(reply)

        def driver():
            yield sim.timeout(0.5)
            for i in range(2):
                sim.process(one(i))
            yield sim.timeout(0.05)
            broker.crash()
            # Heal faster than HEARTBEAT_INTERVAL * MISS_FACTOR = 0.15 s: the
            # supervisor never notices, restart() replays the journal.
            yield sim.timeout(0.05)
            broker.restart()

        sim.process(driver())
        sim.run(until=3.0)
        assert watch.detected == 0
        assert journal.failed_fast == 0
        assert journal.replayed == 2
        assert len(replies) == 2
        assert all(r.status is ReplyStatus.OK for r in replies)
