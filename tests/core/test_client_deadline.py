"""BrokerClient deadlines: one alarm per client, not one timer per call.

The timing assertions describe behaviour a caller can see and hold for
any correct implementation of ``timeout=``; the structural ones (what
the kernel still holds after answered calls, what keeps a reply alive)
are what the per-client deadline alarm is for.
"""

from __future__ import annotations

import weakref

import pytest

from repro.core import BrokerClient, ReplyStatus
from repro.core.protocol import BrokerReply
from repro.errors import BrokerTimeout
from repro.net import Address, Link, Network

#: An address nothing is bound to: requests sent there are never answered.
SILENT = Address("brokerhost", 9999)


class WeakReply(BrokerReply):
    """A reply a test can hold a weak reference to."""

    __slots__ = ("__weakref__",)


@pytest.fixture
def exact_net(sim):
    """Every hop takes exactly 0.25 s: no jitter, no bandwidth term."""
    return Network(sim, default_link=Link(latency=0.25))


def echo_broker(sim, net, delay=0.0, port=7000):
    """A stand-in broker answering every request *delay* seconds after
    it arrives, the way ``ReplyStage`` does: the reply carries the
    request's context and the context names the reply."""
    socket = net.node("brokerhost").datagram_socket(port)

    def answer(request):
        if delay:
            yield delay
        reply = WeakReply(
            request_id=request.request_id,
            status=ReplyStatus.OK,
            context=request.context,
        )
        request.context.reply = reply
        socket.sendto(reply, request.reply_to)

    def serve():
        while True:
            envelope = yield socket.recv()
            sim.process(answer(envelope.payload))

    sim.process(serve())
    return socket.address


def timed_call(sim, client, start, timeout, outcomes, service="svc"):
    """Start a call at *start*; record ``(outcome, time it ended)``."""

    def run():
        yield start
        try:
            reply = yield from client.call(service, "get", "x", timeout=timeout)
        except BrokerTimeout:
            outcomes.append(("timeout", sim.now))
        else:
            outcomes.append((reply.status, sim.now))

    return sim.process(run())


class TestExpiry:
    def test_unanswered_call_expires_exactly_on_its_deadline(self, sim, net):
        client = BrokerClient(sim, net.node("web"), {"svc": SILENT})
        outcomes = []
        timed_call(sim, client, 0.3, 30, outcomes)
        sim.run()
        assert outcomes == [("timeout", 0.3 + 30.0)]
        assert client.metrics.counter("client.timeouts") == 1

    @pytest.mark.parametrize(
        "other_start, other_timeout",
        # Both pairs end at an instant `now` from which the relative
        # route drifts: now + ((0.3 + 30.0) - now) != 0.3 + 30.0.
        [(0.1, 4.0), (1.1, 1.3)],
        ids=["armed-after-an-earlier-expiry", "superseded-then-re-armed"],
    )
    def test_deadline_is_exact_after_another_call_expired_first(
        self, sim, net, other_start, other_timeout
    ):
        now = other_start + other_timeout
        assert now + ((0.3 + 30.0) - now) != 0.3 + 30.0
        client = BrokerClient(sim, net.node("web"), {"svc": SILENT})
        outcomes = []
        timed_call(sim, client, 0.3, 30, outcomes)
        timed_call(sim, client, other_start, other_timeout, outcomes)
        sim.run()
        assert outcomes == [("timeout", now), ("timeout", 0.3 + 30.0)]

    def test_later_call_with_shorter_timeout_expires_first(self, sim, net):
        client = BrokerClient(sim, net.node("web"), {"svc": SILENT})
        outcomes = []
        timed_call(sim, client, 0.0, 30.0, outcomes)
        timed_call(sim, client, 1.0, 2.0, outcomes)
        sim.run()
        assert outcomes == [("timeout", 3.0), ("timeout", 30.0)]
        assert client.metrics.counter("client.timeouts") == 2


class TestRepliesAroundTheDeadline:
    def test_reply_at_the_very_instant_of_the_deadline(self, sim, exact_net):
        # 0.25 out + 0.5 at the broker + 0.25 back: delivered at 1.0,
        # the instant the 1.0 s deadline falls due.
        address = echo_broker(sim, exact_net, delay=0.5)
        client = BrokerClient(sim, exact_net.node("web"), {"svc": address})
        outcomes = []
        timed_call(sim, client, 0.0, 1.0, outcomes)
        sim.run()  # an EventAlreadyTriggered would abort the run
        assert len(outcomes) == 1
        assert outcomes[0][1] == 1.0
        metrics = client.metrics
        answered = metrics.counter("client.replies.ok")
        assert answered + metrics.counter("client.timeouts") == 1
        assert outcomes[0][0] == (ReplyStatus.OK if answered else "timeout")

    def test_reply_just_inside_the_deadline_is_returned(self, sim, exact_net):
        address = echo_broker(sim, exact_net, delay=0.5)
        client = BrokerClient(sim, exact_net.node("web"), {"svc": address})
        outcomes = []
        timed_call(sim, client, 0.0, 1.125, outcomes)
        sim.run()
        assert outcomes == [(ReplyStatus.OK, 1.0)]
        assert client.metrics.counter("client.timeouts") == 0

    def test_late_reply_after_expiry_is_an_orphan(self, sim, exact_net):
        address = echo_broker(sim, exact_net, delay=0.5)
        client = BrokerClient(sim, exact_net.node("web"), {"svc": address})
        outcomes = []
        timed_call(sim, client, 0.0, 0.75, outcomes)
        sim.run()
        assert outcomes == [("timeout", 0.75)]
        assert client.metrics.counter("client.orphan_replies") == 1
        assert client.metrics.counter("client.replies.ok") == 0

    def test_answered_and_silent_calls_share_one_client(self, sim, exact_net):
        address = echo_broker(sim, exact_net)
        client = BrokerClient(
            sim, exact_net.node("web"), {"svc": address, "void": SILENT}
        )
        outcomes = []
        timed_call(sim, client, 0.0, 5.0, outcomes, service="void")
        for start in (0.0, 1.0, 4.75, 6.0):
            timed_call(sim, client, start, 5.0, outcomes)
        sim.run()
        assert outcomes == [
            (ReplyStatus.OK, 0.5),
            (ReplyStatus.OK, 1.5),
            ("timeout", 5.0),
            (ReplyStatus.OK, 5.25),
            (ReplyStatus.OK, 6.5),
        ]


class TestWhatAnAnsweredCallLeavesBehind:
    CALLS = 2000

    def test_kernel_queue_does_not_grow_with_answered_calls(self, sim, net):
        address = echo_broker(sim, net)
        clients = [
            BrokerClient(sim, net.node(f"web{i}"), {"svc": address})
            for i in range(4)
        ]

        def caller(client):
            for _ in range(self.CALLS // len(clients)):
                reply = yield from client.call("svc", "get", "x", timeout=30)
                assert reply.status is ReplyStatus.OK

        sim.run(sim.all_of([sim.process(caller(c)) for c in clients]))
        assert sim.now < 30.0  # every deadline is still ahead
        assert sum(c.metrics.counter("client.replies.ok") for c in clients) == self.CALLS
        # One alarm per client (plus whatever the stand-in broker holds):
        # O(clients), where a timer per call would leave >= CALLS behind.
        assert sim.scheduled <= 2 * len(clients)
        assert all(len(c._deadlines) <= 1 for c in clients)

    def test_reply_dies_with_the_callers_reference(self, sim, net, no_collector):
        address = echo_broker(sim, net)
        client = BrokerClient(sim, net.node("web"), {"svc": address})
        refs = []

        def caller():
            reply = yield from client.call("svc", "get", "x", timeout=30)
            refs.append(weakref.ref(reply))
            assert reply.context.stage_names()[-1] == "client"
            # The client's receive loop still names the message it
            # handled last; a second exchange takes that place.
            reply = yield from client.call("svc", "get", "x", timeout=30)
            assert refs[0]() is None
            refs.append(weakref.ref(reply))
            return reply.context

        context = sim.run(sim.process(caller()))
        assert sim.now < 30.0
        # What stays navigable: the timeline; what is let go: the messages.
        assert context.request is None and context.reply is None
        assert context.stages
