"""Tests for the broker stage pipeline and end-to-end request context."""

from __future__ import annotations

import pytest

from repro.core import (
    BrokerClient,
    BrokerStage,
    CircuitBreakerStage,
    DatabaseAdapter,
    QoSPolicy,
    ReplyStatus,
    RequestContext,
    ServiceBroker,
    StageOutcome,
    StagePipeline,
    stage_plan,
)
from repro.db import Database, DatabaseServer
from repro.errors import BrokerError
from repro.workload import run_qos_experiment

DISTRIBUTED_ORDER = [
    "validate", "arrival", "cache-lookup", "admission", "fidelity",
    "enqueue", "cluster", "execute", "cache-fill", "reply",
]
CENTRALIZED_ORDER = [
    "validate", "arrival", "cache-lookup", "fidelity", "enqueue",
    "cluster", "execute", "cache-fill", "reply",
]


@pytest.fixture
def db_backend(sim, net):
    database = Database()
    table = database.create_table("kv", [("k", int), ("v", str)])
    for i in range(100):
        table.insert((i, f"v{i}"))
    table.create_index("k")
    return DatabaseServer(sim, net.node("dbhost"), database, max_workers=4)


def make_broker(sim, net, db_backend, **kwargs):
    node = net.node("webhost")
    defaults = dict(
        service="db",
        adapters=[DatabaseAdapter(sim, node, db_backend.address, name="db0")],
        qos=QoSPolicy(levels=3, threshold=12),
        pool_size=2,
    )
    defaults.update(kwargs)
    broker = ServiceBroker(sim, node, **defaults)
    client = BrokerClient(sim, node, {"db": broker.address})
    return broker, client


class TestStageOrdering:
    def test_distributed_is_the_default_plan(self, sim, net, db_backend):
        broker, _ = make_broker(sim, net, db_backend)
        assert broker.describe_pipeline() == DISTRIBUTED_ORDER

    def test_centralized_plan_order(self):
        # No load-report step: the reporter is a broker process, not a stage.
        assert [s.name for s in stage_plan("centralized")] == CENTRALIZED_ORDER

    def test_stage_plan_factory_matches_model(self):
        assert [s.name for s in stage_plan("distributed")] == DISTRIBUTED_ORDER
        assert [s.name for s in stage_plan("centralized")] == CENTRALIZED_ORDER

    def test_stage_plan_rejects_unknown_model(self):
        with pytest.raises(BrokerError, match="unknown broker model"):
            stage_plan("hierarchical")

    def test_pipeline_splits_at_enqueue_boundary(self, sim, net, db_backend):
        broker, _ = make_broker(sim, net, db_backend)
        ingress = [s.name for s in broker.pipeline.ingress_stages]
        dispatch = [s.name for s in broker.pipeline.dispatch_stages]
        assert ingress == DISTRIBUTED_ORDER[:6]
        assert dispatch == DISTRIBUTED_ORDER[6:]

    def test_stages_bind_to_exactly_one_broker(self, sim, net, db_backend):
        node = net.node("webhost")
        plan = stage_plan("distributed")

        def build(port, stages):
            return ServiceBroker(
                sim,
                node,
                service="db",
                adapters=[DatabaseAdapter(sim, node, db_backend.address)],
                port=port,
                stages=stages,
            )

        build(7000, plan)
        with pytest.raises(BrokerError, match="already bound"):
            build(7001, plan)

    def test_empty_plan_rejected(self, sim, net, db_backend):
        with pytest.raises(BrokerError, match="at least one stage"):
            make_broker(sim, net, db_backend, stages=[])


class TestContextTimeline:
    def test_reply_carries_per_stage_timestamps(self, sim, net, db_backend):
        broker, client = make_broker(sim, net, db_backend)

        def run():
            return (
                yield from client.call(
                    "db", "query", "SELECT v FROM kv WHERE k = 5"
                )
            )

        reply = sim.run(sim.process(run()))
        assert reply.status is ReplyStatus.OK
        ctx = reply.context
        assert isinstance(ctx, RequestContext)
        # Originated at the client, adopted over the net, run through
        # every broker stage, then stamped back at the client.
        assert ctx.stage_names() == ["net"] + DISTRIBUTED_ORDER + ["client"]
        assert ctx.finished and not ctx.rejected
        for name, entered, exited, _decision in ctx.timeline():
            assert exited >= entered, name
        # The ingress section is synchronous: it costs no simulated time.
        for name in DISTRIBUTED_ORDER[:6]:
            assert ctx.duration_of(name) == 0.0
        # Execution talks to the backend, so it must advance the clock.
        assert ctx.duration_of("execute") > 0.0
        assert ctx.created_at <= ctx.received_at <= ctx.completed_at

    def test_timeline_records_stage_decisions(self, sim, net, db_backend):
        broker, client = make_broker(sim, net, db_backend)

        def run():
            return (
                yield from client.call(
                    "db", "query", "SELECT v FROM kv WHERE k = 7"
                )
            )

        reply = sim.run(sim.process(run()))
        decisions = {name: d for name, _, _, d in reply.context.timeline()}
        assert decisions["cache-lookup"] == "bypass"  # no cache configured
        assert decisions["admission"] == "admitted"
        assert decisions["enqueue"].startswith("depth=")
        assert decisions["reply"] == "done"
        assert decisions["client"] == "ok"

    def test_per_stage_metrics_mirrored_to_registry(self, sim, net, db_backend):
        broker, client = make_broker(sim, net, db_backend)

        def run():
            return (
                yield from client.call(
                    "db", "query", "SELECT v FROM kv WHERE k = 9"
                )
            )

        sim.run(sim.process(run()))
        for name in DISTRIBUTED_ORDER:
            assert broker.metrics.sample(f"broker.stage.{name}.time").count == 1
        assert broker.metrics.counter("broker.stage.admission.admitted") == 1
        # The enqueue decision carries the queue depth; the metric name
        # keeps only the key before '='.
        assert broker.metrics.counter("broker.stage.enqueue.depth") == 1
        assert broker.metrics.sample("broker.pipeline.time").count == 1

    def test_rejected_request_timeline_ends_at_fidelity(
        self, sim, net, db_backend
    ):
        broker, client = make_broker(
            sim, net, db_backend, qos=QoSPolicy(levels=3, threshold=1)
        )

        def run():
            # Two simultaneous calls against a threshold of one: the
            # second to arrive is shed by the admission stage.
            return (
                yield from client.call_parallel(
                    [
                        ("db", "query", "SELECT v FROM kv WHERE k = 1", 1),
                        ("db", "query", "SELECT v FROM kv WHERE k = 2", 1),
                    ]
                )
            )

        replies = sim.run(sim.process(run()))
        dropped = [r for r in replies if r.status is ReplyStatus.DROPPED]
        assert len(dropped) == 1
        ctx = dropped[0].context
        assert ctx.rejected
        assert ctx.stage_names() == [
            "net", "validate", "arrival", "cache-lookup", "admission",
            "fidelity", "client",
        ]
        assert ctx.duration_of("fidelity") == 0.0


class NoOpStage(BrokerStage):
    """A do-nothing ingress stage used to prove third-party insertion."""

    name = "no-op"
    anchor = ("before", "admission")

    def __init__(self) -> None:
        super().__init__()
        self.seen = 0

    def on_request(self, ctx):
        self.seen += 1
        return StageOutcome.CONTINUE


class TaggingBatchStage(BrokerStage):
    """A custom dispatch stage annotating every context it sees."""

    name = "tagging"
    anchor = ("after", "execute")

    def on_batch(self, batch):
        for ctx in batch.contexts:
            ctx.annotate("tagged", True)
        return StageOutcome.CONTINUE


class PauseStage(BrokerStage):
    """A custom dispatch stage that waits: ``on_batch`` is a generator."""

    name = "pause"
    anchor = ("after", "cluster")
    delay = 0.25

    def on_batch(self, batch):
        yield self.delay
        return StageOutcome.CONTINUE


class TestCustomStageInjection:
    def test_noop_stage_inserted_without_touching_core(
        self, sim, net, db_backend
    ):
        probe = NoOpStage()
        broker, client = make_broker(
            sim, net, db_backend, stages=stage_plan("distributed", probe)
        )
        assert broker.describe_pipeline() == (
            DISTRIBUTED_ORDER[:3] + ["no-op"] + DISTRIBUTED_ORDER[3:]
        )

        def run():
            return (
                yield from client.call(
                    "db", "query", "SELECT v FROM kv WHERE k = 3"
                )
            )

        reply = sim.run(sim.process(run()))
        assert reply.status is ReplyStatus.OK
        assert probe.seen == 1
        assert "no-op" in reply.context.stage_names()
        assert broker.metrics.counter("broker.stage.no-op.continue") == 1

    def test_custom_dispatch_stage_annotates_context(
        self, sim, net, db_backend
    ):
        broker, client = make_broker(
            sim, net, db_backend,
            stages=stage_plan("distributed", TaggingBatchStage()),
        )

        def run():
            return (
                yield from client.call(
                    "db", "query", "SELECT v FROM kv WHERE k = 4"
                )
            )

        reply = sim.run(sim.process(run()))
        assert reply.status is ReplyStatus.OK
        assert reply.context.annotations["tagged"] is True
        assert "tagging" in reply.context.stage_names()

    def test_generator_stage_advances_simulated_time(
        self, sim, net, db_backend
    ):
        broker, client = make_broker(
            sim, net, db_backend, stages=stage_plan("distributed", PauseStage())
        )
        assert broker.describe_pipeline() == (
            DISTRIBUTED_ORDER[:7] + ["pause"] + DISTRIBUTED_ORDER[7:]
        )

        def run():
            return (
                yield from client.call(
                    "db", "query", "SELECT v FROM kv WHERE k = 6"
                )
            )

        reply = sim.run(sim.process(run()))
        assert reply.status is ReplyStatus.OK
        assert reply.context.duration_of("pause") == PauseStage.delay

    def test_extras_on_one_anchor_keep_argument_order(self):
        first, second = NoOpStage(), NoOpStage()
        third, fourth = TaggingBatchStage(), TaggingBatchStage()
        plan = stage_plan("distributed", third, first, fourth, second)
        assert [stage.name for stage in plan] == (
            DISTRIBUTED_ORDER[:3] + ["no-op", "no-op"]
            + DISTRIBUTED_ORDER[3:8] + ["tagging", "tagging"]
            + DISTRIBUTED_ORDER[8:]
        )
        assert plan[3] is first and plan[4] is second
        assert plan[10] is third and plan[11] is fourth

    def test_extra_named_like_a_base_stage_replaces_it(self):
        breaker = CircuitBreakerStage(failure_threshold=9)
        plan = stage_plan("fault-tolerant", breaker)
        names = [stage.name for stage in plan]
        assert names == [stage.name for stage in stage_plan("fault-tolerant")]
        assert plan[names.index("breaker")] is breaker

    def test_unknown_anchor_is_an_error(self):
        class GhostStage(NoOpStage):
            anchor = ("before", "ghost")

        with pytest.raises(BrokerError, match="'ghost'"):
            stage_plan("distributed", GhostStage())
        # An anchor must name a stage of the chosen base: the
        # centralized plan has no admission gate.
        with pytest.raises(BrokerError, match="'admission'"):
            stage_plan("centralized", NoOpStage())

    def test_pipeline_is_fixed_once_built(self, sim, net, db_backend):
        broker, _ = make_broker(sim, net, db_backend)
        assert isinstance(broker.pipeline.stages, tuple)

    def test_custom_plan_via_constructor(self, sim, net, db_backend):
        # A plan is a plain list: a caller may hand-build one.
        plan = stage_plan("distributed")
        plan.insert(3, NoOpStage())
        broker, client = make_broker(sim, net, db_backend, stages=plan)
        assert "no-op" in broker.describe_pipeline()

        def run():
            return (
                yield from client.call(
                    "db", "query", "SELECT v FROM kv WHERE k = 2"
                )
            )

        assert sim.run(sim.process(run())).status is ReplyStatus.OK

    def test_pipeline_requires_binding_broker(self, sim, net, db_backend):
        broker, _ = make_broker(sim, net, db_backend)
        stage = NoOpStage()
        pipeline = StagePipeline(broker, [stage])
        assert stage.broker is broker
        assert len(pipeline) == 1 and list(pipeline) == [stage]


def test_stock_stages_that_wait_are_generator_functions():
    """The dispatch loop drives ``on_batch`` as a generator only when
    the pipeline recorded it as a generator function; a stock stage that
    yields must therefore be one."""
    import inspect

    from repro.core import pipeline

    waiting = {
        stage_class.name
        for stage_class in vars(pipeline).values()
        if isinstance(stage_class, type)
        and issubclass(stage_class, BrokerStage)
        and inspect.isgeneratorfunction(stage_class.on_batch)
    }
    assert waiting == {"cluster", "query-combine", "execute", "retry", "failover"}


class TestModelEquivalence:
    def test_models_agree_under_light_load(self):
        """With no overload neither model sheds: identical completions."""
        results = {
            mode: run_qos_experiment(
                6, mode=mode, duration=15.0, seed=5, think_time=0.05
            )
            for mode in ("broker", "centralized")
        }
        broker_r, central_r = results["broker"], results["centralized"]
        assert broker_r.completions == central_r.completions
        assert broker_r.full_fidelity == central_r.full_fidelity
        assert all(
            ratio == 0.0
            for per_broker in central_r.drop_ratios.values()
            for ratio in per_broker.values()
        )
        assert all(v == 0 for v in central_r.frontend_rejections.values())
