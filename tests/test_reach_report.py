"""docs/reach.md names only functions that still exist, each kept for a reason.

``python tools/reach.py`` writes the report from a line trace of
every product run; CI's ``reach`` job reruns it with ``--check``. This
cheap gate catches the two ways it goes stale without rerunning it:

* a deletion that forgets to regenerate it. Each ``path:line name``
  entry must name a def (methods as ``Class.method``, nested defs as
  ``outer.inner``) that ``ast`` finds in that file, and each
  ``path:first-last name`` block must lie inside the def it names;
* code no product run reaches that nobody decided to keep. Every listed
  def, and every def that owns a listed block, has a ``KEPT`` row
  (``"path name"``, no line number, so moving code does not churn it)
  whose reason is one of ``REASONS``; a row whose entry the report no
  longer lists fails too. A new unreached def is either deleted, with
  the tests that only exercise it, or kept for one of these reasons.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from .reasons import FORKED_DRIVER, GRADE_ONE, INTENSITY_GATE, KERNEL_DIFFERENTIAL

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / "docs" / "reach.md"
ENTRY = re.compile(r"^(src/\S+\.py):(\d+) (\S+)$", re.MULTILINE)
BLOCK = re.compile(r"^(src/\S+\.py):(\d+)-(\d+) (\S+)$", re.MULTILINE)

REPR = "a __repr__: a debugging aid no product run prints"
PROTOCOL = "part of an interface or container protocol whose siblings are reached"
ERROR_PATH = "raises, refuses or answers with an error on an input or fault no product run produces"
LIFECYCLE = "a close(): teardown no product run performs"
OPEN_ITEM = "the target of an open ROADMAP item (17: analysis/queueing.py; 18: the elastic pool)"
ORACLE = "the reference or observation point a test holds product code to"
INDEX = "keeps a table's indexes consistent on a path (Table.update, an indexed load) no run takes"
PINNED = "named by the pinned `repro telemetry --describe` sentence"
CLI_CHOICE = "a value a CLI flag offers that no CI run selects"

#: Every reason a def no product run reaches may be kept for.
REASONS = (
    REPR,
    PROTOCOL,
    ERROR_PATH,
    LIFECYCLE,
    KERNEL_DIFFERENTIAL,
    FORKED_DRIVER,
    GRADE_ONE,
    INTENSITY_GATE,
    OPEN_ITEM,
    ORACLE,
    INDEX,
    PINNED,
    CLI_CHOICE,
)

#: ``"path name"`` of each listed def and of each def owning a listed block.
KEPT = {
    "src/repro/_lazy.py lazy_exports.__dir__": PROTOCOL,
    "src/repro/analysis/queueing.py erlang_c": OPEN_ITEM,
    "src/repro/analysis/queueing.py mm1_metrics": OPEN_ITEM,
    "src/repro/analysis/queueing.py mmc_metrics": OPEN_ITEM,
    "src/repro/analysis/queueing.py mva_single_station": OPEN_ITEM,
    "src/repro/cli.py ChaosInvariantFailure.__init__": ERROR_PATH,
    "src/repro/cli.py main": ERROR_PATH,
    "src/repro/core/adapters.py DatabaseAdapter.close": LIFECYCLE,
    "src/repro/core/adapters.py FileAdapter.close": LIFECYCLE,
    "src/repro/core/adapters.py HttpAdapter.close": LIFECYCLE,
    "src/repro/core/adapters.py ServiceAdapter.__repr__": REPR,
    "src/repro/core/adapters.py ServiceAdapter.client_class": PROTOCOL,
    "src/repro/core/adapters.py ServiceAdapter.close": LIFECYCLE,
    "src/repro/core/adapters.py ServiceAdapter.connect": PROTOCOL,
    "src/repro/core/adapters.py ServiceAdapter.execute": PROTOCOL,
    "src/repro/core/admission.py AdmissionController.__repr__": REPR,
    "src/repro/core/admission.py AdmissionController._pruned": INTENSITY_GATE,
    "src/repro/core/admission.py AdmissionController._rate": INTENSITY_GATE,
    "src/repro/core/autoscale.py BrokerPool._handoff": OPEN_ITEM,
    "src/repro/core/autoscale.py BrokerPool._peer": OPEN_ITEM,
    "src/repro/core/autoscale.py TenantThrottle.__repr__": REPR,
    "src/repro/core/autoscale.py TokenBucket.__repr__": REPR,
    "src/repro/core/broker.py ServiceBroker.__repr__": REPR,
    "src/repro/core/broker.py ServiceBroker._receive_loop": ERROR_PATH,
    "src/repro/core/cache.py ResultCache.__contains__": PROTOCOL,
    "src/repro/core/cache.py ResultCache.__len__": PROTOCOL,
    "src/repro/core/cache.py ResultCache.__repr__": REPR,
    "src/repro/core/cachetier.py PendingWrite.__repr__": REPR,
    "src/repro/core/cachetier.py SharedCacheTier.__contains__": PROTOCOL,
    "src/repro/core/cachetier.py SharedCacheTier.__len__": PROTOCOL,
    "src/repro/core/cachetier.py SharedCacheTier.__repr__": REPR,
    "src/repro/core/cachetier.py SharedCacheTier._transaction_completed": GRADE_ONE,
    "src/repro/core/cachetier.py SharedCacheTier.note_txn_write": GRADE_ONE,
    "src/repro/core/centralized.py LoadListener.deregister": OPEN_ITEM,
    "src/repro/core/centralized.py ResourceProfileRegistry.__contains__": PROTOCOL,
    "src/repro/core/centralized.py ResourceProfileRegistry.__len__": PROTOCOL,
    "src/repro/core/client.py BrokerClient.close": LIFECYCLE,
    "src/repro/core/clustering.py Combiner.combine": PROTOCOL,
    "src/repro/core/clustering.py Combiner.key": PROTOCOL,
    "src/repro/core/clustering.py Combiner.split": PROTOCOL,
    "src/repro/core/faulttolerance.py CircuitBreaker.__repr__": REPR,
    "src/repro/core/hotspot.py HotSpotMonitor.__repr__": REPR,
    "src/repro/core/lifecycle.py RecoveryJournal.recover": CLI_CHOICE,
    "src/repro/core/loadbalance.py Balancer.pick": PROTOCOL,
    "src/repro/core/loadbalance.py ReplicaHealth.__repr__": REPR,
    "src/repro/core/peering.py BrokerPeerGroup.__repr__": REPR,
    "src/repro/core/peering.py BrokerPeerGroup.publish": GRADE_ONE,
    "src/repro/core/pipeline.py BackpressureStage.summary": PROTOCOL,
    "src/repro/core/pipeline.py BatchContext.__len__": PROTOCOL,
    "src/repro/core/pipeline.py BatchContext.__repr__": REPR,
    "src/repro/core/pipeline.py BrokerStage.__repr__": REPR,
    "src/repro/core/pipeline.py BrokerStage.on_batch": PROTOCOL,
    "src/repro/core/pipeline.py BrokerStage.on_request": PROTOCOL,
    "src/repro/core/pipeline.py FailoverStage.on_batch": ERROR_PATH,
    "src/repro/core/pipeline.py ReplyStage.on_batch": ERROR_PATH,
    "src/repro/core/pipeline.py RequestContext.__repr__": REPR,
    "src/repro/core/pipeline.py ShardRouteStage.on_request": ERROR_PATH,
    "src/repro/core/pipeline.py StagePipeline.__iter__": PROTOCOL,
    "src/repro/core/pipeline.py StagePipeline.__len__": PROTOCOL,
    "src/repro/core/pipeline.py StagePipeline.__repr__": REPR,
    "src/repro/core/pipeline.py StageRecord.__repr__": REPR,
    "src/repro/core/pipeline.py ValidateServiceStage.on_request": ERROR_PATH,
    "src/repro/core/pipeline.py stage_plan": ERROR_PATH,
    "src/repro/core/pool.py ConnectionPool.__repr__": REPR,
    "src/repro/core/prefetch.py Prefetcher.__repr__": REPR,
    "src/repro/core/prefetch.py Prefetcher._run_rule": ERROR_PATH,
    "src/repro/core/queueing.py BrokerQueue.__repr__": REPR,
    "src/repro/core/queueing.py BrokerQueue._make_room": CLI_CHOICE,
    "src/repro/core/sharding.py HashRing.__contains__": PROTOCOL,
    "src/repro/core/sharding.py HashRing.__repr__": REPR,
    "src/repro/core/sharding.py ShardDirectory.__contains__": PROTOCOL,
    "src/repro/core/sharding.py ShardDirectory.__repr__": REPR,
    "src/repro/core/sharding.py ShardGroup.__repr__": REPR,
    "src/repro/core/sharding.py ShardGroup.name": ERROR_PATH,
    "src/repro/core/transactions.py TransactionTracker.__repr__": REPR,
    "src/repro/core/transactions.py TransactionTracker.observe_remote": GRADE_ONE,
    "src/repro/db/client.py QueryResult.__len__": PROTOCOL,
    "src/repro/db/engine.py Database.__repr__": REPR,
    "src/repro/db/executor.py ResultSet.__len__": PROTOCOL,
    "src/repro/db/executor.py evaluate_predicate": ERROR_PATH,
    "src/repro/db/index.py HashIndex.__len__": PROTOCOL,
    "src/repro/db/index.py HashIndex.insert": INDEX,
    "src/repro/db/index.py HashIndex.remove": INDEX,
    "src/repro/db/schema.py Column.type_name": ERROR_PATH,
    "src/repro/db/schema.py Schema.__contains__": PROTOCOL,
    "src/repro/db/schema.py Schema.__len__": PROTOCOL,
    "src/repro/db/schema.py Schema.__repr__": REPR,
    "src/repro/db/schema.py Schema.coerce_row": ERROR_PATH,
    "src/repro/db/schema.py Schema.column_names": PROTOCOL,
    "src/repro/db/server.py DatabaseServer.__repr__": REPR,
    "src/repro/db/server.py DatabaseServer._serve_query": ERROR_PATH,
    "src/repro/db/server.py DatabaseServer.close": LIFECYCLE,
    "src/repro/db/table.py Table.__len__": PROTOCOL,
    "src/repro/db/table.py Table.__repr__": REPR,
    "src/repro/db/table.py Table.load": INDEX,
    "src/repro/db/views.py MaterializedView.__repr__": REPR,
    "src/repro/db/views.py MaterializedView._empty_group_row": PROTOCOL,
    "src/repro/db/views.py MaterializedView.answer": ERROR_PATH,
    "src/repro/db/views.py ViewCatalog.__repr__": REPR,
    "src/repro/errors.py AdmissionRejected.__init__": ERROR_PATH,
    "src/repro/errors.py HttpError.__init__": ERROR_PATH,
    "src/repro/errors.py Interrupt.cause": PROTOCOL,
    "src/repro/fileserver/client.py FileConnection.close": LIFECYCLE,
    "src/repro/fileserver/disk.py DiskModel.__repr__": REPR,
    "src/repro/fileserver/filesystem.py FileSystem.__contains__": PROTOCOL,
    "src/repro/fileserver/filesystem.py FileSystem.__len__": PROTOCOL,
    "src/repro/fileserver/filesystem.py FileSystem.create": ERROR_PATH,
    "src/repro/fileserver/server.py FileServer.__repr__": REPR,
    "src/repro/fileserver/server.py FileServer.close": LIFECYCLE,
    "src/repro/frontend/server.py FrontendWebServer.__repr__": REPR,
    "src/repro/frontend/server.py FrontendWebServer.close": LIFECYCLE,
    "src/repro/http/client.py HttpConnection.close": LIFECYCLE,
    "src/repro/http/server.py BackendWebServer.__repr__": REPR,
    "src/repro/http/server.py BackendWebServer._serve_one": ERROR_PATH,
    "src/repro/http/server.py BackendWebServer.close": LIFECYCLE,
    "src/repro/metrics/collector.py Counter.__repr__": REPR,
    "src/repro/metrics/collector.py MetricsRegistry.__iter__": PROTOCOL,
    "src/repro/metrics/collector.py MetricsRegistry.__repr__": REPR,
    "src/repro/metrics/histogram.py LatencyHistogram.__len__": PROTOCOL,
    "src/repro/metrics/histogram.py LatencyHistogram.__repr__": REPR,
    "src/repro/metrics/stats.py Moments.__len__": PROTOCOL,
    "src/repro/metrics/stats.py Moments.__repr__": REPR,
    "src/repro/metrics/stats.py SummaryStats.__len__": PROTOCOL,
    "src/repro/metrics/stats.py SummaryStats.__repr__": REPR,
    "src/repro/net/faults.py BrokerCrash.describe": PROTOCOL,
    "src/repro/net/faults.py FaultInjector.__repr__": REPR,
    "src/repro/net/faults.py FaultInjector._target": ERROR_PATH,
    "src/repro/net/faults.py FaultPlan.__bool__": PROTOCOL,
    "src/repro/net/faults.py FaultPlan.__len__": PROTOCOL,
    "src/repro/net/faults.py FaultPlan.__repr__": REPR,
    "src/repro/net/faults.py LinkDown.describe": PROTOCOL,
    "src/repro/net/link.py Link.delay": ORACLE,
    "src/repro/net/message.py Envelope.__repr__": REPR,
    "src/repro/net/message.py _build_handler.handler": PROTOCOL,
    "src/repro/net/message.py _size_one": PROTOCOL,
    "src/repro/net/message.py _size_repr": PROTOCOL,
    "src/repro/net/network.py Network.__repr__": REPR,
    "src/repro/net/network.py Node.__repr__": REPR,
    "src/repro/net/network.py Route.__repr__": REPR,
    "src/repro/net/transport.py DatagramSocket.__repr__": REPR,
    "src/repro/net/transport.py StreamConnection.__repr__": REPR,
    "src/repro/net/transport.py StreamListener.__repr__": REPR,
    "src/repro/obs/dashboard.py live_panel": PINNED,
    "src/repro/obs/export.py to_jsonl": CLI_CHOICE,
    "src/repro/obs/export.py write_jsonl": CLI_CHOICE,
    "src/repro/obs/slo.py SloEngine.__repr__": REPR,
    "src/repro/obs/spans.py Hop.__repr__": REPR,
    "src/repro/obs/spans.py Span.__repr__": REPR,
    "src/repro/obs/spans.py SpanEvent.__repr__": REPR,
    "src/repro/obs/spans.py Trace.__repr__": REPR,
    "src/repro/obs/spans.py Trace.validate": ORACLE,
    "src/repro/obs/spans.py TraceCollector.__repr__": REPR,
    "src/repro/obs/telemetry.py ScrapeRecord.__repr__": REPR,
    "src/repro/obs/telemetry.py TelemetryScraper.__repr__": REPR,
    "src/repro/obs/telemetry.py TelemetryScraper.subscribe": PINNED,
    "src/repro/obs/telemetry.py TimeSeries.__len__": PROTOCOL,
    "src/repro/obs/telemetry.py TimeSeries.__repr__": REPR,
    "src/repro/obs/timeline.py render_attribution": ERROR_PATH,
    "src/repro/sim/core.py AnyOf.__init__": KERNEL_DIFFERENTIAL,
    "src/repro/sim/core.py Event.__repr__": REPR,
    "src/repro/sim/core.py Process.__repr__": REPR,
    "src/repro/sim/core.py Process._resume": ERROR_PATH,
    "src/repro/sim/core.py Simulation.__repr__": REPR,
    "src/repro/sim/core.py Simulation._raise": ERROR_PATH,
    "src/repro/sim/core.py Simulation.any_of": KERNEL_DIFFERENTIAL,
    "src/repro/sim/core.py Simulation.event": KERNEL_DIFFERENTIAL,
    "src/repro/sim/core.py Simulation.peek": ORACLE,
    "src/repro/sim/core.py Simulation.scheduled": ORACLE,
    "src/repro/sim/core.py Timeout.__repr__": REPR,
    "src/repro/sim/core.py _Tick.__repr__": REPR,
    "src/repro/sim/core.py _evaluate_any": KERNEL_DIFFERENTIAL,
    "src/repro/sim/cpu.py HostCpu.__repr__": REPR,
    "src/repro/sim/parallel.py _worker_main": FORKED_DRIVER,
    "src/repro/sim/resources.py Resource.cancel": PROTOCOL,
    "src/repro/sim/resources.py Resource.in_use": PROTOCOL,
    "src/repro/sim/resources.py Resource.queued": PROTOCOL,
    "src/repro/sim/resources.py Store.__len__": PROTOCOL,
    "src/repro/sim/resources.py Store.cancel": PROTOCOL,
    "src/repro/sim/rng.py RngRegistry.__contains__": PROTOCOL,
    "src/repro/sim/rng.py RngRegistry.__len__": PROTOCOL,
    "src/repro/workload/clients.py ClosedLoopClient.__repr__": REPR,
    "src/repro/workload/scenarios.py run_sharded_qos_experiment": FORKED_DRIVER,
}


def qualified_defs(path: Path) -> dict:
    """Every def in *path*, named the way the report names it, to its line spans."""
    names: dict = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names.setdefault(prefix + child.name, []).append((first, child.end_lineno))
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return names


def stale(entries, inside) -> list:
    """The entries whose file is gone or whose def no longer holds them."""
    return [
        entry
        for entry, path, name, lines in entries
        if not (REPO_ROOT / path).is_file()
        or not any(
            inside(span, lines)
            for span in qualified_defs(REPO_ROOT / path).get(name, ())
        )
    ]


def unkept(text: str, kept: dict) -> list:
    """What the report *text* and the *kept* table disagree on, one line each."""
    listed = {f"{p} {n}" for p, _, n in ENTRY.findall(text)}
    listed |= {f"{p} {n}" for p, _, _, n in BLOCK.findall(text)}
    return (
        [f"no KEPT row for {key}" for key in sorted(listed - kept.keys())]
        + [f"KEPT row the report does not list: {key}" for key in sorted(kept.keys() - listed)]
        + [f"reason not in REASONS: {key}" for key in sorted(kept) if kept[key] not in REASONS]
    )


def test_every_reported_function_still_exists():
    text = REPORT.read_text(encoding="utf-8")
    entries = ENTRY.findall(text)
    assert entries, "docs/reach.md lists no functions"
    missing = stale(
        [(f"{p}:{line} {n}", p, n, None) for p, line, n in entries],
        lambda span, _lines: True,
    )
    missing += stale(
        [(f"{p}:{a}-{b} {n}", p, n, (int(a), int(b))) for p, a, b, n in BLOCK.findall(text)],
        lambda span, lines: span[0] <= lines[0] <= lines[1] <= span[1],
    )
    assert not missing, "docs/reach.md is stale (run python tools/reach.py):\n" + "\n".join(
        missing
    )


def test_every_listed_entry_is_kept_for_a_named_reason():
    assert len(set(REASONS)) == len(REASONS)
    problems = unkept(REPORT.read_text(encoding="utf-8"), KEPT)
    assert not problems, (
        "delete what no product run reaches, or keep it in KEPT with a REASONS "
        "constant:\n" + "\n".join(problems)
    )


#: A report with one unreached def and one block in a reached def.
SAMPLE = """\
```
src/repro/a.py:3 A.f
```

```
src/repro/b.py:10-14 g
```
"""


def test_gate_names_a_listed_entry_with_no_row():
    assert unkept(SAMPLE, {"src/repro/b.py g": ERROR_PATH}) == [
        "no KEPT row for src/repro/a.py A.f"
    ]


def test_gate_fails_on_a_row_the_report_does_not_list():
    kept = {"src/repro/a.py A.f": REPR, "src/repro/b.py g": ERROR_PATH, "src/repro/c.py h": REPR}
    assert unkept(SAMPLE, kept) == ["KEPT row the report does not list: src/repro/c.py h"]


def test_gate_fails_on_a_reason_outside_reasons():
    kept = {"src/repro/a.py A.f": "nobody got round to it", "src/repro/b.py g": ERROR_PATH}
    assert unkept(SAMPLE, kept) == ["reason not in REASONS: src/repro/a.py A.f"]
