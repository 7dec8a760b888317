"""Self-test of the benchmark: ``python -m pytest benchmarks/e2e -q``.

Not part of tier 1 (``testpaths`` stays ``tests``). Real children run
at a fraction of the simulated duration; the gate and ``--compare`` are
driven with doctored copies of one real record.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from metrics import END_TO_END, LAYERS, PER_LAYER, SPECS, layer_of  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: 72 virtual seconds: long enough for a flash crowd, so every invariant holds.
FLEET_SCALE = 0.2


@pytest.fixture(scope="module")
def fleet_record():
    return run.spawn("fleet_autoscale", 3, False, FLEET_SCALE)


def run_main(monkeypatch, capsys, records):
    """``run.py --workload fleet_autoscale --trace 0`` over canned *records*."""
    queue = [copy.deepcopy(record) for record in records]
    monkeypatch.setattr(run, "spawn", lambda *args: queue.pop(0))
    monkeypatch.setattr(run, "build", lambda: None)
    code = run.main(["--workload", "fleet_autoscale", "--trace", "0", "--seconds", "0"])
    out = capsys.readouterr().out
    return code, out, json.loads(out.splitlines()[-1])


def test_layer_attribution():
    root = "/x/src/repro"
    assert layer_of("/x/src/repro/net/transport.py", root) == "net"
    assert layer_of("/x/src/repro/core/pipeline.py", root) == "core"
    assert layer_of("/x/src/repro/cli.py", root) == "other"
    assert layer_of("/usr/lib/python3/heapq.py", root) == "other"
    assert layer_of("~", root) == "other"


def test_healthy_run_prints_the_driver_line(monkeypatch, capsys, fleet_record):
    code, out, line = run_main(monkeypatch, capsys, [fleet_record] * run.MIN_REPEATS)
    assert code == 0 and "FAIL" not in out
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [spec.name for spec in END_TO_END]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_ledger_off_by_one_fails_the_gate(monkeypatch, capsys, fleet_record):
    doctored = copy.deepcopy(fleet_record)
    doctored["summary"]["fields"]["requests"] += 1
    code, out, line = run_main(monkeypatch, capsys, [doctored] * run.MIN_REPEATS)
    assert code == 1
    assert "FAIL fleet_autoscale: ledger" in out
    assert line["correct"] is False and line["failed"] == line["attempted"]


def test_digest_mismatch_between_repeats_fails_the_gate(monkeypatch, capsys, fleet_record):
    doctored = copy.deepcopy(fleet_record)
    doctored["summary"]["latency"]["1"]["mean"] *= 1.0000001
    code, out, _ = run_main(monkeypatch, capsys, [fleet_record, doctored, fleet_record])
    assert code == 1
    assert "simulated result differs between repeats" in out


def test_crashed_child_fails_the_gate(monkeypatch, capsys, fleet_record):
    def spawn(*args):
        raise run.ChildFailed("exit code 1: boom")

    monkeypatch.setattr(run, "spawn", spawn)
    monkeypatch.setattr(run, "build", lambda: None)
    assert run.main(["--workload", "fleet_autoscale", "--trace", "0", "--seconds", "0"]) == 1
    assert "boom" in capsys.readouterr().out


def test_benchmark_json_names_are_the_emitted_names():
    document = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert document["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    assert document["end_to_end"] == [
        {"name": s.name, "unit": s.unit, "better": s.better, "bound": s.bound} for s in END_TO_END
    ]
    assert document["per_layer"] == [
        {"name": s.name, "unit": s.unit, "better": s.better} for s in PER_LAYER
    ]


def test_every_name_is_measured_on_some_workload():
    measured = set()
    for name in WORKLOADS:
        result = run.run_workload(name, 3, 0.0, trace=True, scale=0.05)
        measured |= set(result["metrics"])
        shares = [result["metrics"][f"{layer}.share"]["value"] for layer in LAYERS]
        assert sum(shares) == pytest.approx(1.0)
        both = json.loads(run.driver_line(result, None))["metrics"]
        assert set(both) == set(SPECS)
    assert measured == set(SPECS)


def write_pair(tmp_path, result, change):
    """Two result files; *change* edits B's metrics in place."""
    paths = []
    for label in ("a", "b"):
        metrics = copy.deepcopy(result["metrics"])
        if label == "b":
            change(metrics)
        document = {"seed": 3, "workloads": {"fleet_autoscale": {"metrics": metrics}}}
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(json.dumps(document))
    return [str(path) for path in paths]


@pytest.fixture
def fleet_result(monkeypatch, fleet_record):
    monkeypatch.setattr(run, "spawn", lambda *args: copy.deepcopy(fleet_record))
    return run.run_workload("fleet_autoscale", 3, 0.0, trace=False)


def scale_rate(factor):
    def change(metrics):
        for key in ("value", "p25", "p75"):
            metrics["sim_req_per_host_s"][key] *= factor
    return change


def test_compare_judges_a_drop_against_the_bound(tmp_path, capsys, fleet_result):
    bound = SPECS["sim_req_per_host_s"].bound
    assert run.compare(*write_pair(tmp_path, fleet_result, scale_rate(1 - 1.2 * bound))) == 1
    assert "worse" in capsys.readouterr().out
    assert run.compare(*write_pair(tmp_path, fleet_result, scale_rate(1 - 0.3 * bound))) == 0
    out = capsys.readouterr().out
    assert "worse" not in out and "within" in out


def test_compare_reports_wide_quartiles_as_unresolved(tmp_path, capsys, fleet_result):
    def widen(metrics):
        metrics["sim_req_per_host_s"]["p25"] *= 0.5

    assert run.compare(*write_pair(tmp_path, fleet_result, widen)) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_demands_equal_simulated_metrics(tmp_path, capsys, fleet_result):
    def drift(metrics):
        metrics["sim_mean_s"]["value"] *= 1.001
        metrics["core.autoscale.handoffs"]["value"] += 1

    assert run.compare(*write_pair(tmp_path, fleet_result, drift)) == 1
    assert capsys.readouterr().out.count("DIFFERENT") == 2
