"""Tests for the experiment CLI."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig7_defaults(self):
        args = build_parser().parse_args(["fig7"])
        assert args.command == "fig7"
        assert args.degrees[0] == 1
        assert args.seed == 2026

    def test_int_list_parsing(self):
        args = build_parser().parse_args(["fig9", "--clients", "5,10"])
        assert args.clients == [5, 10]

    def test_bad_int_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9", "--clients", "ten"])

    def test_seed_per_subcommand(self):
        args = build_parser().parse_args(["fig7", "--seed", "9"])
        assert args.seed == 9

    def test_subcommands_are_exactly_the_experiments(self):
        # Performance is measured by benchmarks/e2e/run.py, not a subcommand.
        (sub,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(sub.choices) == {
            "fig7", "fig9", "fig10", "table1", "drops", "pipeline",
            "faults", "shard", "obs", "chaos", "cache", "telemetry",
            "autoscale",
        }
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_obs_defaults(self):
        args = build_parser().parse_args(["obs"])
        assert args.command == "obs"
        assert args.scenario == "qos"
        assert args.trace_sample == 1
        assert args.slowest == 5
        assert args.export is None and args.jsonl is None
        assert not args.quick and not args.describe

    def test_obs_flags(self):
        args = build_parser().parse_args(
            ["obs", "--scenario", "fig7", "--trace-sample", "4",
             "--slowest", "2", "--export", "t.json", "--jsonl", "s.jsonl",
             "--quick"]
        )
        assert args.scenario == "fig7"
        assert args.trace_sample == 4
        assert args.slowest == 2
        assert args.export == "t.json"
        assert args.jsonl == "s.jsonl"
        assert args.quick

    def test_obs_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "--scenario", "nope"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.command == "chaos"
        assert not args.describe and not args.quick
        assert args.duration == 300.0
        assert args.capacity == 48
        assert args.policy == "drop-lowest"
        assert args.mtbf == 25.0 and args.mttr == 2.0
        assert args.recovery == "replay"
        assert args.availability_floor == 0.99
        assert args.summary_out is None
        assert args.seed == 2026

    def test_chaos_flags(self):
        args = build_parser().parse_args(
            ["chaos", "--quick", "--capacity", "32", "--policy", "reject-new",
             "--mtbf", "10", "--mttr", "1", "--recovery", "shed",
             "--availability-floor", "0.95", "--summary-out", "s.json"]
        )
        assert args.quick
        assert args.capacity == 32
        assert args.policy == "reject-new"
        assert args.mtbf == 10.0 and args.mttr == 1.0
        assert args.recovery == "shed"
        assert args.availability_floor == 0.95
        assert args.summary_out == "s.json"

    def test_chaos_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--policy", "drop-random"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--recovery", "pray"])


class TestCommands:
    def test_fig7_output(self, capsys):
        assert main(["fig7", "--degrees", "1,4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "degree" in out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 5  # title + header + rule + 2 rows

    def test_fig9_output(self, capsys):
        assert main(["fig9", "--clients", "4", "--duration", "15"]) == 0
        out = capsys.readouterr().out
        assert "api_s" in out and "broker_s" in out

    def test_fig10_output(self, capsys):
        assert main(["fig10", "--clients", "4", "--duration", "15"]) == 0
        out = capsys.readouterr().out
        assert "qos1_s" in out and "qos3_s" in out

    def test_table1_output(self, capsys):
        assert main(["table1", "--clients", "4", "--duration", "15"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_drops_prints_three_tables(self, capsys):
        assert main(["drops", "--clients", "4", "--duration", "15"]) == 0
        out = capsys.readouterr().out
        for table in ("Table II", "Table III", "Table IV"):
            assert table in out

    def test_pipeline_describe(self, capsys):
        assert main(["pipeline", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "distributed broker pipeline" in out
        assert "centralized broker pipeline" in out
        assert "fault-tolerant broker pipeline" in out
        assert "ingress/dispatch boundary" in out
        # The distributed plan admits at the broker; the centralized
        # section must not list an admission stage.
        _, rest = out.split("centralized broker pipeline")
        centralized = rest.split("fault-tolerant broker pipeline")[0]
        names = [
            line.split()[1]
            for line in centralized.splitlines()
            if line.strip()[:1].isdigit()
        ]
        assert "admission" not in names
        # The load reporter is a broker process, no step of a request.
        assert "load-report" not in out
        # The fault-tolerant plan wraps execution in the fault stages.
        fault_tolerant = rest.split("fault-tolerant broker pipeline")[1]
        ft_names = [
            line.split()[1]
            for line in fault_tolerant.splitlines()
            if line.strip()[:1].isdigit()
        ]
        for stage in ("timeout", "breaker", "retry", "failover"):
            assert stage in ft_names

    def test_faults_describe(self, capsys):
        assert main(["faults", "--describe"]) == 0
        out = capsys.readouterr().out
        for kind in ("backend-crash", "link-down", "link-degrade", "slow-backend"):
            assert kind in out
        assert "fault-tolerant" in out
        assert "broker.retry.attempts" in out
        assert "broker.breaker.state" in out

    def test_faults_sweep_prints_availability_table(self, capsys):
        assert main([
            "faults", "--mtbf", "20", "--mttr", "4",
            "--duration", "30", "--replicas", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Failure recovery" in out
        assert "outage_avail_pct" in out

    def test_pipeline_describe_one_model(self, capsys):
        assert main(["pipeline", "--describe", "--model", "distributed"]) == 0
        out = capsys.readouterr().out
        assert "distributed broker pipeline" in out
        assert "centralized" not in out

    def test_pipeline_stage_order(self, capsys):
        assert main(["pipeline", "--model", "distributed"]) == 0
        lines = [
            line.strip() for line in capsys.readouterr().out.splitlines()
        ]
        names = [line.split()[1] for line in lines if line[:1].isdigit()]
        assert names == [
            "validate", "arrival", "cache-lookup", "admission", "fidelity",
            "enqueue", "cluster", "execute", "cache-fill", "reply",
        ]

    def test_obs_describe(self, capsys):
        assert main(["obs", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "Span model" in out
        assert "Overhead contract" in out
        assert "chrome://tracing" in out

    def test_obs_quick_run_with_export(self, capsys, tmp_path):
        import json

        from repro.obs import validate_chrome_trace

        export = tmp_path / "trace.json"
        jsonl = tmp_path / "spans.jsonl"
        assert main([
            "obs", "--quick", "--scenario", "fig7", "--trace-sample", "1",
            "--slowest", "2", "--export", str(export), "--jsonl", str(jsonl),
        ]) == 0
        out = capsys.readouterr().out
        assert "obs report" in out
        assert "slowest 2 request(s):" in out
        assert "end-to-end" in out
        assert "schema ok" in out
        doc = json.loads(export.read_text())
        assert validate_chrome_trace(doc) == []
        assert jsonl.read_text().strip()

    def test_chaos_describe(self, capsys):
        assert main(["chaos", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "Chaos soak" in out
        assert "broker-crash" in out
        assert "no-lost-request" in out
        assert "availability-floor" in out

    def test_chaos_quick_run_with_summary(self, capsys, tmp_path):
        import json

        summary = tmp_path / "CHAOS_soak.json"
        assert main(["chaos", "--quick", "--summary-out", str(summary)]) == 0
        out = capsys.readouterr().out
        assert "Chaos soak" in out
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        payload = json.loads(summary.read_text())
        assert payload["invariants_hold"] is True
        assert payload["requests"] > 0
        assert len(payload["invariants"]) == 4

    def test_chaos_invariant_failure_exits_nonzero(self, capsys):
        # An impossible availability floor makes the invariant fail; the
        # CLI must still print the full report and exit 1.
        code = main(["chaos", "--quick", "--availability-floor", "1.0"])
        captured = capsys.readouterr()
        assert code == 1
        assert "INVARIANT availability-floor" in captured.out
        assert "FAIL" in captured.out
        assert "chaos invariants violated" in captured.err

    def test_determinism_across_invocations(self, capsys):
        main(["fig7", "--degrees", "2", "--seed", "11"])
        first = capsys.readouterr().out
        main(["fig7", "--degrees", "2", "--seed", "11"])
        second = capsys.readouterr().out
        assert first == second


class TestCacheCommand:
    def test_cache_defaults(self):
        args = build_parser().parse_args(["cache"])
        assert args.command == "cache"
        assert not args.describe and not args.quick
        assert args.clients == 600
        assert args.brokers == 4
        assert args.duration == 30.0
        assert args.ttl == 2.0
        assert not args.no_views
        assert args.summary_out is None
        assert args.seed == 2026

    def test_cache_flags(self):
        args = build_parser().parse_args(
            ["cache", "--quick", "--clients", "40", "--brokers", "2",
             "--duration", "4", "--ttl", "1.5", "--no-views",
             "--summary-out", "c.json", "--seed", "7"]
        )
        assert args.quick
        assert args.clients == 40 and args.brokers == 2
        assert args.duration == 4.0 and args.ttl == 1.5
        assert args.no_views
        assert args.summary_out == "c.json"
        assert args.seed == 7

    def test_cache_describe(self, capsys):
        assert main(["cache", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "Cache-tier broker pipeline" in out
        assert "cache-tier" in out and "query-combine" in out
        assert "write-through" in out
        assert "broker.cachetier" in out

    def test_pipeline_describes_cache_tier_model(self, capsys):
        assert main(["pipeline", "--describe", "--model", "cache-tier"]) == 0
        out = capsys.readouterr().out
        assert "cache-tier broker pipeline (12 stages)" in out
        assert "query-combine" in out

    def test_cache_small_run_with_summary(self, capsys, tmp_path):
        import json

        summary = tmp_path / "CACHE_tier.json"
        assert main([
            "cache", "--clients", "24", "--brokers", "2", "--duration", "2",
            "--summary-out", str(summary), "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "Cross-request optimization tier" in out
        assert "local-caches" in out and "shared-tier" in out
        assert "backend-load reduction" in out
        payload = json.loads(summary.read_text())
        assert payload["reduction"] > 1.0
        assert payload["modes"]["shared-tier"]["tier_hits"] > 0
        assert payload["modes"]["local-caches"]["tier_hits"] == 0


class TestTelemetryCommand:
    def test_telemetry_defaults(self):
        args = build_parser().parse_args(["telemetry"])
        assert args.command == "telemetry"
        assert args.scenario == "qos"
        assert args.clients == 60
        assert args.duration == 120.0
        assert args.interval == 1.0
        assert args.shards == 4 and args.replicas == 2
        assert args.export is None
        assert not args.slo and not args.dashboard
        assert not args.quick and not args.describe
        assert args.seed == 2026

    def test_telemetry_flags(self):
        args = build_parser().parse_args(
            ["telemetry", "--scenario", "chaos", "--interval", "0.5",
             "--slo", "--dashboard", "--export", "t.jsonl", "--quick",
             "--seed", "7"]
        )
        assert args.scenario == "chaos"
        assert args.interval == 0.5
        assert args.slo and args.dashboard and args.quick
        assert args.export == "t.jsonl"
        assert args.seed == 7

    def test_telemetry_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["telemetry", "--scenario", "nope"])

    def test_telemetry_describe(self, capsys):
        assert main(["telemetry", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "TelemetryScraper" in out
        assert "SLO engine" in out
        assert "Determinism" in out

    def test_telemetry_quick_run_with_export(self, capsys, tmp_path):
        from repro.obs import validate_prometheus, validate_telemetry_jsonl

        jsonl = tmp_path / "TELEMETRY_qos.jsonl"
        assert main([
            "telemetry", "--quick", "--slo", "--export", str(jsonl),
        ]) == 0
        out = capsys.readouterr().out
        assert "scrapes=30" in out
        assert "alert timeline" in out
        lines = jsonl.read_text().splitlines()
        assert validate_telemetry_jsonl(lines) == []
        prom = tmp_path / "TELEMETRY_qos.prom"
        assert validate_prometheus(prom.read_text()) == []

    def test_telemetry_deterministic_across_invocations(self, capsys, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main([
                "telemetry", "--quick", "--export", str(path),
            ]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestAutoscaleCommand:
    def test_autoscale_defaults(self):
        args = build_parser().parse_args(["autoscale"])
        assert args.command == "autoscale"
        assert args.duration is None
        assert args.period == 120.0
        assert args.swing == 10.0
        assert args.target is None
        assert args.wave_period == 24.0
        assert args.min_scale_ins is None
        assert args.summary_out is None
        assert not args.soak and not args.quick and not args.describe
        assert args.seed == 2026

    def test_autoscale_flags(self):
        args = build_parser().parse_args(
            ["autoscale", "--soak", "--quick", "--duration", "60",
             "--wave-period", "12", "--min-scale-ins", "5",
             "--target", "2.0", "--summary-out", "a.json", "--seed", "7"]
        )
        assert args.soak and args.quick
        assert args.duration == 60.0
        assert args.wave_period == 12.0
        assert args.min_scale_ins == 5
        assert args.target == 2.0
        assert args.summary_out == "a.json"
        assert args.seed == 7

    def test_autoscale_describe(self, capsys):
        assert main(["autoscale", "--describe"]) == 0
        out = capsys.readouterr().out
        assert "Graceful drain" in out
        assert "no-lost-request" in out
        assert "pool-efficiency" in out
        assert "drain sniper" in out

    def test_autoscale_quick_run_with_summary(self, capsys, tmp_path):
        import json

        summary = tmp_path / "AUTOSCALE_run.json"
        assert main([
            "autoscale", "--quick", "--summary-out", str(summary),
        ]) == 0
        out = capsys.readouterr().out
        assert "Autoscale headline" in out
        assert out.count("PASS") == 5
        assert "FAIL" not in out
        payload = json.loads(summary.read_text())
        assert payload["invariants_hold"] is True
        assert payload["scale_ins"] > 0
        assert len(payload["invariants"]) == 5

    def test_autoscale_soak_quick_run_with_summary(self, capsys, tmp_path):
        import json

        summary = tmp_path / "AUTOSCALE_soak.json"
        assert main([
            "autoscale", "--soak", "--quick",
            "--summary-out", str(summary),
        ]) == 0
        out = capsys.readouterr().out
        assert "Scale-chaos soak" in out
        assert out.count("PASS") == 6
        assert "FAIL" not in out
        payload = json.loads(summary.read_text())
        assert payload["invariants_hold"] is True
        assert payload["mid_drain_kills"] >= 1
        assert len(payload["invariants"]) == 6

    def test_autoscale_invariant_failure_exits_nonzero(self, capsys):
        # An impossible scale-in floor fails scale-in-coverage; the CLI
        # must still print the full report and exit 1.
        code = main([
            "autoscale", "--soak", "--quick",
            "--min-scale-ins", "100000",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "INVARIANT scale-in-coverage" in captured.out
        assert "FAIL" in captured.out
        assert "chaos invariants violated" in captured.err

    def test_autoscale_deterministic_across_invocations(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main([
                "autoscale", "--quick", "--summary-out", str(path),
            ]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()


#: Flag values an experiment rejects: each is a usage error (exit 2).
BAD_FLAG_VALUES = [
    ["cache", "--quick", "--brokers", "0"],
    ["chaos", "--quick", "--shards", "2", "--replicas", "0"],
    ["autoscale", "--quick", "--swing", "1"],
    ["telemetry", "--quick", "--interval", "0"],
    ["fig9", "--clients", "2"],
]


@pytest.mark.parametrize("argv", BAD_FLAG_VALUES, ids=lambda argv: argv[0])
def test_bad_flag_value_exits_2_without_traceback(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"repro {argv[0]}: error: ")
    assert done.stderr.count("\n") == 1
