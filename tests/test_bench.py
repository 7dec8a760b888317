"""Unit tests for the ``repro bench`` harness (no real benchmark runs).

The throughput-measuring functions themselves are exercised by
``benchmarks/perf/test_perf_regression.py``; here we pin the harness
logic — baseline comparison, regression detection, report rendering,
and the JSON artifact — with fabricated results so the tier-1 suite
stays fast.
"""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.bench import (
    BenchRegression,
    compare_to_baseline,
    render_report,
    run_bench_command,
)


def _fake_results(macro_rps: float = 8000.0) -> dict:
    return {
        "schema": 2,
        "mode": "quick",
        "suite": "default",
        "seed": 2026,
        "kernel": {
            "events": 1000,
            "wall_s": 0.001,
            "events_per_sec": 1_000_000.0,
            "timeout_wall_s": 0.002,
            "timeout_events_per_sec": 500_000.0,
        },
        "pipeline": {
            "clients": 30,
            "duration_virtual_s": 120.0,
            "repeats": 2,
            "requests": 377,
            "wall_s": 0.15,
            "requests_per_sec": 2500.0,
            "gc_collections": [63, 6, 0],
            "gc_collected_per_request": 39.2,
            "kernel_scheduled_at_end": 41,
        },
        "macro": {
            "clients": 60,
            "duration_virtual_s": 20.0,
            "repeats": 2,
            "requests": 2332,
            "walls_s": [0.3, 0.31],
            "wall_best_s": 0.3,
            "wall_p50_s": 0.3,
            "wall_p99_s": 0.31,
            "requests_per_sec": macro_rps,
            "gc_collections": [310, 28, 2],
            "gc_collected_per_request": 38.7,
            "kernel_scheduled_at_end": 13453,
        },
    }


def _baseline_for(results: dict) -> dict:
    return {
        results["mode"]: {
            name: dict(results[name])
            for name in ("kernel", "pipeline", "macro")
        }
    }


class TestCompare:
    def test_within_budget_is_ok(self):
        results = _fake_results()
        lines = compare_to_baseline(results, _baseline_for(results))
        assert len(lines) == 3
        assert all(line.startswith("        ok") for line in lines)

    def test_regression_is_flagged(self):
        baseline = _baseline_for(_fake_results(macro_rps=8000.0))
        lines = compare_to_baseline(
            _fake_results(macro_rps=4000.0), baseline, max_regression=0.30
        )
        flagged = [line for line in lines if line.startswith("REGRESSION")]
        assert len(flagged) == 1 and "macro" in flagged[0]

    def test_shallow_drop_passes_30_percent_gate(self):
        baseline = _baseline_for(_fake_results(macro_rps=8000.0))
        lines = compare_to_baseline(
            _fake_results(macro_rps=6000.0), baseline, max_regression=0.30
        )
        assert not any(line.startswith("REGRESSION") for line in lines)

    def test_missing_mode_section_is_an_error(self):
        with pytest.raises(ValueError, match="no 'quick' section"):
            compare_to_baseline(_fake_results(), {"full": {}})


class TestRunBenchCommand:
    @pytest.fixture
    def fake_suite(self, monkeypatch):
        results = _fake_results()
        monkeypatch.setattr(
            bench,
            "run_suite",
            lambda quick=False, suite="default": results,
        )
        return results

    def test_writes_json_artifact(self, fake_suite, tmp_path, monkeypatch):
        out = tmp_path / "BENCH_pipeline.json"
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(_baseline_for(fake_suite)))
        report = run_bench_command(
            quick=True, out=str(out), baseline_path=str(baseline)
        )
        written = json.loads(out.read_text())
        assert written["macro"]["requests_per_sec"] == 8000.0
        assert "macro" in report and "ok" in report

    def test_raises_bench_regression_with_report(
        self, fake_suite, tmp_path
    ):
        inflated = _baseline_for(_fake_results(macro_rps=80_000.0))
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(inflated))
        with pytest.raises(BenchRegression) as excinfo:
            run_bench_command(
                quick=True, out="", baseline_path=str(baseline)
            )
        assert "REGRESSION" in excinfo.value.report

    def test_missing_explicit_baseline_is_an_error(self, fake_suite, tmp_path):
        with pytest.raises(FileNotFoundError):
            run_bench_command(
                quick=True,
                out="",
                baseline_path=str(tmp_path / "nope.json"),
            )

    def test_no_baseline_skips_comparison(
        self, fake_suite, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        report = run_bench_command(quick=True, out="", baseline_path=None)
        assert "comparison skipped" in report

    def test_default_out_is_suite_dependent(
        self, fake_suite, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        run_bench_command(quick=True, baseline_path=None)
        assert (tmp_path / "BENCH_pipeline.json").exists()
        run_bench_command(quick=True, baseline_path=None, suite="parallel")
        assert (tmp_path / "BENCH_parallel.json").exists()


class TestCliIntegration:
    def test_main_exits_nonzero_on_regression(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import main

        monkeypatch.setattr(
            bench,
            "run_suite",
            lambda quick=False, suite="default": _fake_results(),
        )
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(_baseline_for(_fake_results(macro_rps=80_000.0)))
        )
        code = main(
            [
                "bench",
                "--quick",
                "--out", str(tmp_path / "out.json"),
                "--baseline", str(baseline),
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "FAILED" in captured.err


class TestReport:
    def test_render_report_mentions_all_three_benchmarks(self):
        report = render_report(_fake_results())
        assert "kernel" in report
        assert "pipeline" in report
        assert "macro" in report
        assert "p99" in report

    def test_render_report_shows_the_collector(self):
        report = render_report(_fake_results())
        assert "gc: 63/6/0 collections (gen 0/1/2), 39.2 objects" in report
        assert "gc: 310/28/2 collections" in report

    def test_render_report_shows_the_kernel_queue(self):
        report = render_report(_fake_results())
        assert "kernel: 41 entries still scheduled" in report
        assert "kernel: 13,453 entries still scheduled" in report

    def test_pipeline_and_macro_record_collector_work(self):
        for result in (
            bench.bench_pipeline(duration=10.0, clients=6, repeats=1),
            bench.bench_macro(duration=10.0, clients=6, repeats=1),
        ):
            generations = result["gc_collections"]
            assert len(generations) == 3
            assert all(isinstance(n, int) and n >= 0 for n in generations)
            assert result["gc_collected_per_request"] >= 0.0
            assert "gc:" in bench._collector_line(result)
            # The run drains, so what is left is not a per-request pile.
            left = result["kernel_scheduled_at_end"]
            assert isinstance(left, int) and 0 <= left < result["requests"]

    def test_percentile_nearest_rank(self):
        walls = [3.0, 1.0, 2.0]
        assert bench._percentile(walls, 0.50) == 2.0
        assert bench._percentile(walls, 0.99) == 3.0
        assert bench._percentile([5.0], 0.99) == 5.0


def _fake_parallel_results() -> dict:
    return {
        "schema": 2,
        "mode": "quick",
        "suite": "parallel",
        "seed": 2026,
        "parallel": {
            "clients": 12,
            "shards": 4,
            "duration_virtual_s": 10.0,
            "repeats": 1,
            "cores": 8,
            "serial": {"wall_s": 2.0, "pages": 600},
            "points": [
                {"workers": 1, "wall_s": 2.2, "pages": 640,
                 "speedup_vs_inprocess": 1.0},
                {"workers": 2, "wall_s": 1.1, "pages": 640,
                 "speedup_vs_inprocess": 2.0},
            ],
            "pages_per_sec_w1": 300.0,
            "best_speedup": 2.0,
        },
    }


class TestSuites:
    def test_unknown_suite_is_an_error(self):
        with pytest.raises(ValueError, match="unknown suite"):
            bench.run_suite(suite="nope")

    def test_suite_names_cover_all_benchmarks(self):
        assert set(bench.SUITES["all"]) == {
            "kernel", "pipeline", "macro", "parallel", "telemetry",
            "autoscale",
        }
        assert bench.SUITES["parallel"] == ("parallel",)
        assert bench.SUITES["telemetry"] == ("telemetry",)
        assert bench.SUITES["autoscale"] == ("autoscale",)

    def test_render_report_parallel_section(self):
        report = render_report(_fake_parallel_results())
        assert "parallel" in report
        assert "serial" in report
        assert "workers=2" in report
        assert "2.00x vs in-process" in report
        assert "kernel" not in report

    def test_compare_skips_missing_benchmarks(self):
        results = _fake_parallel_results()
        baseline = {"quick": {"parallel": {"pages_per_sec_w1": 290.0}}}
        lines = compare_to_baseline(results, baseline)
        assert len(lines) == 1
        assert "parallel.pages_per_sec_w1" in lines[0]
        assert lines[0].lstrip().startswith("ok")

    def test_compare_reports_uncompared_benchmarks(self):
        results = _fake_parallel_results()
        lines = compare_to_baseline(results, {"quick": {}})
        assert len(lines) == 1
        assert "not compared" in lines[0]


class TestProfile:
    def test_profile_macro_writes_pstats_file(self, tmp_path, monkeypatch):
        import pstats

        def tiny_macro(*args, **kwargs):
            sum(range(1000))

        monkeypatch.setattr(bench, "run_qos_experiment", tiny_macro)
        out = tmp_path / "BENCH_profile.pstats"
        summary = bench.profile_macro(out=str(out))
        assert out.exists()
        # The dump must be loadable by the stdlib pstats reader.
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0
        assert "BENCH_profile.pstats" in summary
