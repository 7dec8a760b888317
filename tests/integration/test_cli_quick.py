"""The nine ``--quick`` runs CI makes, byte for byte.

Each row is one ``python -m repro ... --quick`` invocation from
``.github/workflows/ci.yml``, run in a fresh directory with the file
names CI uses. Its stdout and its ``--summary-out`` JSON are pinned in
``cli_quick/``; its trace or telemetry export (up to 2.8 MB) is pinned
by sha256. Regenerate a pin only for a deliberate change of output::

    cd "$(mktemp -d)" && PYTHONHASHSEED=0 PYTHONPATH=$REPO/src \\
        python -m repro chaos --quick --summary-out CHAOS_soak.json \\
        > $REPO/tests/integration/cli_quick/chaos_soak.txt
    cp CHAOS_soak.json $REPO/tests/integration/cli_quick/
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PINNED = Path(__file__).with_name("cli_quick")

#: name -> (argv, the --summary-out file or None, export digests).
RUNS = {
    "obs_fig7": (
        ["obs", "--quick", "--scenario", "fig7", "--trace-sample", "1",
         "--slowest", "3", "--export", "OBS_fig7_trace.json"],
        None,
        {"OBS_fig7_trace.json":
         "7a9bab54b59161108a74ff9c200e743c94718791af506b8af3e5b2bbb4d9a096"},
    ),
    "obs_faults": (
        ["obs", "--quick", "--scenario", "faults", "--trace-sample", "1",
         "--slowest", "3", "--export", "OBS_faults_trace.json"],
        None,
        {"OBS_faults_trace.json":
         "46b2552e31a8cec228606c920e45dd0ecb8d7fc6d7764d3d634f2229f98f7abd"},
    ),
    "chaos_soak": (
        ["chaos", "--quick", "--summary-out", "CHAOS_soak.json"],
        "CHAOS_soak.json",
        {},
    ),
    "chaos_shard": (
        ["chaos", "--quick", "--shards", "4", "--replicas", "2",
         "--summary-out", "CHAOS_shard.json"],
        "CHAOS_shard.json",
        {},
    ),
    "autoscale_run": (
        ["autoscale", "--quick", "--summary-out", "AUTOSCALE_run.json"],
        "AUTOSCALE_run.json",
        {},
    ),
    "autoscale_soak": (
        ["autoscale", "--soak", "--quick",
         "--summary-out", "AUTOSCALE_soak.json"],
        "AUTOSCALE_soak.json",
        {},
    ),
    "cache_tier": (
        ["cache", "--quick", "--summary-out", "CACHE_tier.json"],
        "CACHE_tier.json",
        {},
    ),
    "telemetry_qos": (
        ["telemetry", "--quick", "--slo", "--export", "TELEMETRY_qos.jsonl"],
        None,
        {"TELEMETRY_qos.jsonl":
         "d6b774aff79361ee2667c21548d0c58dc70cba3455b5caaf6ae0b0d26bc887bc"},
    ),
    "telemetry_chaos": (
        ["telemetry", "--quick", "--scenario", "chaos", "--slo",
         "--export", "TELEMETRY_chaos.jsonl"],
        None,
        {"TELEMETRY_chaos.jsonl":
         "6615a99b1e6dd094c367de7681164ab5cbc27acd78ed80df1358ab2fef8c71d0"},
    ),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_quick_run_is_byte_identical(name, tmp_path):
    argv, summary, exports = RUNS[name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    run = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=tmp_path,
        capture_output=True,
        env=env,
        check=True,
    )
    assert run.stdout == (PINNED / f"{name}.txt").read_bytes()
    if summary is not None:
        assert (tmp_path / summary).read_bytes() == (PINNED / summary).read_bytes()
    for export, digest in exports.items():
        assert hashlib.sha256((tmp_path / export).read_bytes()).hexdigest() == digest
