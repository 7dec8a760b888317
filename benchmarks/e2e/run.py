"""The repo's standing benchmark: one command, five workloads.

    python benchmarks/e2e/run.py [--seed N] [--workload NAME] [--out FILE]
    python benchmarks/e2e/run.py --compare A.json B.json

Works from any directory with no environment set up. Workloads run one
after another; each repeat is a fresh child interpreter (``child.py``)
so import time, build time and peak memory are measured per repeat.
With ``--workload`` the last line of output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``) for drivers:
``--trace 0`` measures only the end-to-end metrics, ``--trace 1`` only
the per-layer ones. See README.md for what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from check import check_fig9_shape, check_workload, digest
from metrics import (
    END_TO_END, PER_LAYER, SPECS, host_metrics, operations, simulated_metrics, trace_metrics,
)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Fewest untraced repeats a median is taken over.
MIN_REPEATS = 3
#: A child that runs longer than this is killed (a repeat takes 3-6 s, traced ~15 s).
CHILD_TIMEOUT_S = 150


class ChildFailed(Exception):
    """A child interpreter crashed, hung or printed no result."""


def child_env() -> Dict[str, str]:
    """The parent's environment with ``src/`` importable and hashing fixed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def build() -> None:
    """Compile ``repro`` to bytecode so no repeat pays for it in ``setup_s``."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        check=True, env=child_env(), timeout=CHILD_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )


def spawn(name: str, seed: int, trace: bool, scale: float) -> Dict[str, Any]:
    """Run one repeat of workload *name* in a fresh interpreter."""
    command = [sys.executable, str(HERE / "child.py"), name, str(seed), str(int(trace)), str(scale)]
    try:
        done = subprocess.run(
            command, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"no result after {CHILD_TIMEOUT_S} s") from error
    if done.returncode != 0:
        raise ChildFailed(f"exit code {done.returncode}: {done.stderr.strip()[-400:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(
    name: str, seed: int, seconds: float, trace: Optional[bool] = None, scale: float = 1.0
) -> Dict[str, Any]:
    """Measure workload *name* and check its outputs.

    Untraced repeats run until their timed walls add up to *seconds*
    (at least ``MIN_REPEATS``); then one traced repeat. ``trace=False``
    skips the traced repeat; ``trace=True`` keeps it and cuts the
    untraced repeats to the one the traced numbers are relative to.
    *scale* shrinks the simulated duration (self-test only).
    """
    records: List[Dict[str, Any]] = []
    failures: List[str] = []
    crashed = 0

    def repeat(traced: bool) -> None:
        nonlocal crashed
        try:
            records.append(spawn(name, seed, traced, scale))
        except ChildFailed as error:
            crashed += 1
            failures.append(f"{name}: repeat {len(records) + crashed} failed: {error}")

    def enough() -> bool:
        done = len(records) + crashed
        if trace:
            return done >= 1
        # A crash already fails the run; do not keep spending time on it.
        return done >= MIN_REPEATS and (
            crashed > 0 or sum(record["wall_s"] for record in records) >= seconds
        )

    while not enough():
        repeat(traced=False)
    untraced = list(records)
    if trace is not False and untraced:
        repeat(traced=True)
    if not untraced:
        return {"failures": failures, "attempted": crashed, "failed": crashed, "metrics": {}}

    summaries = [record["summary"] for record in records]
    failures += check_workload(name, summaries)
    ops = operations(name, summaries[0]["fields"])
    values: Dict[str, Dict[str, float]] = {
        key: {"value": value} for key, value in simulated_metrics(name, summaries[0]).items()
    }
    values.update(host_metrics(untraced, ops.requests))
    for traced in records[len(untraced):]:
        untraced_wall = statistics.median(record["wall_s"] for record in untraced)
        for key, value in trace_metrics(traced, ops.requests, untraced_wall).items():
            values[key] = {"value": value}
    attempted = ops.attempted * len(records) + crashed
    return {
        "loop": WORKLOADS[name].loop,
        "repeats": len(untraced),
        "digest": digest(summaries[0]),
        "failures": failures,
        "ops_attempted": ops.attempted,
        "ops_failed": ops.failed,
        # Driver line: every operation of every repeat; all fail if a check does.
        "attempted": attempted,
        "failed": attempted if failures else ops.unintended * len(records) + crashed,
        "metrics": {key: dict(entry, unit=SPECS[key].unit) for key, entry in values.items()},
    }


def report(name: str, result: Dict[str, Any]) -> None:
    """Print every measured metric of one workload by name, with its unit."""
    for failure in result["failures"]:
        print(f"FAIL {failure}")
    if not result["metrics"]:
        return
    print(
        f"== {name}: {result['loop']} loop, {result['repeats']} untraced repeats, "
        f"ops_attempted {result['ops_attempted']}, ops_failed {result['ops_failed']}, "
        f"digest {result['digest'][:12]}"
    )
    if result["loop"] == "open":
        print("   arrivals are scheduled in virtual time: generator lateness 0 sim_s")
    for spec in END_TO_END + PER_LAYER:
        entry = result["metrics"].get(spec.name)
        if entry is None:
            continue
        line = f"   {spec.name:38s} {entry['value']:<22.10g} {entry['unit']}"
        if "p25" in entry:
            line += f"  (p25 {entry['p25']:.6g}, p75 {entry['p75']:.6g}, n {entry['n']})"
        print(line)


def driver_line(result: Dict[str, Any], trace: Optional[bool]) -> str:
    """The one-object summary a driver reads from the last line."""
    wanted = []
    if trace is not True:
        wanted += END_TO_END
    if trace is not False:
        wanted += PER_LAYER
    metrics = {}
    for spec in wanted:
        # A per-layer metric that does not apply to this workload reads 0.
        entry = result["metrics"].get(spec.name, {"value": 0.0})
        metrics[spec.name] = {"value": entry["value"], "unit": spec.unit}
    return json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def _spread(entry: Dict[str, float]) -> float:
    if "p25" not in entry or not entry["value"]:
        return 0.0
    return (entry["p75"] - entry["p25"]) / abs(entry["value"])


def compare(path_a: str, path_b: str) -> int:
    """Print B against A; return 1 if anything is worse or no longer equal."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    if a["seed"] != b["seed"]:
        print(f"seeds differ ({a['seed']} and {b['seed']}): simulated metrics cannot be compared")
        return 2
    bad = 0
    for name in WORKLOADS:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        ma, mb = a["workloads"][name]["metrics"], b["workloads"][name]["metrics"]
        print(f"== {name}")
        for spec in END_TO_END:
            va, vb = ma[spec.name]["value"], mb[spec.name]["value"]
            change = (vb - va) / va
            if spec.exact:
                verdict = "equal" if va == vb else "DIFFERENT"
            elif max(_spread(ma[spec.name]), _spread(mb[spec.name])) > spec.bound:
                verdict = "unresolved"
            elif (change if spec.better == "lower" else -change) > spec.bound:
                verdict = "worse"
            else:
                verdict = "within"
            bad += verdict in ("worse", "DIFFERENT")
            print(
                f"   {spec.name:26s} A {va:<14.8g} B {vb:<14.8g} {spec.unit:10s}"
                f"{change:+8.2%} of A  (bound {spec.bound:.0%})  {verdict}"
            )
        exact = [key for key in ma if key in mb and SPECS[key].exact and SPECS[key].bound is None]
        differing = [key for key in exact if ma[key]["value"] != mb[key]["value"]]
        for key in differing:
            print(f"   {key:38s} A {ma[key]['value']!r} B {mb[key]['value']!r}  DIFFERENT")
        print(f"   {len(exact) - len(differing)} of {len(exact)} exact per-layer metrics equal")
        bad += len(differing)
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=2026, help="workload seed (default 2026)")
    parser.add_argument("--workload", choices=list(WORKLOADS), help="run only this workload")
    parser.add_argument(
        "--seconds", type=float, default=18.0,
        help="untraced repeats of a workload run until their walls add up to this",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: end-to-end metrics only; 1: per-layer metrics only; default both",
    )
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro" / "workload").is_dir():
        print(f"run.py: nothing to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    trace = None if args.trace is None else bool(args.trace)
    build()
    results = {}
    for name in [args.workload] if args.workload else WORKLOADS:
        results[name] = run_workload(name, args.seed, args.seconds, trace)
        report(name, results[name])
    premium = {
        name: result["metrics"]["sim_premium_p90_s"]["value"]
        for name, result in results.items()
        if name in ("qos_broker", "qos_api") and result["metrics"]
    }
    if len(premium) == 2:
        shape = check_fig9_shape(premium)
        results["qos_broker"]["failures"] += shape
        for failure in shape:
            print(f"FAIL {failure}")

    if args.out:
        document = {
            "seed": args.seed,
            "seconds": args.seconds,
            "host": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "workloads": results,
        }
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.workload and results[args.workload]["metrics"]:
        print(driver_line(results[args.workload], trace))
    return 1 if any(result["failures"] for result in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
