"""Reach census: ``python tools/reach.py [--check]`` writes docs/reach.md.

Runs each product run under cProfile in a fresh interpreter and maps each profiled code
object to the def ``ast`` finds at its first line (a decorated def starts at its first
decorator). ``--check`` fails instead of writing when docs/reach.md is stale."""

import argparse
import ast
import json
import os
import pstats
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REPORT = ROOT / "docs" / "reach.md"
#: Besides CI's own ``python -m repro`` runs: a dashboard run and short sweeps.
COMMANDS = """\
telemetry --quick --scenario shard --dashboard
fig7 --degrees 1,4
fig9 --clients 6,21 --duration 40
fig10 --clients 6,21 --duration 40
table1 --clients 6,21 --duration 40
drops --clients 21 --duration 40
faults --mtbf 20 --duration 40
shard --shards 1,2 --duration 20 --mode broker
shard --shards 1,2 --duration 20 --mode centralized
pipeline --model all""".splitlines()
DESCRIBED = ("pipeline", "faults", "shard", "cache", "obs", "chaos", "telemetry", "autoscale")
WORKLOADS = ("qos_broker", "qos_api", "cache_read", "cache_write", "fleet_autoscale")
PYTEST = ("-m", "pytest", "-q", "-p", "no:cacheprovider")
HEADER = """# Reach census

Written by `python tools/reach.py` from {runs} product runs (its `product_runs`). Blind
spots: the claim files run with `--benchmark-disable`, as pytest-benchmark's `pedantic`
mode clears an installed profiler; `sim/parallel._worker_main` runs in a forked child
the profiler cannot see. A def nested in a listed one is counted with it.

## Unreached lines by package

| package | lines |
|---|---|
"""


def product_runs():
    """The argv (after ``python -m cProfile -o FILE``) of each product run."""
    runs = [("-m", "repro", name, "--describe") for name in DESCRIBED]
    # CI's --quick runs, each `run:` folded over lines that start with "--".
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    runs += [("-m", "repro", *c.split()) for c in re.findall(r"-m repro (.*(?:\n *--.*)*)", ci)]
    runs += [("-m", "repro", *line.split()) for line in COMMANDS]
    runs += [(str(path),) for path in sorted((ROOT / "examples").glob("*.py"))]
    runs += [(str(ROOT / "benchmarks/e2e/child.py"), w, "2026", "0", "0.1") for w in WORKLOADS]
    claims = sorted((ROOT / "benchmarks").glob("test_*.py"))
    runs += [(*PYTEST, str(path), "--benchmark-disable") for path in claims]
    runs.append((*PYTEST, str(ROOT / "benchmarks" / "perf")))
    # Last, once the quick runs have written them: CI's export checks.
    return runs + [(str(Path(__file__).resolve()), "--validate")]


def validate_exports() -> int:
    """CI's schema checks of the exports the quick runs left in the working directory."""
    from repro.obs import validate_chrome_trace, validate_prometheus, validate_telemetry_jsonl
    problems = []
    for run in ("fig7", "faults"):
        problems += validate_chrome_trace(json.loads(Path(f"OBS_{run}_trace.json").read_text()))
    for run in ("qos", "chaos"):
        problems += validate_telemetry_jsonl(Path(f"TELEMETRY_{run}.jsonl").read_text().splitlines())
        problems += validate_prometheus(Path(f"TELEMETRY_{run}.prom").read_text())
    print(problems or "exports valid")
    return 1 if problems else 0


def reached_lines(runs, workdir: Path):
    """Run each product run under cProfile; the (path, first line)s it called."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    reached, out = set(), str(workdir / "run.prof")
    for argv in runs:
        command = [sys.executable, "-m", "cProfile", "-o", out, *argv]
        done = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"product run failed: {' '.join(argv)}\n{done.stdout}{done.stderr}")
        for filename, line, _name in pstats.Stats(out).stats:
            if Path(filename).is_relative_to(SRC):
                reached.add((Path(filename).relative_to(ROOT).as_posix(), line))
    return reached


def defs(node, prefix=""):
    """``(first line, last line, qualified name, nested defs)`` per def."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            name = f"{prefix}{child.name}"
            found.append((first, child.end_lineno, name, defs(child, f"{name}.")))
        else:
            inner = f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix
            found += defs(child, inner)
    return found


def report(reached, runs: int) -> str:
    """The text of docs/reach.md for the *reached* (path, line) set."""
    unreached, lines, total = [], Counter(), 0
    for path in sorted(SRC.rglob("*.py")):
        rel, package = path.relative_to(ROOT).as_posix(), path.relative_to(SRC).parts[1]
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += sum(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(tree))
        stack = defs(tree)
        while stack:
            first, last, name, nested = stack.pop(0)
            if (rel, first) in reached:
                stack = nested + stack
            else:
                unreached.append(f"{rel}:{first} {name}")
                lines[package.removesuffix(".py")] += last - first + 1
    return "\n".join([
        HEADER.format(runs=runs) + "\n".join(f"| {p} | {n} |" for p, n in sorted(lines.items())),
        f"| **total** | **{sum(lines.values())}** |",
        "", f"## Defs no product run calls: {len(unreached)} of {total}", "",
        "```", *unreached, "```", "",
    ])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="fail if docs/reach.md is stale")
    parser.add_argument("--validate", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.validate:
        return validate_exports()
    runs = product_runs()
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        text = report(reached_lines(runs, Path(workdir)), len(runs))
    if not args.check:
        REPORT.write_text(text, encoding="utf-8")
    elif not REPORT.exists() or REPORT.read_text(encoding="utf-8") != text:
        sys.exit("docs/reach.md is stale: run python tools/reach.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
