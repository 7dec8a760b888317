"""Reach census: ``python tools/reach.py [--check]`` writes docs/reach.md.

Runs each product run in a fresh interpreter under a stdlib line tracer (``sys.settrace``,
local only to frames under ``src/``) and records the lines it executes and the code objects
it enters. A def is reached when its code object is entered; ``ast`` finds the def at the
code object's first line (a decorated def starts at its first decorator). Inside reached defs
the report lists each run of executable lines that no run executed, where the executable
lines are those the compiled code objects map instructions to. ``src/`` is read once, before
the runs start; the census fails if it changed by the end. ``--check`` fails instead of
writing when docs/reach.md is stale."""

import argparse
import ast
import json
import os
import re
import runpy
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
#: A run of at least this many unexecuted executable lines inside a reached def is listed.
MIN_BLOCK = 5
#: Code objects compiled from expressions inside a def; their lines count as the def's.
INLINE = {"<lambda>", "<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}
HEADER = """# Reach census

Written by `python tools/reach.py` from {runs} product runs (its `product_runs`), each traced
line by line. Blind spots: the claim files run with `--benchmark-disable`, as
pytest-benchmark's `pedantic` mode clears an installed tracer; `sim/parallel._worker_main`
runs in a forked child that exits without writing its trace. A def nested in a listed one is
counted with it.

## Unreached lines by package

| package | lines |
|---|---|
"""


def product_runs():
    """The argv (after ``python``) of each product run."""
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


def trace_run(out: str, argv) -> int:
    """Run *argv* as ``python`` would, tracing ``src/`` lines; write them to *out* as JSON."""
    prefix, entered, executed = str(SRC) + os.sep, set(), set()
    add_line, add_code = executed.add, entered.add

    def local(frame, event, _arg):
        if event == "line":
            add_line((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, _event, _arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            add_code((code.co_filename, code.co_firstlineno))
            return local
        return None

    module = argv[1] if argv[0] == "-m" else None
    sys.argv = list(argv[1:] if module else argv)
    sys.path[0] = os.getcwd() if module else str(Path(argv[0]).resolve().parent)
    sys.settrace(tracer)
    try:  # a SystemExit from the run passes through, with its exit status
        if module:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    finally:
        sys.settrace(None)
        rel = lambda pairs: sorted([Path(f).relative_to(ROOT).as_posix(), n] for f, n in pairs)
        Path(out).write_text(json.dumps({"entered": rel(entered), "executed": rel(executed)}))
    return 0


def traced(runs, workdir: Path):
    """Run each product run in a fresh child; the (path, line)s entered and executed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    entered, executed, out = set(), set(), str(workdir / "trace.json")
    for argv in runs:
        command = [sys.executable, str(Path(__file__).resolve()), "--trace", out, *argv]
        done = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"product run failed: {' '.join(argv)}\n{done.stdout}{done.stderr}")
        found = json.loads(Path(out).read_text())
        entered.update(map(tuple, found["entered"]))
        executed.update(map(tuple, found["executed"]))
    return entered, executed


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


def executable(code, owner=None, found=None):
    """``first line -> executable lines`` of each function code object under *code*.

    A lambda's or comprehension's lines count as its enclosing def's (*owner*)."""
    found = {} if found is None else found
    for const in code.co_consts:
        if not hasattr(const, "co_lines"):
            continue
        inner = owner if const.co_name in INLINE else None
        if const.co_name not in INLINE and const.co_flags & 0x1:  # CO_OPTIMIZED: a function
            inner = const.co_firstlineno
        if inner is not None:
            own = found.setdefault(inner, set())
            own.update(line for _, _, line in const.co_lines() if line is not None)
            # Entering a def runs its first line's RESUME, which fires no line event.
            own.discard(inner)
        executable(const, inner, found)
    return found


def snapshot():
    """Read ``src/`` once: ``{path: (text, defs, def count, executable lines)}``."""
    files = {}
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        count = sum(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(tree))
        code = compile(tree, str(path), "exec")
        files[path.relative_to(ROOT).as_posix()] = (text, defs(tree), count, executable(code))
    return files


def blocks(lines, executed):
    """Maximal runs of *lines* (sorted) that are not in *executed*."""
    runs, run = [], []
    for line in sorted(lines):
        if line in executed:
            run = []
        else:
            if not run:
                runs.append(run)
            run.append(line)
    return runs


def report(files, entered, executed, runs: int) -> str:
    """The text of docs/reach.md for the *entered* and *executed* (path, line) sets."""
    unreached, dead, lines, total = [], [], Counter(), 0
    for rel, (_text, tree, count, code_lines) in files.items():
        package = Path(rel).relative_to("src").parts[1].removesuffix(".py")
        total += count
        ran = {line for path, line in executed if path == rel}
        stack = list(tree)
        while stack:
            first, last, name, nested = stack.pop(0)
            if (rel, first) not in entered:
                unreached.append(f"{rel}:{first} {name}")
                lines[package] += last - first + 1
                continue
            stack = nested + stack
            for run in blocks(code_lines.get(first, ()), ran):
                if len(run) >= MIN_BLOCK:
                    dead.append((rel, run[0], run[-1], name, len(run)))
    dead.sort(key=lambda block: (block[0], block[1]))
    return "\n".join([
        HEADER.format(runs=runs) + "\n".join(f"| {p} | {n} |" for p, n in sorted(lines.items())),
        f"| **total** | **{sum(lines.values())}** |",
        "", f"## Defs no product run calls: {len(unreached)} of {total}", "",
        "```", *unreached, "```", "",
        f"## Blocks no product run executes inside reached defs: {len(dead)} blocks, "
        f"{sum(block[4] for block in dead)} executable lines", "",
        f"Each run of at least {MIN_BLOCK} executable lines, as `path:first-last def`.", "",
        "```", *(f"{rel}:{first}-{last} {name}" for rel, first, last, name, _ in dead), "```", "",
    ])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="fail if docs/reach.md is stale")
    parser.add_argument("--validate", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--trace", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.validate:
        return validate_exports()
    if args.trace:
        return trace_run(args.trace[0], args.trace[1:])
    files, runs = snapshot(), product_runs()
    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        entered, executed = traced(runs, Path(workdir))
    now = {p.relative_to(ROOT).as_posix(): p.read_text(encoding="utf-8") for p in SRC.rglob("*.py")}
    changed = sorted(set(now) ^ set(files) | {r for r in now.keys() & files if now[r] != files[r][0]})
    if changed:
        sys.exit(f"src/ changed while the census ran, rerun it on a still tree: {changed}")
    text = report(files, entered, executed, len(runs))
    if not args.check:
        REPORT.write_text(text, encoding="utf-8")
    elif not REPORT.exists() or REPORT.read_text(encoding="utf-8") != text:
        sys.exit("docs/reach.md is stale: run python tools/reach.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
