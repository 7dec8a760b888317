"""Knob census: every parameter of an experiment entry point has a caller.

An AST walk over ``src/``, ``benchmarks/``, ``examples/`` and ``tests/``
collects, for each public ``repro.workload.run_*_experiment``, the
keywords and the number of positional arguments its call sites pass; the
e2e ``WORKLOADS`` table adds the keyword sets it calls through
``getattr``, plus the ``seed`` its ``invoke`` passes. A call that passes the function itself as an argument
(``census(monkeypatch, run_qos_experiment, n_clients=6)``) counts its
keywords for that function too. A parameter no call site sets is
calibration, and belongs in a named module constant.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import repro.workload

ROOT = Path(__file__).resolve().parents[2]
WALKED = ("src", "benchmarks", "examples", "tests")

#: Parameters kept although no call site sets them, each with its reason.
ALLOWED = {
    ("run_qos_experiment", "service_times"): "§V.B calibration; ROADMAP item 10(c) perturbs it",
    ("run_qos_experiment", "threshold"): "§V.B calibration; ROADMAP item 10(c) perturbs it",
    ("run_qos_experiment", "backend_capacity"): "§V.B calibration; ROADMAP item 10(c) perturbs it",
}


def _entry_points():
    return {
        name: getattr(repro.workload, name)
        for name in repro.workload.__all__
        if name.startswith("run_") and name.endswith("_experiment")
    }


def _name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _e2e_workloads():
    path = ROOT / "benchmarks" / "e2e" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def census():
    """Function name -> (keywords passed, most positional arguments passed)."""
    functions = set(_entry_points())
    keywords = defaultdict(set)
    positional = defaultdict(int)
    for top in WALKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                passed = {kw.arg for kw in node.keywords if kw.arg is not None}
                called = _name_of(node.func)
                if called in functions:
                    keywords[called] |= passed
                    direct = [arg for arg in node.args if not isinstance(arg, ast.Starred)]
                    positional[called] = max(positional[called], len(direct))
                for arg in node.args:
                    if _name_of(arg) in functions:
                        keywords[_name_of(arg)] |= passed
    for workload in _e2e_workloads().values():
        keywords[workload.function] |= set(workload.kwargs) | {"seed"}
    return keywords, positional


def unset_parameters():
    """``(function, parameter)`` pairs no call site sets, allow-list excluded."""
    keywords, positional = census()
    unset = []
    for name, function in sorted(_entry_points().items()):
        for index, param in enumerate(inspect.signature(function).parameters.values()):
            by_position = (
                param.kind is not param.KEYWORD_ONLY and index < positional[name]
            )
            if by_position or param.name in keywords[name]:
                continue
            if (name, param.name) not in ALLOWED:
                unset.append((name, param.name))
    return unset


def test_every_experiment_parameter_has_a_caller():
    unset = unset_parameters()
    listing = "\n".join(f"  {name}({param}=...)" for name, param in unset)
    assert not unset, f"{len(unset)} parameters no caller sets:\n{listing}"


def test_allow_list_names_real_parameters():
    entry_points = _entry_points()
    for name, param in ALLOWED:
        assert param in inspect.signature(entry_points[name]).parameters

