"""Knob census: every defaulted parameter of a public callable has a caller.

The census covers each public callable of ``src/repro``: class
constructors (a dataclass's defaulted fields included, ``*Result``
records excluded), module functions and public methods. An AST walk over
``src/``, ``benchmarks/`` and ``examples/`` collects, per callable, the
keywords and the number of positional arguments its call sites pass.

Tests are not callers. A test that sets a parameter shows the parameter
can be varied, not that anything needs it varied; counting tests would
let every option justify itself by the test written for it. Examples
are callers: they are shipped programs a user runs and copies, so a
value an example sets is a value a user sets. A test that needs another
value of a constant monkeypatches the constant. A call site is matched by the name it calls (``Name(...)`` or
``obj.name(...)``), so two callables that share a name share their call
sites. A ``*args`` argument may fill every position. Besides plain
calls, these count:

* ``super().name(...)`` and ``cls(...)``/``type(self)(...)`` inside a
  class, for the base's and the class's own callable;
* ``dataclasses.replace(obj, field=...)``, for every dataclass with that
  field;
* ``f(**spec)`` where ``spec`` is a ``dict(...)`` or dict literal bound
  in the same function, for its keys;
* a helper ``def h(..., **kwargs)`` that calls ``f(**kwargs)``, for the
  keywords its own callers pass beyond its named parameters;
* ``getattr(obj, name)(...)``, for every method a string constant of
  the same file names (the differential tests' dispatch);
* a call that passes the callable itself as an argument
  (``census(monkeypatch, run_qos_experiment, n_clients=6)``,
  ``partial(f, x=1)``), for its keywords;
* the e2e ``WORKLOADS`` table, for the keyword sets and the ``seed`` its
  ``invoke`` passes through ``getattr``.

A parameter no call site sets is a constant, or a value derived from the
inputs, and does not belong in a signature.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
from collections import defaultdict
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[2]
WALKED = ("src", "benchmarks", "examples")

_CALIBRATION = "§V.B calibration; ROADMAP item 13(c) perturbs it by ± 20 %"
_THINK_TIME = "§V.B calibration; ROADMAP item 5(a) scales the client think time"
_PORT = "deployment address"
_INTENSITY_GATE = "the paper's per-class intensity gate (core/admission.py)"
_GRADE_ONE = "DESIGN §13.4's grade-1 consistency, which ROADMAP item 4 checks"
_FORKED_DRIVER = "the forked driver, kept until ROADMAP item 9(b) row 2 decides it"
_KERNEL_DIFFERENTIAL = "the reference-kernel differential drives it in both kernels"
_GOLDEN_DRAIN = "the golden overload section drains 30 s; the overload claim 90 s"

#: Every reason a parameter may be kept for.
REASONS = (
    _CALIBRATION,
    _THINK_TIME,
    _PORT,
    _INTENSITY_GATE,
    _GRADE_ONE,
    _FORKED_DRIVER,
    _KERNEL_DIFFERENTIAL,
    _GOLDEN_DRAIN,
)

#: Parameters kept although no call site sets them, each with its reason.
ALLOWED = {
    ("run_qos_experiment", "service_times"): _CALIBRATION,
    ("run_qos_experiment", "threshold"): _CALIBRATION,
    ("run_qos_experiment", "backend_capacity"): _CALIBRATION,
    ("run_qos_experiment", "think_time"): _THINK_TIME,
    ("BackendWebServer", "port"): _PORT,
    ("BrokerSupervisor", "port"): _PORT,
    ("DatabaseServer", "port"): _PORT,
    ("FileServer", "port"): _PORT,
    ("FrontendWebServer", "port"): _PORT,
    ("LoadListener", "port"): _PORT,
    ("QoSPolicy", "rate_limits"): _INTENSITY_GATE,
    ("SharedCacheTier.write_behind", "txn_id"): _GRADE_ONE,
    ("run_sharded_qos_experiment", "workers"): _FORKED_DRIVER,
    ("Event.succeed", "delay"): _KERNEL_DIFFERENTIAL,
    ("Event.fail", "delay"): _KERNEL_DIFFERENTIAL,
    ("Simulation.timeout", "value"): _KERNEL_DIFFERENTIAL,
    ("Store", "capacity"): _KERNEL_DIFFERENTIAL,
    ("run_overload_experiment", "drain"): _GOLDEN_DRAIN,
}


def _modules():
    """Every public module of the package, imported."""
    package = Path(repro.__file__).parent
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        if parts[-1] == "__init__" or any(part.startswith("_") for part in parts):
            continue
        yield importlib.import_module(".".join(parts))


def _is_ours(function):
    return inspect.isfunction(function) and function.__module__.startswith("repro.")


@functools.lru_cache(maxsize=None)
def public_callables():
    """``(callables, call names, classes)`` of the package.

    *callables* maps each public callable's function to ``(name, takes
    self)``; *name* is how the census reports it (``ServiceBroker`` for a
    constructor, ``BrokerPool.drain`` for a method). *call names* maps
    the name a call site uses to the functions it may reach: a subclass
    that inherits its constructor reaches its base's function, which is
    reported under the base. *classes* maps every class name, private
    ones included, to its classes (for ``super()`` calls).
    """
    callables = {}
    call_names = defaultdict(set)
    classes = defaultdict(list)
    for module in _modules():
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                classes[name].append(obj)
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj):
                callables.setdefault(obj, (name, False))
                call_names[name].add(obj)
            if not inspect.isclass(obj):
                continue
            init = obj.__init__
            if _is_ours(init) and not name.endswith("Result"):
                callables.setdefault(init, (init.__qualname__.rsplit(".", 1)[0], True))
                call_names[name].add(init)
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                function = getattr(member, "__func__", member)
                if _is_ours(function):
                    takes_self = not isinstance(member, staticmethod)
                    callables.setdefault(function, (f"{name}.{attr}", takes_self))
                    call_names[attr].add(function)
    return callables, call_names, classes


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


def _dict_keys(node):
    """The keys of a ``dict(k=...)`` call or a string-keyed dict literal."""
    if isinstance(node, ast.Call) and _name_of(node.func) == "dict":
        return {kw.arg for kw in node.keywords if kw.arg is not None}
    if isinstance(node, ast.Dict):
        return {k.value for k in node.keys if isinstance(k, ast.Constant)}
    return None


class _CallSites(ast.NodeVisitor):
    """Collects, per function, the keywords and positional counts passed."""

    def __init__(self):
        callables, self.call_names, self.classes = public_callables()
        self.takes_self = {f: entry[1] for f, entry in callables.items()}
        self.dataclass_inits = [
            cls.__init__
            for group in self.classes.values()
            for cls in group
            if dataclasses.is_dataclass(cls) and cls.__init__ in callables
        ]
        self.keywords = defaultdict(set)
        self.positional = defaultdict(int)
        #: Keywords passed to each called name (for ``**kwargs`` helpers).
        self.by_called_name = defaultdict(set)
        #: Helper name -> (its named parameters, the callables it
        #: forwards its ``**kwargs`` to).
        self.forwards = defaultdict(list)
        self.enclosing = []
        self.dicts = [{}]
        self.strings = set()

    def visit_file(self, tree):
        self.strings = {
            node.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        self.visit(tree)

    def visit_ClassDef(self, node):
        self.enclosing.append(node)
        self.generic_visit(node)
        self.enclosing.pop()

    def visit_FunctionDef(self, node):
        dicts = {}
        for inner in ast.walk(node):
            if isinstance(inner, ast.Assign) and len(inner.targets) == 1:
                keys = _dict_keys(inner.value)
                if keys is not None and isinstance(inner.targets[0], ast.Name):
                    dicts[inner.targets[0].id] = keys
        if node.args.kwarg is not None:
            named = {arg.arg for arg in node.args.args + node.args.kwonlyargs}
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and any(
                    kw.arg is None and _name_of(kw.value) == node.args.kwarg.arg
                    for kw in inner.keywords
                ):
                    self.forwards[node.name].append((named, self._targets(inner.func)))
        self.dicts.append(dicts)
        self.generic_visit(node)
        self.dicts.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _own_class(self):
        if not self.enclosing:
            return set()
        return self.call_names.get(self.enclosing[-1].name, set())

    def _super(self, attr):
        if not self.enclosing:
            return set()
        targets = set()
        for base in self.enclosing[-1].bases:
            for cls in self.classes.get(_name_of(base), ()):
                function = getattr(cls, attr, None)
                function = getattr(function, "__func__", function)
                if function in self.takes_self:
                    targets.add(function)
        return targets

    def _dynamic(self):
        """What ``getattr(obj, name)(...)`` may reach: each method a string
        constant of the file names."""
        return set().union(*(self.call_names.get(s, ()) for s in self.strings))

    def _targets(self, func):
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call):
            if _name_of(func.value.func) == "super":
                return self._super(func.attr)
        if isinstance(func, ast.Name) and func.id == "cls":
            return self._own_class()
        if isinstance(func, ast.Call) and _name_of(func.func) == "type":
            return self._own_class()
        if isinstance(func, ast.Call) and _name_of(func.func) == "getattr":
            return self._dynamic()
        return self.call_names.get(_name_of(func), set())

    def visit_Call(self, node):
        passed = set()
        for kw in node.keywords:
            if kw.arg is not None:
                passed.add(kw.arg)
            elif isinstance(kw.value, ast.Name):
                passed |= self.dicts[-1].get(kw.value.id, set())
        direct = len(node.args)
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            direct = float("inf")
        self.by_called_name[_name_of(node.func)] |= passed
        for function in self._targets(node.func):
            self.keywords[function] |= passed
            self.positional[function] = max(self.positional[function], direct)
        if _name_of(node.func) == "replace":
            for init in self.dataclass_inits:
                self.keywords[init] |= passed
        for arg in node.args:
            for function in self.call_names.get(_name_of(arg), ()):
                self.keywords[function] |= passed
        self.generic_visit(node)

    def forward(self):
        """Pass the keywords a ``**kwargs`` helper receives to its targets."""
        for helper, entries in self.forwards.items():
            for named, targets in entries:
                extra = self.by_called_name[helper] - named
                for function in targets:
                    self.keywords[function] |= extra


@functools.lru_cache(maxsize=None)
def census():
    """``(keywords passed, most positional arguments passed)`` per function."""
    sites = _CallSites()
    for top in WALKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            sites.visit_file(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    sites.forward()
    for workload in _e2e_workloads().values():
        for function in sites.call_names.get(workload.function, ()):
            sites.keywords[function] |= set(workload.kwargs) | {"seed"}
    return sites.keywords, sites.positional


def defaulted_parameters(function, takes_self):
    """``(index, parameter)`` for each defaulted parameter a caller could set."""
    params = list(inspect.signature(function).parameters.values())[int(takes_self):]
    return [
        (index, param)
        for index, param in enumerate(params)
        if param.default is not param.empty
    ]


def _unset():
    """``(callable, parameter)`` pairs no call site sets."""
    callables = public_callables()[0]
    keywords, positional = census()
    unset = set()
    for function, (name, takes_self) in callables.items():
        for index, param in defaulted_parameters(function, takes_self):
            by_position = (
                param.kind is not param.KEYWORD_ONLY and index < positional[function]
            )
            if not by_position and param.name not in keywords[function]:
                unset.add((name, param.name))
    return unset


def unset_parameters():
    """``(callable, parameter)`` pairs no call site sets, allow-list excluded."""
    return sorted(_unset() - set(ALLOWED))


def test_every_library_parameter_has_a_caller():
    unset = unset_parameters()
    listing = "\n".join(f"  {name}({param}=...)" for name, param in unset)
    assert not unset, f"{len(unset)} parameters no caller sets:\n{listing}"


def test_allow_list_reasons_are_named():
    assert len(set(REASONS)) == len(REASONS)
    unnamed = {key: reason for key, reason in ALLOWED.items() if reason not in REASONS}
    assert not unnamed, f"ALLOWED reasons must be REASONS constants: {unnamed}"


def test_allow_list_names_real_parameters():
    callables = {name: f for f, (name, _) in public_callables()[0].items()}
    unset = _unset()
    for name, param in ALLOWED:
        assert param in inspect.signature(callables[name]).parameters, (name, param)
        assert (name, param) in unset, f"{name}({param}=) has a caller: drop it from ALLOWED"
