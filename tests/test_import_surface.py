"""The package surface is pay-for-what-you-run — checked as exact counts.

A package ``__init__`` imports nothing (it is a name → submodule table
resolved on first attribute access, see ``repro._lazy``), and a module
imports another service's client only where one is constructed. These
tests run fresh interpreters, because the question is what a *run*
loads, and this process has long since imported everything.

No run loads ``hashlib``: its ``_hashlib`` maps OpenSSL's ``libcrypto``
(about 3.3 MiB resident) to hash a few hundred short strings, which
``repro.sim.rng`` hashes with the interpreter's built-in SHA-256 and
BLAKE2b modules instead.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent

PACKAGES = ["repro"] + [
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.") if info.ispkg
]

#: Modules that map OpenSSL into the process.
OPENSSL = ("hashlib", "_hashlib", "ssl")

#: The standing benchmark's workloads (``benchmarks/e2e/workloads.py``).
WORKLOADS = ("qos_broker", "qos_api", "cache_read", "cache_write", "fleet_autoscale")


def fresh_interpreter(script: str) -> dict:
    """Run *script* in a new interpreter; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def loaded(modules, *prefixes):
    return sorted(
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


def test_import_repro_loads_only_the_table():
    seen = fresh_interpreter(
        "import json, sys; import repro; print(json.dumps(sorted(sys.modules)))"
    )
    assert len(loaded(seen, "repro")) <= 5, loaded(seen, "repro")


def test_an_http_only_run_loads_no_other_service_and_no_process_pool():
    seen = fresh_interpreter(
        "import json, sys\n"
        "import repro.workload\n"
        "repro.workload.run_qos_experiment(n_clients=6, mode='api', duration=0.001)\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    unwanted = loaded(
        seen,
        "multiprocessing", "repro.sim.parallel", "repro.workload.chaos",
        "repro.fileserver", "repro.analysis", "repro.obs.export",
        "repro.obs.dashboard", "repro.cli", *OPENSSL,
    )
    assert unwanted == []
    assert len(loaded(seen, "repro")) <= 60, loaded(seen, "repro")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_timed_run_imports_nothing(workload):
    """All import cost lands in the build-only call (``setup_s``)."""
    seen = fresh_interpreter(
        "import json, sys\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'benchmarks' / 'e2e')!r})\n"
        "import repro.workload\n"
        "from workloads import invoke\n"
        f"invoke({workload!r}, 101, build_only=True)\n"
        "built = sorted(sys.modules)\n"
        f"invoke({workload!r}, 101, 0.1)\n"
        "print(json.dumps({'built': built, 'ran': sorted(sys.modules)}))\n"
    )
    assert seen["ran"] == seen["built"]
    assert loaded(seen["built"], "multiprocessing") == []
    assert loaded(seen["built"], *OPENSSL) == []
    if workload == "fleet_autoscale":
        assert loaded(seen["built"], "repro.fileserver") == []


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_exported_name_resolves_and_pickles_by_its_defining_module(package_name):
    package = importlib.import_module(package_name)
    assert len(package.__all__) == len(set(package.__all__))
    assert set(package.__all__) <= set(dir(package))
    for name in package.__all__:
        item = getattr(package, name)
        assert vars(package)[name] is item  # resolved once, then a plain attribute
        if inspect.isclass(item) or inspect.isfunction(item):
            home = sys.modules[item.__module__]
            assert not hasattr(home, "__path__"), f"{name} claims to live in a package"
            assert getattr(home, item.__qualname__) is item
            assert pickle.loads(pickle.dumps(item)) is item


def test_the_surface_behaves_like_a_module():
    from repro import ServiceBroker
    from repro.core import broker  # a submodule through the from-list

    assert ServiceBroker is broker.ServiceBroker
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.core.nope
    with pytest.raises(ImportError):
        exec("from repro.core import nope")

