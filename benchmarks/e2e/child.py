"""One measured repeat, run in a fresh interpreter by ``run.py``.

``python child.py WORKLOAD SEED TRACE SCALE`` times the import of
``repro.workload``, a build-only call, and the full call, then prints
one JSON line: the timings, peak RSS, the simulated result, and (with
``TRACE`` = 1) host self time and call counts per layer.

Only ``sys`` and ``time`` are imported before the timed import, so
``import_s`` includes the standard-library modules ``repro`` pulls in,
as it does for a user.
"""

from __future__ import annotations

import sys
import time

__all__ = ["layer_costs", "main"]


def layer_costs(profile, package_root: str):
    """Self time and call count per layer from a finished cProfile *profile*.

    A function's self time is its span minus its callees'
    (``inlinetime``). Each resume of a generator is one call, which is
    why this sees the simulator's processes where a wrapper around a
    public function would see only the call that creates them.
    """
    from metrics import LAYERS, layer_of

    costs = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for entry in profile.getstats():
        code = entry.code
        # Builtins are reported by name (pstats files them under "~").
        filename = "~" if isinstance(code, str) else code.co_filename
        cost = costs[layer_of(filename, package_root)]
        cost["self_s"] += entry.inlinetime
        cost["calls"] += entry.callcount
    return costs


def main(argv) -> int:
    name, seed, trace, scale = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    started = time.perf_counter()
    import repro.workload

    import_s = time.perf_counter() - started

    import cProfile
    import json
    import os
    import resource

    from workloads import invoke, summarise

    started = time.perf_counter()
    invoke(name, seed, build_only=True)
    build_s = time.perf_counter() - started

    profile = cProfile.Profile() if trace else None
    cpu_started = time.process_time()
    started = time.perf_counter()
    if profile is not None:
        result = profile.runcall(invoke, name, seed, scale)
    else:
        result = invoke(name, seed, scale)
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    # Read before summarise() so the benchmark's own sorting is not counted.
    # Linux reports ru_maxrss in KiB.
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "import_s": import_s,
        "build_s": build_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_mib": rss_mib,
        "summary": summarise(result),
    }
    if profile is not None:
        record["layers"] = layer_costs(profile, os.path.dirname(repro.__file__))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
