"""Discrete-event simulation kernel (virtual time, processes, resources).

This package is the substrate every other subsystem runs on. See
:mod:`repro.sim.core` for the event-loop semantics and
:mod:`repro.sim.resources` for shared resources.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Simulation": "core",
    "Event": "core",
    "Timeout": "core",
    "Process": "core",
    "ProcessGenerator": "core",
    "Condition": "core",
    "AnyOf": "core",
    "AllOf": "core",
    "Resource": "resources",
    "PriorityResource": "resources",
    "Request": "resources",
    "Store": "resources",
    "StorePut": "resources",
    "StoreGet": "resources",
    "HostCpu": "cpu",
    "RngRegistry": "rng",
    "derive_rng": "rng",
    "hash64": "rng",
    "URGENT": "core",
    "NORMAL": "core",
    "run_partitions": "parallel",
    "available_workers": "parallel",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
