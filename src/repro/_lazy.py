"""Lazy package exports: a package names its public API without importing it.

Every ``repro`` package ``__init__`` is a table ``{public name: submodule}``
handed to :func:`lazy_exports`, which returns the module-level
``__getattr__`` / ``__dir__`` pair of PEP 562. ``from repro.core import
ServiceBroker`` imports ``repro.core.broker`` at that moment and nothing
else, so a run pays only for the modules it uses; the resolved object is
then stored on the package, and later reads are plain attribute lookups.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair for *package*.

    *exports* maps each public name to the submodule (relative to
    *package*) that defines it.
    """
    module = sys.modules[package]

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted({*vars(module), *exports})

    return __getattr__, __dir__
