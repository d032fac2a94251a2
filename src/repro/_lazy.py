"""Package exports resolved on first use (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` a table of which
submodule defines each public name, and importing the package loads
none of them: ``from repro import WPaxosNode`` imports
:mod:`repro.core.wpaxos.node` and its own imports, not every algorithm
the package offers. A process pays to compile only the code its path
runs.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple

#: Package -> {public name: defining module}, one entry per package
#: that exports through :func:`lazy_exports`.
EXPORTS: Dict[str, Dict[str, str]] = {}


def lazy_exports(package: str, table: Dict[str, str]
                 ) -> Tuple[List[str], Callable, Callable]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``table`` maps a submodule (relative to ``package``) to the
    space-separated names the package exports from it; the ``""`` row
    lists submodules exported as themselves. The first access to a
    name imports its module and stores the value on the package, so
    later accesses are plain attribute reads. Any submodule is also an
    attribute, imported on first access.
    """
    where = {name: f"{package}.{module}" if module else ""
             for module, names in table.items() for name in names.split()}
    EXPORTS[package] = where
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = where.get(name)
        if module:
            value = namespace[name] = getattr(import_module(module), name)
            return value
        if not name.startswith("__"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    return list(where), __getattr__, __dir__
