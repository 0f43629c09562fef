"""Lazy package exports (PEP 562): a package's public names load on first use.

A package ``__init__`` lists where each of its exports lives and hands
this module the table::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.telemetry.spans": ("Span", "Tracer"),
        ...
    })

``import repro.telemetry`` then runs no submodule; ``repro.telemetry.Tracer``
imports :mod:`repro.telemetry.spans` on first access and binds the name on
the package, so later reads are plain attribute lookups. A name that is not an
export but names a submodule (``repro.core``, ``repro.graph.generators``)
imports that submodule, as the eager packages did by side effect.

One kind of export cannot be lazy: a name shared with its own submodule
(``repro.matching.karp_sipser``). The first import of the submodule binds
the *module* over the package attribute, so such names are imported
eagerly in the package, after their submodule.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each module to the names the package re-exports from
    it. A resolved name is bound on the package, so each module is imported
    once and monkeypatching the package attribute works as before.
    """
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("__"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        namespace = vars(sys.modules[package])
        return sorted(set(namespace) | set(origin) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__
