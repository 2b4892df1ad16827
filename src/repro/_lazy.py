"""Lazy package exports (PEP 562).

Every package ``__init__`` declares its re-exports once, as a literal
``{name: submodule}`` map passed to :func:`lazy_exports`.  A name's
submodule is imported on first access and the value is cached in the
package namespace, so a process loads only the modules its command
reaches.  ``from pkg import name``, ``pkg.name`` and ``from pkg import
*`` behave as with the eager ``from .submodule import name`` lines the
map replaces, and ``repro check`` reads the map as those lines
(docs/CHECK.md).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, str]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]],
                            list[str]]:
    """``__getattr__``, ``__dir__`` and ``__all__`` of ``package``, which
    re-exports each ``name`` of ``exports`` from its submodule
    ``exports[name]``.  An entry naming its own submodule
    (``"gpu": "gpu"``) exports the submodule itself."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if submodule == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, list(exports)
