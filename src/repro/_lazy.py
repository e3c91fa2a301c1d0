"""Lazy package exports (PEP 562).

A package re-exports names from its submodules without importing them:

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".experiment": ("Experiment", "PAPER_SIZES"),
        ".runner": ("run_campaign",),
    })

``from repro.harness import Experiment`` then imports only
``repro.harness.experiment``; each name is resolved on first access and
kept in the package namespace.  ``__all__`` stays the package's public
list, and ``dir(package)`` lists every export before it is loaded.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


class _LazyPackage(types.ModuleType):
    """A package whose exports may share a submodule's name.

    The import system binds every submodule it loads on its package
    (``repro.core.cascade`` becomes the module).  Where an export is named
    like the submodule that defines it (the function ``cascade`` in
    ``repro.core.cascade``), the package attribute keeps naming the
    export, as it did when packages imported their submodules eagerly.
    """

    _shadowed: frozenset = frozenset()

    def __setattr__(self, name: str, value: Any) -> None:
        if (name in self._shadowed and isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"):
            return
        super().__setattr__(name, value)


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a relative submodule (``".runner"``) to the names
    the package re-exports from it.
    """
    where: Dict[str, str] = {name: module
                             for module, names in exports.items()
                             for name in names}
    pkg = sys.modules[package]
    pkg.__class__ = _LazyPackage
    pkg.__dict__["_shadowed"] = frozenset(
        name for name, module in where.items() if module == "." + name)

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        pkg.__dict__[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(pkg.__dict__) | set(where))

    return __getattr__, __dir__
