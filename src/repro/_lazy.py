"""Package exports that load their module on first use.

A package ``__init__`` that re-exports names from modules a default run
never executes lists them in a ``_LAZY`` table (export name → module
relative to the package) and installs it::

    _LAZY = {"certify": ".certify", "run_parallel_portfolio": ".runtime"}
    lazy_exports(__name__)

``import pkg`` then leaves ``pkg.runtime`` unloaded.  The first
``pkg.run_parallel_portfolio`` (or ``from pkg import
run_parallel_portfolio``) imports it and stores the value in the
package, so every later read is a plain attribute read.
``dir(pkg)`` lists the lazy names as well.  See ``docs/architecture.md``
("Import layout") for which modules load eagerly and why.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType


class _LazyPackage(ModuleType):
    """A package whose ``_LAZY`` exports load on first attribute access."""

    def __getattr__(self, name: str):
        try:
            module = self.__dict__["_LAZY"][name]
        except KeyError:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, self.__name__), name)
        setattr(self, name, value)
        return value

    def __dir__(self) -> list[str]:
        return sorted(set(self.__dict__) | set(self.__dict__["_LAZY"]))

    def __setattr__(self, name: str, value) -> None:
        # importing a submodule binds it on its package; for an export
        # named like its own module (verifier.certify, logic.simplify)
        # that would hide the export, so bind the export instead, as an
        # eager ``from .certify import certify`` leaves it
        if (
            isinstance(value, ModuleType)
            and self.__dict__["_LAZY"].get(name) == f".{name}"
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(package: str) -> None:
    """Load the names in *package*'s ``_LAZY`` table on first access."""
    sys.modules[package].__class__ = _LazyPackage
