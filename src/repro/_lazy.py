"""Lazy package exports (PEP 562), shared by the package facades.

A facade lists ``name -> defining module`` in an ``_EXPORTS`` table and
installs the two module hooks this returns; the defining module is
imported on first access to a name, which is then cached on the package.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str], names: Iterable[str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    A name whose module is ``package.name`` itself (``repro.api``)
    resolves to that submodule; any other name to the module's attribute.
    ``__dir__`` lists exactly ``names`` (the package's ``__all__``).
    """
    listed = sorted(names)

    def __getattr__(name: str):
        module_name = exports.get(name)
        if module_name is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = importlib.import_module(module_name)
        if module_name != f"{package}.{name}":
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return list(listed)

    return __getattr__, __dir__
