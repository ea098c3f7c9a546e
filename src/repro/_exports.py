"""Lazy package surfaces (PEP 562).

A package ``__init__`` hands :func:`lazy_exports` one table, ``{module:
names}``, and gets back its ``__all__``, ``__getattr__`` and
``__dir__``: each public name is spelled once, and a name's module is
imported the first time the name is asked for — by attribute access,
``from package import name`` or ``from package import *`` alike.  So a
process compiles the modules it uses, not every module a package could
hand out.  A subpackage or submodule is reachable as an attribute of its
package before anything imported it (``import repro;
repro.dirac.WilsonCloverOperator``).
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """The lazy surface of ``package``.

    Args:
        package: The package's ``__name__``.
        table: Module (relative to ``package`` when it starts with a
            dot) -> the public names it defines.

    Returns:
        ``(__all__, __getattr__, __dir__)`` for the package to bind.
    """
    home = {name: module for module, names in table.items() for name in names}
    namespace = sys.modules[package]
    for name, module in home.items():
        if module == f".{name}":
            # The first import of a submodule binds it on its package, over
            # a name it shares (``solvers.cg``, the module, and ``cg``, its
            # function): such a name is bound now, after its module.
            setattr(namespace, name,
                    getattr(importlib.import_module(module, package), name))

    def __getattr__(name: str):
        module = home.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module, package), name)
            setattr(namespace, name, value)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(vars(namespace)) | set(namespace.__all__))

    return list(home), __getattr__, __dir__
