"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package declares which submodule defines each of its public names;
the submodule is imported the first time one of its names is read, so
``import repro`` -- and every CLI subcommand -- loads only the layers
it actually uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["attach"]


def attach(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *exports* maps a submodule, relative to *package* (``".core"``), to
    the public names it provides.  A resolved name is stored in the
    package namespace, so later reads never reach ``__getattr__``.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__, sorted(origin)
