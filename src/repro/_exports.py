"""Lazy package re-exports (PEP 562), each name written once.

A package ``__init__`` declares its public surface as one table mapping
each defining submodule to the names it re-exports::

    from repro import _exports

    __all__ = _exports.install(globals(), {"obs.trace": ("Tracer", "Span")})

:func:`install` adds a module ``__getattr__`` that imports a name's
submodule on first access, and a ``__dir__`` that lists the table, so
importing the package loads none of its leaves.  Code inside ``src/``
imports from the defining module instead, which keeps the flow call
graph resolvable.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, List, Mapping, Sequence


def install(namespace: Dict[str, Any], table: Mapping[str, Sequence[str]]) -> List[str]:
    """Install lazy ``__getattr__``/``__dir__`` into ``namespace``; return ``__all__``.

    ``table`` keys are submodule paths relative to the root package
    ``repro`` (``"obs.trace"``); values are the names each one exports.
    A name listed twice raises :class:`ValueError`.
    """
    package = namespace["__name__"]
    owner: Dict[str, str] = {}
    for module, names in table.items():
        for name in names:
            if name in owner:
                raise ValueError(
                    f"{package}: {name!r} is exported by both {owner[name]} and repro.{module}"
                )
            owner[name] = f"repro.{module}"

    def __getattr__(name: str) -> Any:
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(owner[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *owner})

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    return list(owner)
