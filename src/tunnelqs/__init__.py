"""Tunneling time delays and quantum superluminality for hydrogen-like
atoms in strong fields: closed-form delay/quotient models, parameter
scans, a velocity-gauge TDSE solver, and attoclock spectra extraction.

Every name in a module's ``__all__`` can be imported from ``tunnelqs``;
``tunnelqs.__all__`` is those lists joined, module by module.

The package imports on demand (PEP 562): ``import tunnelqs`` loads none
of its modules, ``tunnelqs.<module>`` loads that module alone, and the
first use of any other name, ``__all__`` and ``from tunnelqs import *``
among them, loads all six and binds their names here, so a one-shot CLI
call pays only for the modules it computes with.
"""

import importlib

__version__ = "0.1.0"

# the modules whose __all__ the package re-exports, in this order
_MODULES = ("atomic", "constants", "scan", "spectra", "superluminal", "tdse")


def _load() -> None:
    """Bind here every name of the modules' ``__all__``, as one
    ``from .<module> import *`` per module would, and the joined list;
    once, so a name rebound here later stays rebound."""
    if "__all__" in globals():
        return
    names = []
    for module in map(importlib.import_module, (f"{__name__}.{m}" for m in _MODULES)):
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("__"):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load()
    return sorted({*globals(), *_MODULES, "cli"})
