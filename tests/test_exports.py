"""Every name a tunnelqs module lists in ``__all__`` exists, so
``from tunnelqs.<module> import *`` works and the list documents real names."""

import importlib
import pkgutil

import pytest

import tunnelqs

MODULES = [importlib.import_module(f"tunnelqs.{info.name}")
           for info in pkgutil.iter_modules(tunnelqs.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
