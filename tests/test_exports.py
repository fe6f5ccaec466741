"""Every name a tunnelqs module lists in ``__all__`` exists, so
``from tunnelqs.<module> import *`` works and the list documents real names,
and the package re-exports each of them: the modules' lists are the one
list of public names."""

import importlib
import pkgutil

import pytest

import tunnelqs

MODULES = [importlib.import_module(f"tunnelqs.{info.name}")
           for info in pkgutil.iter_modules(tunnelqs.__path__)]
LISTED = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", LISTED, ids=lambda m: m.__name__)
def test_package_reexports_module_names(module):
    assert [name for name in module.__all__
            if getattr(tunnelqs, name, None) is not getattr(module, name)] == []


def test_package_all_joins_the_module_lists():
    joined = [name for module in LISTED for name in module.__all__]
    assert tunnelqs.__all__ == joined
    # no name is listed twice, so no star import shadows another
    assert len(set(joined)) == len(joined)
