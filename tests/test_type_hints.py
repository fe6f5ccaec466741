"""Every public function and class of tunnelqs has annotations that
resolve, so ``typing.get_type_hints`` and tools built on it work."""

import inspect
import typing

import pytest

from tunnelqs import atomic, cli, constants, scan, spectra, superluminal, tdse

PUBLIC = [obj for module in (atomic, cli, constants, scan, spectra, superluminal, tdse)
          for name, obj in vars(module).items()
          if not name.startswith("_")
          and (inspect.isfunction(obj) or inspect.isclass(obj))
          and obj.__module__ == module.__name__]


@pytest.mark.parametrize("obj", PUBLIC, ids=lambda obj: f"{obj.__module__}.{obj.__name__}")
def test_annotations_resolve(obj):
    typing.get_type_hints(obj)
