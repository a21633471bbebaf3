"""Every name a module lists in `__all__` exists, so a deletion cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import doprompt

EXPORTING = [
    info.name
    for info in pkgutil.iter_modules(doprompt.__path__)
    if hasattr(importlib.import_module(f"doprompt.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", EXPORTING)
def test_star_import_resolves_every_exported_name(module):
    namespace = {}
    exec(f"from doprompt.{module} import *", namespace)
    assert set(importlib.import_module(f"doprompt.{module}").__all__) <= namespace.keys()
