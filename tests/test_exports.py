"""The package's export lists name what its modules define.

``perfbench/tracer.py`` wraps every function a module's ``__all__`` lists and
skips a name it cannot find, so a stale entry would silently drop a layer
from the traces.
"""

import importlib
import inspect
import pkgutil

import pytest

import teralasso

MODULES = [
    importlib.import_module(f"teralasso.{info.name}")
    for info in pkgutil.iter_modules(teralasso.__path__)
]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_all_names_are_defined_in_their_module(mod):
    for name in getattr(mod, "__all__", ()):
        assert name in vars(mod), f"{mod.__name__}.__all__ lists missing {name!r}"
        obj = vars(mod)[name]
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == mod.__name__, f"{mod.__name__}.{name} is imported"


def test_package_exports_are_listed_by_a_module():
    listed = {name for mod in MODULES for name in getattr(mod, "__all__", ())}
    public = {
        name
        for name, obj in vars(teralasso).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public - listed == set()
