import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import mpscollision

MODULES = sorted(info.name for info in pkgutil.iter_modules(mpscollision.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(f"mpscollision.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_listed(name):
    # A public function or class a module defines is either its API, listed in
    # __all__, or an orphan a deletion left behind.
    module = importlib.import_module(f"mpscollision.{name}")
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []


def test_package_reexports_are_listed_in_their_modules():
    # Each ``from .module import name`` of the package's __init__ re-exports
    # ``name``, so ``module.__all__`` must list it too.
    tree = ast.parse(Path(mpscollision.__file__).read_text())
    unlisted = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"mpscollision.{node.module}")
            unlisted += [f"{node.module}.{a.name}" for a in node.names
                         if a.name not in module.__all__]
    assert unlisted == []
