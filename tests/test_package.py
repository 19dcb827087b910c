import ast
import importlib
import inspect
import pkgutil
import sys
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


def test_benchmark_tracer_installs_and_restores(monkeypatch):
    # The benchmark's tracer wraps every public function of the layer modules
    # and a few Superoperator methods by name; a deleted name it still expects
    # breaks every traced run, which only this test sees.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    namespaces = [mpscollision] + [importlib.import_module(f"mpscollision.{short}")
                                   for short in tracing.LAYERS]
    superop = importlib.import_module("mpscollision.master_equation").Superoperator
    before = [dict(vars(ns)) for ns in namespaces] + [dict(vars(superop))]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {(owner, attr) for owner, attr, _ in tracer._restore}
        assert {(superop, attr) for attr, *_ in tracing.SUPEROPERATOR_METHODS} <= wrapped
        assert all(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr in wrapped)
    finally:
        tracer.uninstall()
    after = [dict(vars(ns)) for ns in namespaces] + [dict(vars(superop))]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert [name for name in old if old[name] is not new[name]] == []
