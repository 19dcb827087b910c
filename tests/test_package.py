import ast
import importlib
import inspect
import pkgutil
import re
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


def test_package_runs_on_numpy_alone():
    # scipy is a test reference only: no module imports it, and the runtime
    # dependencies name numpy alone.
    tomllib = pytest.importorskip("tomllib")
    package = Path(mpscollision.__file__).resolve().parent
    imported = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.append((path.name, node.module))
    assert [(f, m) for f, m in imported if m.split(".")[0] == "scipy"] == []
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]]
    assert names == ["numpy"]


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


def _benchmark_reads():
    """``(file, module, attr, keywords)`` of every ``module.attr`` the benchmark reads off a
    module it imports by ``from mpscollision import ...``; ``keywords`` are the keyword
    arguments when the read is a call."""
    reads = []
    for path in sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "mpscollision"
                    for alias in node.names}
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in imported):
                call = calls.get(id(node))
                keywords = [k.arg for k in call.keywords if k.arg] if call else []
                reads.append((path.name, imported[node.value.id], node.attr, keywords))
    return reads


def test_benchmark_api_resolves():
    # The benchmark is frozen between its own changes; a deleted or renamed name
    # it reads, or a keyword it passes that the callee lost, would surface only
    # as a failed benchmark run.
    reads = _benchmark_reads()
    assert {("traced_cli.py", "cli", "main"),
            ("workloads.py", "embedding", "trajectory")} <= {r[:3] for r in reads}
    missing, unknown = [], []
    for where, short, attr, keywords in reads:
        module = importlib.import_module(f"mpscollision.{short}")
        if not hasattr(module, attr):
            missing.append(f"{where}: {short}.{attr}")
            continue
        if keywords:
            params = inspect.signature(getattr(module, attr)).parameters
            if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
                unknown += [f"{where}: {short}.{attr}({k}=)" for k in keywords
                            if k not in params]
    assert missing == []
    assert unknown == []
