import ast
import json
import importlib
import inspect
import pkgutil
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import mpscollision
from mpscollision import cli, embedding, linalg, master_equation, models, oracle

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
    # Each ``from .module import name`` of the package's __init__, and each name of its
    # lazy table, re-exports ``name``, so ``module.__all__`` must list it too.
    tree = ast.parse(Path(mpscollision.__file__).read_text())
    reexports = [(node.module, a.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1 for a in node.names]
    lazy = [(short, name) for short, names in mpscollision._LAZY.items() for name in names]
    assert lazy and not {name for _, name in lazy} & {name for _, name in reexports}
    unlisted = [f"{short}.{name}" for short, name in reexports + lazy
                if name not in importlib.import_module(f"mpscollision.{short}").__all__]
    assert unlisted == []


def test_lazy_reexports_resolve_to_their_module_attributes():
    # The names of master_equation and oracle load their module on first use and are the
    # module's own objects; dir() lists them, and any other missing name still raises.
    listed = dir(mpscollision)
    for short, names in mpscollision._LAZY.items():
        module = importlib.import_module(f"mpscollision.{short}")
        for name in names:
            assert getattr(mpscollision, name) is getattr(module, name)
            assert name in listed
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        mpscollision.no_such_name  # noqa: B018


def test_size_guard_error_is_one_class():
    # The oracle re-exports the exit-3 error the embedding module defines, so the CLI
    # catches it without loading the oracle.
    assert (oracle.SizeGuardError is master_equation.SizeGuardError is embedding.SizeGuardError
            is mpscollision.SizeGuardError)


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


# -- call audit ------------------------------------------------------------------

# Public names no CLI run and no benchmark read reaches, kept as library API.
LIBRARY_API = {
    "embedding.collide": "one Kraus channel on a stacked operator, the public face of the walk's "
                         "_collide",
    "embedding.kraus_operators": "the Kraus operators of collision k, for callers building their "
                                 "own channels",
    "linalg.lq_factorize": "the rank-revealing split right_canonicalize sweeps with",
    "mps.check_right_canonical": "the gauge residual of a user-built environment",
    "mps.MpsEnvironment.validate": "checks a user-built environment; the benchmark calls it on a "
                                   "method read the module scan cannot see",
    "master_equation.single_collision_channel": "the one-collision map the product GKSL route "
                                                "composes",
    "master_equation.KernelTable.kernel": "the one public reader of a build_kernel_table result",
}


def _audited_names():
    """``{qualified name: code}`` of every function in a module's ``__all__`` and every public
    method, classmethod or staticmethod of an ``__all__`` class that module defines."""
    names = {}
    for short in MODULES:
        module = importlib.import_module(f"mpscollision.{short}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                names[f"{short}.{name}"] = obj.__code__
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, raw in vars(obj).items():
                    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        names[f"{short}.{name}.{attr}"] = fn.__code__
    return names


def _benchmark_names():
    """Qualified names the frozen benchmark reads: its module attribute reads and the
    ``Superoperator`` methods its tracer wraps by name."""
    names = {f"{short}.{attr}" for _, short, attr, _ in _benchmark_reads()}
    tracing = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
                        .read_text())
    for node in tracing.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SUPEROPERATOR_METHODS"
                                                for t in node.targets):
            names |= {f"master_equation.Superoperator.{attr}"
                      for attr, *_ in ast.literal_eval(node.value)}
    return names


def _unaccounted(reached):
    """Public names neither reached, read by the benchmark nor declared, and declarations that
    the runs reach, that the benchmark reads or that name nothing."""
    audited, benchmark = _audited_names(), _benchmark_names()
    undeclared = [f"unreached: {name}" for name, code in audited.items()
                  if code not in reached and name not in benchmark and name not in LIBRARY_API]
    stale = [f"declared: {name}" for name in LIBRARY_API
             if name not in audited or audited[name] in reached or name in benchmark]
    return sorted(undeclared + stale)


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """Codes of every function the CLI calls over the figures, each method, an explicit-matrix
    document, validate, kernel and an exit-2 and an exit-3 document."""
    tmp = tmp_path_factory.mktemp("audit")

    def document(name, doc):
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def matrix(m):
        return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex)]

    aklt = {"model": {"name": "aklt"}, "g_tau": 0.5, "k_max": 4}
    explicit = {**aklt, "initial_state": {"matrix": matrix(np.diag([0.25, 0.75]))},
                "interaction": {"matrix": matrix(models.interaction("heisenberg", 0.5).unitary)}}
    two_photon = {**cli.PRESETS["fig5a"], "k_max": 6}
    single_photon = {"model": {"name": "single_photon", "parameters": {"n_sites": 4}},
                     "g_tau": 0.5, "k_max": 4}
    ghz = {"model": {"name": "ghz", "parameters": {"n_sites": 3}}, "g_tau": 0.5, "k_max": 4}
    cluster = {"model": {"name": "cluster"}, "g_tau": 0.6, "k_max": 10, "interaction": "cluster",
               "fock_cutoff": 5}
    runs = [(["reproduce", figure, "--out", str(tmp / figure)], 0) for figure in cli.FIGURES]
    runs += [(["run", "--config", document(method, {**aklt, "method": method})], 0)
             for method in cli.METHODS]
    runs += [(["run", "--config", document("explicit", explicit)], 0),
             (["validate", "--config", document("validate", single_photon)], 0),
             (["kernel", "--config", document("kernel", two_photon), "--k", "4", "--m-max", "3"], 0),
             (["run", "--config", document("exit2", ghz)], 2),
             (["run", "--config", document("exit3", cluster)], 3)]
    codes, previous = set(), sys.getprofile()

    def record(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            exits = [cli.main(argv) for argv, _ in runs]
    finally:
        sys.setprofile(previous)
    assert exits == [want for _, want in runs]
    return codes


def test_every_public_name_is_reached_or_declared(reached):
    # A public name is the CLI's, the benchmark's or declared library API with a
    # reason; any other is deleted, or moved into conftest as a test reference.
    assert _unaccounted(reached) == []


def test_audit_reports_an_unreached_public_function(reached, monkeypatch):
    def orphan():
        pass

    monkeypatch.setattr(linalg, "__all__", linalg.__all__ + ["orphan"])
    monkeypatch.setattr(linalg, "orphan", orphan, raising=False)
    assert _unaccounted(reached) == ["unreached: linalg.orphan"]
