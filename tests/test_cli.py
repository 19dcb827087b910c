import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg  # test-only reference for the matrix logarithm and exponential
from hypothesis import HealthCheck, given, settings, strategies as st

from mpscollision import cli, embedding, master_equation, models, mps, oracle
from mpscollision.cli import (
    MAX_CHAIN_SITES,
    ConfigError,
    PRESETS,
    kernel_norms,
    load_config,
    main,
    reproduce,
    run_config,
)
from mpscollision.master_equation import build_kernel_table, second_order_kernel
from mpscollision.models import aklt_exact_q, aklt_markov_q


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def aklt_doc(**extra):
    doc = {"model": {"name": "aklt", "parameters": {}}, "g_tau": 0.5, "k_max": 8}
    doc.update(extra)
    return doc


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


# -- validation -----------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, aklt_doc())
    assert main(["validate", "--config", path]) == 0
    assert "ok" in capsys.readouterr().out


@pytest.mark.parametrize("interaction", ["heisenberg", "controlled"])
@pytest.mark.parametrize("g_tau", [1e6, 1e9, 1e12])
def test_validate_gksl_far_from_the_limit(tmp_path, interaction, g_tau):
    # The generator's trace check scales with its terms (about g^2 tau here),
    # so its roundoff is no config error at any coupling.
    doc = aklt_doc(method="gksl", g_tau=g_tau, k_max=3, interaction=interaction)
    assert main(["validate", "--config", write_config(tmp_path, doc)]) == 0


def matrix(rows):
    """JSON [re, im] form of a real or complex nested list."""
    return [[[complex(x).real, complex(x).imag] for x in row] for row in rows]


def model_doc(name, parameters, **extra):
    doc = {"model": {"name": name, "parameters": parameters}, "g_tau": 0.4, "k_max": 4}
    doc.update(extra)
    return doc


NON_UNITARY = np.eye(6)
NON_UNITARY[0, 0] = 2.0


def unitary(basis, phases):
    """basis diag(e^{i phases}) basis^dagger."""
    return (basis * np.exp(1j * np.asarray(phases))) @ basis.conj().T


_R = np.arange(6)
# F diag(1, e^i, e^i, -1, -1, -1) F^dagger with F the 6-point DFT: a threefold
# eigenvalue -1, where the principal matrix logarithm is not defined.
DFT_UNITARY = unitary(np.exp(2j * np.pi * np.outer(_R, _R) / 6) / np.sqrt(6),
                      [0, 1, 1, np.pi, np.pi, np.pi])


def seeded_minus_one_unitary():
    """The 1363rd draw of a seeded stream: eigenphases (2.5, 0, pi, 2.5, pi, 1) in a
    random basis, so a twofold eigenvalue -1."""
    rng = np.random.default_rng(1)
    for _ in range(1363):
        q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
        phases = rng.choice([0.0, np.pi, 1.0, -1.0, 2.5], size=6)
    return unitary(q, phases)


# Documents that pass the document-shape checks but that the built run
# rejects: each is a config error at validate time, not a crash at run time.
BUILT_RUN_ERRORS = [
    (aklt_doc(initial_state={"matrix": matrix(np.eye(3) / 3)}), "initial_state.matrix"),
    (aklt_doc(initial_state={"matrix": matrix(np.eye(2))}), "initial_state.matrix"),
    (aklt_doc(initial_state="mixed"), "observables[0]"),
    (aklt_doc(observables=[{"name": "up", "matrix": matrix([[0, 1], [0, 0]])}]),
     "observables[0]"),
    ({**PRESETS["fig5b"], "k_max": 4, "tolerances": {"cutoff_shift": "x"}},
     "tolerances.cutoff_shift"),
    (model_doc("two_photon", {}), "model.parameters"),
    (model_doc("two_photon", {"tau_over_T1": -1, "tau_over_T2": 0.1}), "model.parameters"),
    (model_doc("ghz", {"n_sites": "x"}), "model.parameters"),
    (model_doc("single_photon", {"amplitudes": [0, 0]}), "model.parameters"),
    (model_doc("ghz", {"n_sites": 4}, k_max=6), "k_max"),
    (model_doc("single_photon", {"n_sites": 4}, k_max=6, method="nz"), "k_max"),
    (model_doc("ghz", {"n_sites": 4}, method="gksl"), "method"),
    (model_doc("ghz", {"n_sites": 4}, method="oracle", n_sites=6), "n_sites"),
    (aklt_doc(interaction={"matrix": matrix(NON_UNITARY)}), "interaction.matrix"),
]
# Built-run errors too, listed after every other case so that those keep their ids.
WIDTH_ERRORS = [
    (model_doc("single_photon", {"n_sites": 4, "width": 0}), "model.parameters"),
    (model_doc("single_photon", {"n_sites": 4, "width": -5}), "model.parameters"),
]
# Chains of no site, refused by the count check that names n_sites; listed after WIDTH_ERRORS.
SITE_COUNT_ERRORS = [
    (model_doc("single_photon", {"n_sites": 0}), "model.parameters"),
    (model_doc("single_photon", {"n_sites": -3}), "model.parameters"),
    (model_doc("ghz", {"n_sites": 0}), "model.parameters"),
]

# Misspelt keys are errors, not defaults.
UNKNOWN_KEY_ERRORS = [
    ({**PRESETS["fig5b"], "k_max": 4, "tolerances": {"cutoff_shfit": 1.0}},
     "tolerances.cutoff_shfit"),
    (aklt_doc(observable=["sigma_x"]), "observable"),
    (aklt_doc(intial_state="plus"), "intial_state"),
    ({"model": {"name": "aklt", "paramters": {}}, "g_tau": 0.5, "k_max": 4},
     "model.paramters"),
]

# Matrix entries are JSON numbers: true/false are not 1/0, nor is 10**400 a crash.
MATRIX_ENTRY_ERRORS = [
    (aklt_doc(initial_state={"matrix": [[[True, 0], [0, 0]], [[0, 0], [False, 0]]]}),
     "initial_state.matrix"),
    (aklt_doc(initial_state={"matrix": [[[10 ** 400, 0], [0, 0]], [[0, 0], [0, 0]]]}),
     "initial_state.matrix"),
]


@pytest.mark.parametrize("doc,field", [
    ({"g_tau": 0.5, "k_max": 5}, "model"),
    ({"model": {"name": "nope"}, "g_tau": 0.5, "k_max": 5}, "model.name"),
    ({"model": {"name": "aklt"}, "k_max": 5}, "g_tau"),
    ({"model": {"name": "aklt"}, "g_tau": 0.5}, "k_max"),
    ({"model": {"name": "aklt"}, "g_tau": 0.5, "k_max": 0}, "k_max"),
    (aklt_doc(method="teleport"), "method"),
    (aklt_doc(interaction="nope"), "interaction"),
    (aklt_doc(initial_state="nope"), "initial_state"),
    (aklt_doc(observables=[]), "observables"),
    (aklt_doc(observables=["nope"]), "observables[0]"),
    (aklt_doc(n_sites=3), "n_sites"),
    *BUILT_RUN_ERRORS,
    *UNKNOWN_KEY_ERRORS,
    # JSON true/false are not numbers, though bool subclasses int.
    (aklt_doc(k_max=True), "k_max"),
    (aklt_doc(g_tau=True), "g_tau"),
    (aklt_doc(tau=True), "tau"),
    (aklt_doc(k_max=1, n_sites=True), "n_sites"),
    ({**PRESETS["fig5b"], "k_max": 4, "tolerances": {"cutoff_shift": False}},
     "tolerances.cutoff_shift"),
    *MATRIX_ENTRY_ERRORS,
    *WIDTH_ERRORS,
    *SITE_COUNT_ERRORS,
])
def test_validate_field_errors(doc, field):
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert f"config.{field}:" in str(err.value)


@pytest.mark.parametrize("doc,field", BUILT_RUN_ERRORS + UNKNOWN_KEY_ERRORS + MATRIX_ENTRY_ERRORS
                         + WIDTH_ERRORS + SITE_COUNT_ERRORS)
def test_run_and_validate_exit_2_on_built_run_errors(tmp_path, capsys, doc, field):
    path = write_config(tmp_path, doc)
    for command in ("validate", "run"):
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config.{field}:")


@pytest.mark.parametrize("doc,field", [
    (model_doc("ghz", {"n_sites": 10 ** 6}), "model.parameters.n_sites"),
    (model_doc("ghz", {"n_sites": 1e6}), "model.parameters.n_sites"),
    (model_doc("single_photon", {"n_sites": 10 ** 6}), "model.parameters.n_sites"),
    (model_doc("single_photon", {"amplitudes": [1.0] * (MAX_CHAIN_SITES + 1)}),
     "model.parameters.amplitudes"),
])
def test_chain_length_cap_exits_2_before_building(tmp_path, capsys, monkeypatch, doc, field):
    built = []
    environment_for = models.environment_for
    monkeypatch.setattr(models, "environment_for", lambda spec: built.append(spec)
                        or environment_for(spec))
    path = write_config(tmp_path, doc)
    for command in ("validate", "run"):
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config.{field}:")
    assert built == []
    at_cap = model_doc("ghz", {"n_sites": MAX_CHAIN_SITES})
    assert main(["validate", "--config", write_config(tmp_path, at_cap, "cap.json")]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("doc,message", [
    (model_doc("two_photon", {"tau_over_T1": True, "tau_over_T2": 0.1}),
     "tau_over_T1 must be a finite number, got True"),
    (model_doc("two_photon", {"g_tau": True, "g_T1": 2.3, "g_T2": 59.9}),
     "g_tau must be a finite number, got True"),
    (model_doc("two_photon", {"tau_over_T1": 0.1, "tau_over_T2": "0.1"}),
     "tau_over_T2 must be a finite number, got '0.1'"),
    (model_doc("ghz", {"n_sites": 2.5}, k_max=2), "n_sites must be an integer, got 2.5"),
    (model_doc("ghz", {"n_sites": True}, k_max=1), "n_sites must be an integer, got True"),
    (model_doc("single_photon", {"n_sites": 4, "width": False}),
     "width must be a finite number, got False"),
    (model_doc("single_photon", {"amplitudes": [0.5, True]}),
     "amplitudes[1] must be a finite number or [re, im], got True"),
    (model_doc("single_photon", {"amplitudes": [[1, 0, 2], 0.5]}),
     "amplitudes[0] must be a finite number or [re, im], got [1, 0, 2]"),
    (model_doc("single_photon", {"amplitudes": [1, [0, False]]}),
     "amplitudes[1] must be a finite number or [re, im], got [0, False]"),
])
def test_model_parameters_are_not_coerced(tmp_path, capsys, doc, message):
    # float/int/complex would run true as 1 and 2.5 sites as 2; models.environment_for
    # checks each parameter against its kind, so both commands refuse them instead.
    path = write_config(tmp_path, doc)
    for command in ("validate", "run"):
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config.model.parameters: {message}\n"


@pytest.mark.parametrize("doc,key", [
    (model_doc("single_photon", {"n_sites": 6, "widht": 1}, k_max=3), "widht"),
    (model_doc("aklt", {"n_sites": 6}), "n_sites"),
    (model_doc("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9, "g_t2": 1}), "g_t2"),
])
def test_unread_model_parameters_exit_2(tmp_path, capsys, doc, key):
    # A parameter the model does not read is a misspelling, not a default.
    path = write_config(tmp_path, doc)
    for command in ("validate", "run"):
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: config.model.parameters.{key}: unknown key")


@pytest.mark.parametrize("name", ["cluster", "aklt"])
def test_model_without_parameters_says_so(tmp_path, capsys, name):
    # An empty tuple of expected keys would tell the reader nothing.
    path = write_config(tmp_path, model_doc(name, {"x": 1}))
    for command in ("validate", "run"):
        assert main([command, "--config", path]) == 2
        assert capsys.readouterr().err == (
            "error: config.model.parameters.x: unknown key, the model takes no parameters\n")


def test_fock_cutoff_is_a_top_level_key_only(tmp_path, capsys):
    # Every model takes the top-level key; under model.parameters it is a misspelling.
    for name, parameters in (("two_photon", {"tau_over_T1": 0.1, "tau_over_T2": 0.1}),
                             ("cluster", {}), ("aklt", {}), ("ghz", {"n_sites": 4}),
                             ("single_photon", {"width": 2})):
        load_config(model_doc(name, parameters, fock_cutoff=3))
        path = write_config(tmp_path, model_doc(name, {**parameters, "fock_cutoff": 3}))
        for command in ("validate", "run"):
            assert main([command, "--config", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                "error: config.model.parameters.fock_cutoff: unknown key")


BUILDER_PARAMETERS = {"two_photon": {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}, "cluster": {},
                      "aklt": {}, "ghz": {"n_sites": 4}, "single_photon": {"n_sites": 4}}


@pytest.mark.parametrize("interaction,fock_cutoff", [
    (None, None), *((name, None) for name in models.INTERACTION_NAMES), ("cluster", 7)])
@pytest.mark.parametrize("name", models.MODEL_NAMES)
def test_load_config_builds_what_build_model_builds(name, interaction, fock_cutoff):
    # A named interaction (None: the model's default) reaches the run through
    # models.build_model's own route, so both build the same model bit for bit.
    doc = model_doc(name, BUILDER_PARAMETERS[name], tau=0.25)
    doc.update({"interaction": interaction} if interaction else {})
    doc.update({"fock_cutoff": fock_cutoff} if fock_cutoff else {})
    built = load_config(doc)["model"]
    ref = models.build_model(models.ModelSpec(name, BUILDER_PARAMETERS[name]), 0.4,
                             interaction_name=interaction, fock_cutoff=fock_cutoff, tau=0.25)
    assert len(built.env.sites) == len(ref.env.sites)
    for got, want in [*zip(built.env.sites, ref.env.sites), (built.env.chi0, ref.env.chi0),
                      (built.unitary, ref.unitary), (built.hamiltonian, ref.hamiltonian)]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert (built.env.homogeneous, built.mode_dim, built.g_tau, built.tau) == (
        ref.env.homogeneous, ref.mode_dim, ref.g_tau, ref.tau)


def test_integers_beyond_float_range_exit_2(tmp_path, capsys):
    # JSON integers have no size limit; one past the float range is refused,
    # not a TypeError out of the finiteness check.
    huge = 10 ** 400
    for doc, start in ((aklt_doc(g_tau=huge), "error: config.g_tau: must be a finite number"),
                       (model_doc("two_photon", {"tau_over_T1": huge, "tau_over_T2": 0.1}),
                        "error: config.model.parameters: tau_over_T1 must be a finite number")):
        path = write_config(tmp_path, doc)
        for command in ("validate", "run"):
            assert main([command, "--config", path]) == 2
            assert capsys.readouterr().err.startswith(start)


def test_model_parameters_accept_numbers_and_pairs():
    for doc in (model_doc("two_photon", {"tau_over_T1": 1, "tau_over_T2": 0.1}),
                model_doc("single_photon", {"amplitudes": [1, [0, 1], 0.5]}, k_max=3),
                model_doc("single_photon", {"n_sites": 6, "width": 2})):
        load_config(doc)


def test_validate_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"model": {"name": "aklt"}})
    assert main(["validate", "--config", path]) == 2
    assert "config.g_tau" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("command", [["run"], ["validate"], ["kernel", "--k", "1", "--m-max", "1"]])
def test_unreadable_config_file_exits_2(tmp_path, capsys, command):
    # A missing file, a directory or a file that is not UTF-8 text is a config error
    # naming the path; a JSON document that is not an object is one too.
    (tmp_path / "dir.json").mkdir()
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "list.json").write_text("[]")
    for name, reason in (("missing.json", "config file not found: "),
                         ("dir.json", "cannot read config file "),
                         ("utf16.json", "config file "), ("list.json", "")):
        path = str(tmp_path / name)
        assert main([command[0], "--config", path, *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        if reason:
            assert captured.err.startswith(f"error: config: {reason}{path}")
        else:
            assert captured.err == "error: config: top-level document must be an object\n"


@pytest.mark.parametrize("output,message", [
    ("/nonexistent/dir/x.csv", "no directory '/nonexistent/dir' to write into"),
    ("/", "'/' is a directory, not a file to write"),
])
def test_unwritable_output_is_refused_before_any_work(tmp_path, capsys, monkeypatch, output,
                                                      message):
    monkeypatch.setattr(cli, "trajectory", lambda *args: pytest.fail("run before the refusal"))
    path = write_config(tmp_path, aklt_doc(output=output))
    for command in ("validate", "run"):
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config.output: {message}\n"


def test_failed_output_write_exits_2(tmp_path, capsys):
    # A link into a missing directory passes the parent check; its write still fails.
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "missing" / "x.csv")
    path = write_config(tmp_path, aklt_doc(output=str(link), k_max=3))
    assert main(["validate", "--config", path]) == 0
    assert main(["run", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: config.output: cannot write '{link}': ")


def test_reproduce_unwritable_out_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(["reproduce", "fig5a", "--out", str(tmp_path / "file" / "sub")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config.out: cannot create directory '{tmp_path / 'file' / 'sub'}': ")
    (tmp_path / "out" / "fig5a.csv").mkdir(parents=True)
    assert main(["reproduce", "fig5a", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config.out: cannot write '{tmp_path / 'out' / 'fig5a.csv'}': ")


# One field of a small valid document replaced by a valid or an invalid value
# (MISSING deletes the field); every document must exit 2 at validate exactly
# when it exits 2 at run.
MISSING = object()
PROPERTY_BASES = [
    {"model": {"name": "aklt", "parameters": {}}, "g_tau": 0.5, "k_max": 3},
    {"model": {"name": "ghz", "parameters": {"n_sites": 4}}, "g_tau": 0.4, "k_max": 3},
    {"model": {"name": "two_photon", "parameters": {"tau_over_T1": 0.1, "tau_over_T2": 0.02}},
     "g_tau": 0.3, "k_max": 3},
]
FIELD_POOLS = {
    ("model", "name"): ["aklt", "ghz", "two_photon", "cluster", "single_photon", "nope", 3,
                        MISSING],
    ("model", "parameters"): [
        {}, {"n_sites": 3}, {"n_sites": 1}, {"n_sites": 0}, {"n_sites": "x"}, {"n_sites": 2.5},
        {"n_sites": 10 ** 6},
        {"tau_over_T1": -1, "tau_over_T2": 0.1}, {"tau_over_T1": 0.1},
        {"tau_over_T1": 0.1, "tau_over_T2": 1e-13}, {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9},
        {"g_tau": 0.3, "g_T1": 0, "g_T2": 1}, {"amplitudes": [0, 0]},
        {"amplitudes": [1, [0, 1], 0.5]}, {"amplitudes": [[1]]}, {"amplitudes": 3},
        {"amplitudes": []}, {"fock_cutoff": 1}, {"fock_cutoff": "x"}, {"fock_cutoff": 3},
        {"width": 0}, [], "x", None,
        {"tau_over_T1": True, "tau_over_T2": 0.1}, {"g_tau": True, "g_T1": 2.3, "g_T2": 59.9},
        {"n_sites": True}, {"n_sites": False}, {"width": True}, {"fock_cutoff": True},
        {"amplitudes": [True, 0.5]}, {"widht": 1}, {"n_sites": 6, "widht": 1}],
    ("interaction",): [
        "exchange", "cluster", "heisenberg", "controlled", "nope", {"matrix": matrix(np.eye(4))},
        {"matrix": matrix(np.eye(6))}, {"matrix": matrix(NON_UNITARY)},
        {"matrix": matrix(np.eye(6)), "hamiltonian": matrix(np.zeros((6, 6)))},
        {"matrix": matrix(np.eye(6)), "hamiltonian": matrix(np.triu(np.ones((6, 6))))},
        {"matrix": matrix(np.eye(6)), "hamiltonian": matrix(np.eye(4))},
        {"matrix": matrix(np.eye(5))}, {"matrix": []}, {"matrix": [[1]]}, {"matrix": "x"}, {}, 3,
        None, {"matrix": matrix(DFT_UNITARY)}],
    ("g_tau",): [0, 0.3, -0.1, "x", float("nan"), 1e9, True, None, MISSING],
    ("k_max",): [0, 1, 4, 6, -1, 2.5, "x", True, False, None, MISSING],
    ("tau",): [None, 0, -1, 0.5, "x", float("inf"), True, False],
    ("method",): ["embedding", "decorrelated", "oracle", "nz", "gksl", "nope", 3],
    ("initial_state",): [
        "ground", "excited", "plus", "mixed", "nope", {"matrix": matrix(np.eye(2) / 2)},
        {"matrix": matrix(np.eye(2))}, {"matrix": matrix(np.eye(3) / 3)},
        {"matrix": matrix(np.full((2, 2), 0.5))}, {"matrix": matrix([[1.5, 0], [0, -0.5]])},
        {"matrix": matrix([[0.5, 0.5], [0, 0.5]])}, {"matrix": "x"}, {}, 3, None],
    ("observables",): [
        [], ["depolarization"], ["sigma_x", "depolarization"], ["nope"],
        [{"name": "p", "matrix": matrix([[1, 0], [0, 0]])}],
        [{"name": "p", "matrix": matrix([[0, 1], [0, 0]])}],
        [{"name": "p", "matrix": matrix(np.eye(3))}], [{"matrix": matrix(np.eye(2))}], [3],
        "sigma_z", ["coherence", "excited_population", "sigma_y"], None],
    ("n_sites",): [2, 3, 4, 6, "x", True, False, None],
    ("fock_cutoff",): [1, 2, 3, 7, "x", None],
    ("tolerances",): [{}, {"cutoff_shift": "x"}, {"cutoff_shift": 1e-3}, {"cutoff_shift": -1},
                      {"cutoff_shift": 1.0}, {"cutoff_shfit": 1.0}, {"cutoff_shift": False},
                      [], None, True, False],
    ("model", "paramters"): [{}],
    ("observable",): [["sigma_x"]],
    ("intial_state",): ["plus"],
    # Only targets no run can write, so that no example writes into the working directory.
    ("output",): [None, "/", "/nonexistent/dir/x.csv", 3],
}
FIELD_CHANGES = [(path, value) for path, pool in FIELD_POOLS.items() for value in pool]


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(PROPERTY_BASES), method=st.sampled_from(cli.METHODS),
       change=st.sampled_from(FIELD_CHANGES))
def test_validate_rejects_exactly_what_run_rejects(tmp_path, base, method, change):
    doc = copy.deepcopy({**base, "method": method})
    (*parents, key), value = change
    target = doc
    for parent in parents:
        target = target[parent]
    if value is MISSING:
        del target[key]
    else:
        target[key] = copy.deepcopy(value)
    path = write_config(tmp_path, doc)
    validated = main(["validate", "--config", path])
    ran = main(["run", "--config", path])  # raising out of main fails the test
    assert validated in (0, 2) and ran in (0, 2, 3)
    assert (validated == 2) == (ran == 2)


# -- run ---------------------------------------------------------------------------

def test_run_embedding_vs_oracle_columns(tmp_path):
    base = aklt_doc(observables=["depolarization", "sigma_z"])
    emb = run_config(load_config(base))
    orc = run_config(load_config({**base, "method": "oracle", "n_sites": 8}))
    h1, rows1 = parse_csv(emb)
    h2, rows2 = parse_csv(orc)
    assert h1 == h2 == ["k", "g_t", "depolarization", "sigma_z"]
    assert rows1.shape == rows2.shape
    assert np.max(np.abs(rows1 - rows2)) < 1e-10


def test_run_deterministic():
    cfg = load_config(aklt_doc(method="nz", k_max=6))
    assert run_config(cfg) == run_config(cfg)


def test_run_writes_output_file(tmp_path):
    out = tmp_path / "out.csv"
    path = write_config(tmp_path, aklt_doc(output=str(out), k_max=3))
    assert main(["run", "--config", path]) == 0
    header, rows = parse_csv(out.read_text())
    assert header[:2] == ["k", "g_t"]
    assert rows.shape[0] == 4


def test_run_gksl_method():
    text = run_config(load_config(aklt_doc(method="gksl", g_tau=0.1, k_max=5,
                                           interaction="controlled",
                                           observables=["sigma_z"])))
    header, rows = parse_csv(text)
    assert rows[0, 2] == pytest.approx(1.0)


def test_run_custom_matrix_interaction_and_state():
    ident = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(6)] for i in range(6)]
    rho = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
    doc = aklt_doc(interaction={"matrix": ident},
                   initial_state={"matrix": rho},
                   observables=[{"name": "proj_g", "matrix":
                                 [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}],
                   k_max=3)
    header, rows = parse_csv(run_config(load_config(doc)))
    assert header[2] == "proj_g"
    assert np.max(np.abs(rows[:, 2] - 0.5)) < 1e-12


@pytest.mark.parametrize("u", [seeded_minus_one_unitary(), DFT_UNITARY], ids=["seeded", "dft"])
@pytest.mark.parametrize("method", cli.METHODS)
def test_custom_unitary_with_eigenvalue_minus_one_runs(tmp_path, capsys, u, method):
    # No principal logarithm exists at the eigenvalue -1; H comes from U's own
    # eigenbasis with the phase +pi there, so every method, gksl included,
    # validates and runs.
    path = write_config(tmp_path, model_doc("aklt", {}, method=method,
                                            interaction={"matrix": matrix(u)}))
    assert main(["validate", "--config", path]) == 0
    assert main(["run", "--config", path]) == 0  # raising out of main fails the test
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", models.INTERACTION_NAMES)
@pytest.mark.parametrize("g_tau", [0.05, 0.3, 1.0])
def test_hamiltonian_from_unitary_of_named_interactions(name, g_tau):
    named = models.interaction(name, g_tau)
    h = cli._hamiltonian_from_unitary(named.unitary, g_tau)
    assert np.max(np.abs(h - named.hamiltonian)) <= 1e-13
    assert np.max(np.abs(h - 1j * scipy.linalg.logm(named.unitary) / g_tau)) <= 1e-13


def test_hamiltonian_from_unitary_is_the_principal_logarithm():
    # Generic spectra, and spectra with clusters split by 0 to 1e-9, none at -1.
    rng = np.random.default_rng(11)
    for trial in range(200):
        q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
        if trial % 2:
            phases = rng.uniform(-3.0, 3.0, size=6)
        else:
            phases = (rng.choice([0.0, 1.0, -1.0, 2.5], size=6)
                      + rng.choice([0.0, 1e-12, 1e-9], size=6))
        u = unitary(q, phases)
        h = cli._hamiltonian_from_unitary(u, 0.4)
        assert np.max(np.abs(h - 1j * scipy.linalg.logm(u) / 0.4)) <= 1e-13


@pytest.mark.parametrize("u,principal", [
    (-np.eye(6), True), (np.eye(6)[[1, 0, 3, 2, 5, 4]], True), (DFT_UNITARY, False),
    (seeded_minus_one_unitary(), False)], ids=["minus_identity", "permutation", "dft", "seeded"])
@pytest.mark.parametrize("g_tau", [0.05, 0.4, 1.0])
def test_hamiltonian_from_unitary_at_eigenvalue_minus_one(u, principal, g_tau):
    # Repeated eigenvalues -1 and +1: H is Hermitian and generates U.  Where the
    # principal logarithm exists (``principal``) it takes +pi at -1, and so does H.
    h = cli._hamiltonian_from_unitary(u, g_tau)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-14
    assert np.max(np.abs(scipy.linalg.expm(-1j * g_tau * h) - u)) <= 1e-13
    if principal:
        assert np.max(np.abs(h - 1j * scipy.linalg.logm(u) / g_tau)) <= 1e-13
    assert cli._hamiltonian_from_unitary(u, 0.0) is None


@pytest.mark.parametrize("doc", [
    aklt_doc(method="nz", k_max=6),
    model_doc("two_photon", {"tau_over_T1": 0.4, "tau_over_T2": 0.05}, method="nz", k_max=6),
])
def test_run_nz_maps_gate(tmp_path, capsys, monkeypatch, doc):
    # Every nz run checks its kernel table against the embedding's maps; the
    # CSV is the ungated one, and one corrupted entry K_{4,2} exits 3 at step 4.
    cfg = load_config(doc)
    path = write_config(tmp_path, doc)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_nz_states", lambda model, rho0, k_max: master_equation.solve_nz(
            master_equation.build_kernel_table(model, k_max), rho0, k_max))
        ungated = run_config(cfg)
    assert main(["run", "--config", path]) == 0
    assert capsys.readouterr().out == ungated
    table = master_equation.build_kernel_table(cfg["model"], 6)
    packed = table.packed.copy()
    packed[4 * 5 // 2 + 2, 0, 0] += 1e-9
    corrupted = master_equation.KernelTable(table.tau, table.d_system, packed)
    residuals = master_equation._maps_residuals(cfg["model"], corrupted, 6)
    assert np.max(residuals[:4]) <= 1e-14 < 1e-12 < residuals[4]
    monkeypatch.setattr(master_equation, "build_kernel_table", lambda model, k_max: corrupted)
    assert main(["run", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: nz maps residual at step 4 is {residuals[4]:.3e} (> 1e-12); "
                            "the kernel table does not reproduce the embedding's map E_5\n")


def test_nz_maps_gate_is_independent_of_the_table(monkeypatch):
    # aklt's table comes off one projected thread, the gate's maps off the
    # unprojected walk: maps bent by 1e-9 after the first collision leave the
    # table as it is and are refused at step 0.  One nz run builds the maps once.
    cfg = load_config(aklt_doc(g_tau=0.4))
    map_stack, calls = master_equation._map_stack, []

    def bent(model, n):
        calls.append(n)
        maps = map_stack(model, n)
        maps[1:, 0, 0] += 1e-9
        return maps

    monkeypatch.setattr(master_equation, "_map_stack", bent)
    with pytest.raises(cli._StateGateError, match=r"at step 0 is 1\.000e-09 "):
        cli._nz_states(cfg["model"], cfg["initial_state"], 30)
    assert calls == [30]


@pytest.mark.parametrize("g_tau,value", [(50, "inf"), (1e9, "nan")])
def test_run_gksl_refuses_non_finite_states(tmp_path, capsys, g_tau, value):
    # Far outside gτ -> 0 the generator's exponential overflows; the run exits
    # 3 naming the first bad step instead of writing inf/nan with exit 0.
    path = write_config(tmp_path, aklt_doc(method="gksl", g_tau=g_tau, k_max=3))
    assert main(["validate", "--config", path]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == "ok\n"
    assert captured.err == ("error: gksl state at step 1 has a trace/Hermiticity defect of "
                            f"{value} (> 1e-10); the generator does not hold at this coupling\n")


def test_run_gksl_gate_measures_trace_and_hermiticity(tmp_path, capsys, monkeypatch):
    # A finite state off unit trace or off Hermiticity by more than 1e-10 is refused.
    doc = aklt_doc(method="gksl", g_tau=0.1, k_max=4, interaction="controlled")
    states = master_equation.evolve_gksl_grid(load_config(doc)["generator"],
                                              np.diag([1.0, 0.0]), 0.1, 4)
    path = write_config(tmp_path, doc)
    for k, bad, defect in ((2, np.diag([0.0, 1e-9]), "1.000e-09"),   # trace
                           (3, np.array([[0.0, 1e-9], [0.0, 0.0]]), "1.414e-09")):   # ||X - X^dag||
        rigged = [rho + bad * (j == k) for j, rho in enumerate(states)]
        monkeypatch.setattr(master_equation, "evolve_gksl_grid",
                            lambda *args, rigged=rigged: rigged)
        assert main(["run", "--config", path]) == 3
        assert f"step {k} has a trace/Hermiticity defect of {defect}" in capsys.readouterr().err
    monkeypatch.setattr(master_equation, "evolve_gksl_grid", lambda *args: states)
    assert main(["run", "--config", path]) == 0


def test_run_cluster_cutoff_gate(tmp_path, capsys):
    doc = {"model": {"name": "cluster", "parameters": {}}, "g_tau": 0.6,
           "k_max": 10, "interaction": "cluster", "fock_cutoff": 5}
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 3
    assert "cutoff" in capsys.readouterr().err
    # a converged cutoff passes the gate
    doc["fock_cutoff"] = 9
    path = write_config(tmp_path, doc, "ok.json")
    assert main(["run", "--config", path]) == 0


@pytest.mark.parametrize("method,column", [("embedding", 2), ("decorrelated", 3)])
def test_run_cluster_gate_reuses_cutoff_trajectory(monkeypatch, method, column):
    # The gate's trajectory at the configured cutoff is the run's result: two
    # trajectories (cutoff and cutoff + 2), not a third repeat for the method.
    calls = []
    original = embedding.trajectory

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (embedding, cli):
        monkeypatch.setattr(module, "trajectory", counted)
    text = run_config(load_config({**PRESETS["fig5b"], "method": method}))
    assert len(calls) == 2
    # reproduce skips the gate; the gated run gives the same bytes.
    golden = (GOLDEN / "fig5b_gtau03.csv").read_text().splitlines()
    assert text.splitlines()[1:] == [
        ",".join(line.split(",")[i] for i in (0, 1, column)) for line in golden[1:]]


def test_run_oracle_guard_exit_code(tmp_path, capsys):
    doc = aklt_doc(method="oracle", k_max=14, n_sites=14)
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 3
    assert "guard" in capsys.readouterr().err


def test_run_oracle_guard_counts_padded_sites(tmp_path, capsys, monkeypatch):
    # 12 collided sites padded to the Fock cutoff 9 exceed the guard; the
    # state vector must never be built.
    def refuse(run):
        raise AssertionError("oracle ran past its size guard")

    monkeypatch.setattr(oracle, "brute_force_trajectory", refuse)
    doc = {**PRESETS["fig5b"], "method": "oracle", "k_max": 12, "fock_cutoff": 9}
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 3
    assert f"state vector of {2 * 9 ** 12} entries" in capsys.readouterr().err


def test_run_nz_guard_exit_code(tmp_path, capsys, monkeypatch):
    # The table term, K(K+1)/2 d_S^4 = 5126400 numbers, refuses it before any bond step.
    for name in ("_kraus_sum", "_transfer_sum"):
        monkeypatch.setattr(mps, name, lambda *args: pytest.fail("bond step before the guard"))
    path = write_config(tmp_path, aklt_doc(method="nz", k_max=800))
    assert main(["run", "--config", path]) == 3
    assert "kernel table of 5126400 entries exceeds" in capsys.readouterr().err


# -- presets and reproduce -----------------------------------------------------------

def test_presets_round_trip_schema():
    for name, preset in PRESETS.items():
        text = json.dumps(preset)
        assert json.loads(text) == preset
        load_config(json.loads(text))  # parses cleanly


def test_reproduce_fig6a_matches_closed_forms(tmp_path):
    paths = reproduce("fig6a", str(tmp_path))
    header, rows = parse_csv(paths[0].read_text())
    assert header == ["k", "g_t", "q_exact", "q_uncorrelated",
                      "q_exact_closed_form", "q_markov_closed_form"]
    for row in rows:
        k = int(row[0])
        assert abs(row[2] - aklt_exact_q(k, 0.5)) < 1e-10
        assert abs(row[3] - aklt_markov_q(k, 0.5)) < 1e-10
        assert abs(row[2] - row[4]) < 1e-10
        assert abs(row[3] - row[5]) < 1e-10


def test_reproduce_fig5a(tmp_path):
    paths = reproduce("fig5a", str(tmp_path))
    header, rows = parse_csv(paths[0].read_text())
    assert header[2:] == ["excited_population_correlated", "excited_population_uncorrelated"]
    assert rows[0, 2] == 0.0
    gap = np.max(np.abs(rows[:, 2] - rows[:, 3]))
    assert gap > 0.05


def test_reproduce_fig5b(tmp_path):
    paths = reproduce("fig5b", str(tmp_path))
    assert sorted(p.name for p in paths) == ["fig5b_gtau03.csv", "fig5b_gtau06.csv"]
    for p in paths:
        _, rows = parse_csv(p.read_text())
        # two first collisions identical between correlated and uncorrelated
        assert np.max(np.abs(rows[:3, 2] - rows[:3, 3])) < 1e-12


def test_reproduce_fig5b_applies_the_cutoff_gate(tmp_path, capsys, monkeypatch):
    # Each curve passes the Fock-cutoff gate that run applies: at g_tau 0.6 the
    # cutoff 5 is not converged, so reproduce exits 3 instead of writing it.
    unconverged = {**PRESETS["fig5b"], "g_tau": 0.6, "fock_cutoff": 5}
    monkeypatch.setitem(cli._VARIANT_RUNS, "fig5b", [("fig5b_gtau06.csv", unconverged)])
    assert main(["reproduce", "fig5b", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Fock cutoff" in captured.err
    assert not (tmp_path / "fig5b_gtau06.csv").exists()


def test_reproduce_fig6b(tmp_path):
    paths = reproduce("fig6b", str(tmp_path))
    names = sorted(p.name for p in paths)
    assert names == ["fig6b_exact.csv", "fig6b_gksl.csv"]
    _, exact = parse_csv(paths[0].read_text())
    _, gksl = parse_csv(paths[1].read_text())
    assert len(gksl) == 10 * (len(exact) - 1) + 1
    # the continuous curve tracks the discrete points (tight agreement is
    # what acceptance criterion 9 quantifies via the convergence ratio)
    for k in (0, 50, 100, 200):
        assert abs(exact[k, 2] - gksl[10 * k, 2]) < 0.2


def test_reproduce_fig6b_gates_its_gksl_curve(tmp_path, capsys, monkeypatch):
    # fig6b's GKSL curve takes run's route through the state gate: a NaN state
    # exits 3 with the gate's message, and the curve is not written.
    grid = master_equation.evolve_gksl_grid

    def broken(*args):
        states = grid(*args)
        states[7] = np.full_like(states[7], np.nan)
        return states

    monkeypatch.setattr(master_equation, "evolve_gksl_grid", broken)
    assert main(["reproduce", "fig6b", "--out", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: gksl state at step 7 has a trace/Hermiticity defect of nan "
                            "(> 1e-10); the generator does not hold at this coupling\n")
    assert not (tmp_path / "fig6b_gksl.csv").exists()


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def test_reproduce_matches_golden(tmp_path):
    written = []
    for figure in ("fig5a", "fig5b", "fig6a", "fig6b"):
        written += reproduce(figure, str(tmp_path))
    assert sorted(p.name for p in written) == sorted(p.name for p in GOLDEN.glob("*.csv"))
    for path in written:
        golden = GOLDEN / path.name
        if path.name == "fig6b_gksl.csv":
            # matrix exponentials of a generator assembled in floating point
            got_header, got = parse_csv(path.read_text())
            want_header, want = parse_csv(golden.read_text())
            assert got_header == want_header
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12
        else:
            assert path.read_bytes() == golden.read_bytes(), path.name


def test_kernel_subcommand_output():
    cfg = load_config(aklt_doc(g_tau=0.2))
    text = kernel_norms(cfg, 3, 3)
    lines = text.strip().split("\n")
    assert lines[0] == "m,kernel_norm,second_order_norm"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == "nan"
    m1 = [float(x) for x in lines[2].split(",")]
    assert m1[1] > 0 and m1[2] > 0
    # The memory-kernel column is row k of the kernel table to the last bit.
    for k, m_max in ((3, 3), (6, 3)):
        column = [float(line.split(",")[1])
                  for line in kernel_norms(cfg, k, m_max).strip().split("\n")[1:]]
        table = build_kernel_table(cfg["model"], k + 1)
        assert column == [table.kernel(k, m).norm() for m in range(m_max + 1)]


def test_kernel_subcommand_walks_one_ladder(monkeypatch):
    # Both columns of a scan share one bond ladder to k, which stops at a
    # fixed point: aklt's chi_0 = I/2 is one after a single step, two_photon
    # has none within k.  The CSV is the one of a per-m second_order_kernel
    # (each with its own ladder) to the byte.  Both chains walk by transfer
    # products: a rung's moves one bond state, a readout step's a stack, and
    # the column's one readout walk takes m_max - 1 of those.
    k, m_max = 12, 9
    transfer_sum = mps._transfer_sum
    for doc, steps in ((aklt_doc(g_tau=0.3), 1),
                       (model_doc("two_photon", {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}), k)):
        cfg = load_config(doc)
        model = cfg["model"]
        table = build_kernel_table(model, k + 1)
        want = cli._format_csv(["m", "kernel_norm", "second_order_norm"], [
            [m, table.kernel(k, m).norm(),
             second_order_kernel(model, k, m).norm() if m else float("nan")]
            for m in range(m_max + 1)])
        calls = []

        def counted(p, x):
            calls.append(x.ndim)
            return transfer_sum(p, x)

        with monkeypatch.context() as patch:
            patch.setattr(mps, "_transfer_sum", counted)
            assert kernel_norms(cfg, k, m_max) == want
        assert (calls.count(2), calls.count(4)) == (steps, m_max - 1)


def test_kernel_subcommand_size_guard(tmp_path, capsys, monkeypatch):
    # At k = m_max = 59 two_photon (D = 3, no onset by rung 59) holds 60 thread
    # stacks of 7 * 4 * 6**2 numbers; aklt, onset 0, walks one of 7 * 4 * 4**2.
    monkeypatch.setattr(master_equation, "KERNEL_GUARD", 400)
    monkeypatch.setattr(embedding, "_collide",
                        lambda *args: pytest.fail("collision before the guard"))
    two_photon = model_doc("two_photon", {"tau_over_T1": 0.1, "tau_over_T2": 0.1})
    for doc, entries in ((two_photon, 60480), (aklt_doc(), 448)):
        path = write_config(tmp_path, doc)
        assert main(["kernel", "--config", path, "--k", "59", "--m-max", "59"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"thread stack of {entries} entries exceeds the 400 guard" in captured.err


@pytest.mark.parametrize("doc,args,argument", [
    (model_doc("ghz", {"n_sites": 4}), ["--k", "10", "--m-max", "2"], "--k"),
    (model_doc("ghz", {"n_sites": 4}), ["--k", "4", "--m-max", "2"], "--k"),
    (aklt_doc(), ["--k", "-1", "--m-max", "2"], "--k"),
    (aklt_doc(), ["--k", "3", "--m-max", "-1"], "--m-max"),
])
def test_kernel_subcommand_argument_errors(tmp_path, capsys, doc, args, argument):
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--config", write_config(tmp_path, doc), *args])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {argument}: must be >= 0" in captured.err


def test_kernel_subcommand_last_site_of_finite_chain(tmp_path, capsys):
    path = write_config(tmp_path, model_doc("ghz", {"n_sites": 4}))
    assert main(["kernel", "--config", path, "--k", "3", "--m-max", "5"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 4


# -- fresh processes ---------------------------------------------------------------

def run_cli_process(tmp_path, doc, *args, **env_vars):
    """``python -X importtime -m mpscollision.cli`` on a config (none when ``doc`` is None),
    with ``env_vars`` added to the environment; returns (proc, imported modules)."""
    env = {**os.environ, **env_vars}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "mpscollision.cli", *args,
         *(() if doc is None else ("--config", write_config(tmp_path, doc)))],
        capture_output=True, text=True, env=env, timeout=120)
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    return proc, imported


def test_validate_process_imports_no_scipy(tmp_path):
    # the package, the CLI module (run as __main__) and validation run on numpy alone
    proc, imported = run_cli_process(tmp_path, aklt_doc(), "validate")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout == "ok\n"
    assert {"numpy", "mpscollision"} <= imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


ROUTE_MODULES = ("mpscollision.master_equation", "mpscollision.oracle")


@pytest.mark.parametrize("args,doc,loaded", [
    (["run"], aklt_doc(k_max=4), ()),
    (["run"], aklt_doc(k_max=4, method="decorrelated"), ()),
    (["validate"], aklt_doc(method="nz"), ()),
    (["reproduce", "fig5a", "--out", "{out}"], None, ()),
    (["run"], aklt_doc(k_max=4, method="oracle"), ("mpscollision.oracle",)),
    (["run"], aklt_doc(k_max=4, method="nz"), ("mpscollision.master_equation",)),
    (["run"], aklt_doc(k_max=4, method="gksl", g_tau=0.1), ("mpscollision.master_equation",)),
    (["kernel", "--k", "2", "--m-max", "2"], aklt_doc(k_max=4), ("mpscollision.master_equation",)),
    (["reproduce", "fig6b", "--out", "{out}"], None, ("mpscollision.master_equation",)),
], ids=["embedding", "decorrelated", "validate", "fig5a", "oracle", "nz", "gksl", "kernel",
        "fig6b"])
def test_process_loads_only_the_route_it_runs(tmp_path, args, doc, loaded):
    # master_equation and oracle load on first use: a process imports neither unless its method
    # or subcommand calls it.
    args = [a.format(out=tmp_path / "out") for a in args]
    proc, imported = run_cli_process(tmp_path, doc, *args)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert {"mpscollision.embedding", "mpscollision.models", "mpscollision.mps"} <= imported
    assert sorted(imported & set(ROUTE_MODULES)) == list(loaded)


def test_fig5a_keeps_golden_bytes_on_one_blas_thread(tmp_path):
    # fig5a's decorrelated column is written with the bond step's contraction order, whose
    # bits hold on one BLAS thread as on the default count.
    proc, _ = run_cli_process(tmp_path, None, "reproduce", "fig5a", "--out", str(tmp_path),
                              OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert (tmp_path / "fig5a.csv").read_bytes() == (GOLDEN / "fig5a.csv").read_bytes()


def test_gksl_processes_import_no_scipy_and_match_run_config(tmp_path):
    # GKSL exponentials are numpy only: neither a gksl run nor fig6b's curve loads scipy.
    doc = aklt_doc(method="gksl", g_tau=0.1, k_max=20, interaction="controlled",
                   initial_state="plus", observables=["sigma_z", "sigma_x"])
    proc, imported = run_cli_process(tmp_path, doc, "run")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert "mpscollision.master_equation" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]
    assert proc.stdout == run_config(load_config(doc))
    proc, imported = run_cli_process(tmp_path, None, "reproduce", "fig6b", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-500:]
    assert (tmp_path / "fig6b_gksl.csv").is_file()
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def test_custom_matrix_processes_import_no_scipy(tmp_path):
    # A custom interaction given without its Hamiltonian recovers H on numpy alone.
    doc = aklt_doc(method="gksl", g_tau=0.1, k_max=5, observables=["sigma_z"],
                   interaction={"matrix": matrix(models.interaction("controlled", 0.1).unitary)})
    proc, imported = run_cli_process(tmp_path, doc, "run")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert not [name for name in imported if name.split(".")[0] == "scipy"]
    assert proc.stdout == run_config(load_config(doc))
    proc, imported = run_cli_process(tmp_path, doc, "kernel", "--k", "2", "--m-max", "3")
    assert proc.returncode == 0, proc.stderr[-500:]
    assert not [name for name in imported if name.split(".")[0] == "scipy"]
