import json
from pathlib import Path

import numpy as np
import pytest

from mpscollision.cli import (
    ConfigError,
    PRESETS,
    kernel_norms,
    load_config,
    main,
    reproduce,
    run_config,
)
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
])
def test_validate_field_errors(doc, field):
    with pytest.raises(ConfigError) as err:
        load_config(doc)
    assert f"config.{field}" in str(err.value)


def test_validate_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, {"model": {"name": "aklt"}})
    assert main(["validate", "--config", path]) == 2
    assert "config.g_tau" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path / "missing.json")]) == 2


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


def test_run_oracle_guard_exit_code(tmp_path, capsys):
    doc = aklt_doc(method="oracle", k_max=14, n_sites=14)
    path = write_config(tmp_path, doc)
    assert main(["run", "--config", path]) == 3
    assert "guard" in capsys.readouterr().err


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
