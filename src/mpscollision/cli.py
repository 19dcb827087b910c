"""Config-driven experiment runner with CSV output.

Subcommands:

* ``run --config FILE`` — one experiment described by a JSON document;
* ``reproduce FIG --out DIR`` — curve data for the four reference figures;
* ``validate --config FILE`` — schema check only;
* ``kernel --config FILE --k K --m-max M`` — memory-kernel norms per delay.

Exit codes: 0 success, 2 config error, 3 convergence or size-guard failure.
All outputs are deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

from . import models
from .embedding import CollisionModel, CutoffConvergenceError, cutoff_shift, observable_series, trajectory
from .linalg import dagger, frobenius, hermitian_part
from .master_equation import build_kernel_table, evolve_gksl, memory_kernel, second_order_kernel, solve_nz, stroboscopic_generator
from .models import ModelSpec
from .mps import decorrelate, _matrix_from_json
from .oracle import OracleRun, SizeGuardError, brute_force_trajectory

__all__ = ["main", "ConfigError", "load_config", "run_config", "reproduce", "PRESETS"]

METHODS = ("embedding", "oracle", "nz", "gksl", "decorrelated")
FIGURES = ("fig5a", "fig5b", "fig6a", "fig6b")
DEFAULT_CUTOFF_SHIFT_TOL = 1e-6


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config.{field}: {message}")


def _require(cfg: dict, field: str, types, path: str = ""):
    full = f"{path}{field}"
    if field not in cfg:
        raise ConfigError(full, "missing required field")
    value = cfg[field]
    if not isinstance(value, types):
        raise ConfigError(full, f"expected {types}, got {type(value).__name__}")
    return value


def _parse_matrix(data, field: str) -> np.ndarray:
    try:
        return _matrix_from_json(data)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(field, f"not a valid [[re, im], ...] matrix: {exc}") from exc


def load_config(doc: dict) -> dict:
    """Validate a config document and normalize it to runtime objects."""
    if not isinstance(doc, dict):
        raise ConfigError("", "top-level document must be an object")
    model = _require(doc, "model", dict)
    name = _require(model, "name", str, "model.")
    if name not in models.MODEL_NAMES:
        raise ConfigError("model.name", f"unknown model '{name}'")
    parameters = model.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ConfigError("model.parameters", "expected an object")
    spec = ModelSpec(name, parameters)

    g_tau = _require(doc, "g_tau", (int, float))
    if g_tau < 0:
        raise ConfigError("g_tau", "must be nonnegative")
    k_max = _require(doc, "k_max", int)
    if k_max < 1:
        raise ConfigError("k_max", "must be at least 1")
    tau = doc.get("tau")
    if tau is not None and (not isinstance(tau, (int, float)) or tau <= 0):
        raise ConfigError("tau", "must be a positive number")

    method = doc.get("method", "embedding")
    if method not in METHODS:
        raise ConfigError("method", f"expected one of {METHODS}")

    interaction = doc.get("interaction", models.DEFAULT_INTERACTION[name])
    if isinstance(interaction, str):
        if interaction not in models.INTERACTION_NAMES:
            raise ConfigError("interaction", f"unknown interaction '{interaction}'")
    elif isinstance(interaction, dict):
        _parse_matrix(_require(interaction, "matrix", list, "interaction."),
                      "interaction.matrix")
        if "hamiltonian" in interaction:
            _parse_matrix(interaction["hamiltonian"], "interaction.hamiltonian")
    else:
        raise ConfigError("interaction", "expected a name or {matrix: ...}")

    initial = doc.get("initial_state", "ground")
    if isinstance(initial, str):
        try:
            models.named_initial_state(initial)
        except ValueError as exc:
            raise ConfigError("initial_state", str(exc)) from exc
    elif isinstance(initial, dict):
        _parse_matrix(_require(initial, "matrix", list, "initial_state."),
                      "initial_state.matrix")
    else:
        raise ConfigError("initial_state", "expected a name or {matrix: ...}")

    observables = doc.get("observables", _default_observables(name))
    if not isinstance(observables, list) or not observables:
        raise ConfigError("observables", "expected a nonempty list")
    for j, obs in enumerate(observables):
        if isinstance(obs, str):
            if obs != "depolarization":
                try:
                    models.named_observable(obs)
                except ValueError as exc:
                    raise ConfigError(f"observables[{j}]", str(exc)) from exc
        elif isinstance(obs, dict):
            _require(obs, "name", str, f"observables[{j}].")
            _parse_matrix(_require(obs, "matrix", list, f"observables[{j}]."),
                          f"observables[{j}].matrix")
        else:
            raise ConfigError(f"observables[{j}]", "expected a name or {name, matrix}")

    n_sites = doc.get("n_sites", k_max)
    if not isinstance(n_sites, int) or n_sites < k_max:
        raise ConfigError("n_sites", "must be an integer >= k_max")
    fock_cutoff = doc.get("fock_cutoff")
    if fock_cutoff is not None and (not isinstance(fock_cutoff, int) or fock_cutoff < 2):
        raise ConfigError("fock_cutoff", "must be an integer >= 2")
    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances", "expected an object")
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output", "expected a path string")

    return {
        "spec": spec,
        "g_tau": float(g_tau),
        "tau": None if tau is None else float(tau),
        "k_max": k_max,
        "method": method,
        "interaction": interaction,
        "initial_state": initial,
        "observables": observables,
        "n_sites": n_sites,
        "fock_cutoff": fock_cutoff,
        "tolerances": tolerances,
        "output": output,
    }


def _default_observables(model_name: str) -> list:
    return {
        "two_photon": ["excited_population"],
        "cluster": ["coherence"],
        "aklt": ["depolarization"],
        "ghz": ["excited_population"],
        "single_photon": ["excited_population"],
    }[model_name]


def _build_model(cfg: dict) -> CollisionModel:
    inter = cfg["interaction"]
    if isinstance(inter, str):
        return models.build_model(cfg["spec"], cfg["g_tau"], interaction_name=inter,
                                  fock_cutoff=cfg["fock_cutoff"], tau=cfg["tau"])
    env = models.environment_for(cfg["spec"])
    u = _parse_matrix(inter["matrix"], "interaction.matrix")
    if u.shape[0] % 2:
        raise ConfigError("interaction.matrix", "dimension must be 2 * mode_dim")
    mode_dim = u.shape[0] // 2
    if "hamiltonian" in inter:
        h = _parse_matrix(inter["hamiltonian"], "interaction.hamiltonian")
    else:
        h = _hamiltonian_from_unitary(u, cfg["g_tau"])
    try:
        return CollisionModel(env=env, unitary=u, d_system=2, mode_dim=mode_dim,
                              g_tau=cfg["g_tau"], tau=cfg["tau"], hamiltonian=h)
    except ValueError as exc:
        raise ConfigError("interaction.matrix", str(exc)) from exc


def _hamiltonian_from_unitary(u: np.ndarray, g_tau: float) -> np.ndarray | None:
    if g_tau <= 0:
        return None
    h = 1j * scipy.linalg.logm(u) / g_tau
    return hermitian_part(h) if frobenius(h - dagger(h)) < 1e-8 else None


def _initial_matrix(cfg: dict) -> np.ndarray:
    initial = cfg["initial_state"]
    if isinstance(initial, str):
        return models.named_initial_state(initial)
    return _parse_matrix(initial["matrix"], "initial_state.matrix")


def _check_cluster_cutoff(cfg: dict, model: CollisionModel, rho0: np.ndarray) -> None:
    """Abort photon-creating runs whose observables depend on the cutoff."""
    if not isinstance(cfg["interaction"], str) or cfg["interaction"] != "cluster":
        return
    tol = float(cfg["tolerances"].get("cutoff_shift", DEFAULT_CUTOFF_SHIFT_TOL))
    cutoff = model.mode_dim

    def build(c):
        m = models.build_model(cfg["spec"], cfg["g_tau"], interaction_name="cluster",
                               fock_cutoff=c, tau=cfg["tau"])
        if cfg["method"] == "decorrelated":
            m = dataclasses.replace(m, env=decorrelate(m.env, length=cfg["k_max"]))
        return m

    probe = models.named_observable("coherence")
    shift = cutoff_shift(build, rho0, probe, cfg["k_max"], cutoff, cutoff + 2)
    if shift > tol:
        raise CutoffConvergenceError(
            f"observables shift by {shift:.3e} (> {tol:.1e}) when the Fock cutoff "
            f"grows from {cutoff} to {cutoff + 2}; increase fock_cutoff"
        )


def _states_for_method(cfg: dict, model: CollisionModel, rho0: np.ndarray) -> list[np.ndarray]:
    method = cfg["method"]
    k_max = cfg["k_max"]
    if method == "embedding":
        return trajectory(model, rho0, k_max)
    if method == "decorrelated":
        dec = dataclasses.replace(model, env=decorrelate(model.env, length=k_max))
        return trajectory(dec, rho0, k_max)
    if method == "oracle":
        run = OracleRun(model, rho0, n_sites=cfg["n_sites"], k_max=k_max)
        return brute_force_trajectory(run)
    if method == "nz":
        table = build_kernel_table(model, k_max)
        return solve_nz(table, rho0, k_max)
    if method == "gksl":
        gen = stroboscopic_generator(model)
        return [evolve_gksl(gen, rho0, k * model.tau) for k in range(k_max + 1)]
    raise ConfigError("method", f"unhandled method {method}")


def _observable_columns(cfg: dict, states: list[np.ndarray]) -> tuple[list[str], list[list[float]]]:
    names, columns = [], []
    for obs in cfg["observables"]:
        if obs == "depolarization":
            names.append("depolarization")
            columns.append(models.depolarization_series(states))
        elif isinstance(obs, str):
            names.append(obs)
            columns.append(observable_series(states, models.named_observable(obs)))
        else:
            names.append(obs["name"])
            matrix = _parse_matrix(obs["matrix"], "observables.matrix")
            columns.append(observable_series(states, matrix))
    return names, columns


def _format_csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def _rows(g_tau: float, columns: list[list[float]]) -> list[list[float]]:
    return [[k, k * g_tau] + [col[k] for col in columns] for k in range(len(columns[0]))]


def _run_columns(cfg: dict, gate: bool = True) -> tuple[list[str], list[list[float]]]:
    """Build the model, evolve it by the configured method, evaluate observables."""
    model = _build_model(cfg)
    rho0 = _initial_matrix(cfg)
    if gate:
        _check_cluster_cutoff(cfg, model, rho0)
    return _observable_columns(cfg, _states_for_method(cfg, model, rho0))


def run_config(cfg: dict) -> str:
    """Execute one validated config and return its CSV text."""
    names, columns = _run_columns(cfg)
    return _format_csv(["k", "g_t"] + names, _rows(cfg["g_tau"], columns))


# -- figure presets -----------------------------------------------------------

PRESETS = {
    "fig5a": {
        "model": {"name": "two_photon",
                  "parameters": {"g_tau": 0.3, "g_T1": 2.3, "g_T2": 59.9}},
        "interaction": "exchange",
        "g_tau": 0.3,
        "k_max": 100,
        "initial_state": "ground",
        "observables": ["excited_population"],
        "method": "embedding",
    },
    "fig5b": {
        "model": {"name": "cluster", "parameters": {}},
        "interaction": "cluster",
        "g_tau": 0.3,
        "k_max": 30,
        "initial_state": "ground",
        "observables": ["coherence"],
        "method": "embedding",
        "fock_cutoff": 7,
    },
    "fig6a": {
        "model": {"name": "aklt", "parameters": {}},
        "interaction": "heisenberg",
        "g_tau": 0.5,
        "k_max": 50,
        "initial_state": "ground",
        "observables": ["depolarization"],
        "method": "embedding",
    },
    "fig6b": {
        "model": {"name": "aklt", "parameters": {}},
        "interaction": "controlled",
        "g_tau": 0.1,
        "k_max": 200,
        "initial_state": "ground",
        "observables": ["sigma_z"],
        "method": "embedding",
    },
}

# Converged Fock cutoffs for the cluster figure (the 0.6 coupling leaks
# higher into the Fock ladder; see the cutoff-shift gate).
_FIG5B_CUTOFF = {0.3: 7, 0.6: 9}


def _variant_rows(base: dict, methods: tuple) -> list[list[float]]:
    """Rows k, g_t and the first observable of ``base`` under each method."""
    columns = [_run_columns(load_config({**base, "method": method}), gate=False)[1][0]
               for method in methods]
    return _rows(base["g_tau"], columns)


def reproduce(figure: str, out_dir: str) -> list[Path]:
    """Emit the CSV data behind one of the reference figures."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if figure == "fig5a":
        rows = _variant_rows(PRESETS["fig5a"], ("embedding", "decorrelated"))
        header = ["excited_population_correlated", "excited_population_uncorrelated"]
        written.append(_write(out / "fig5a.csv", _format_csv(["k", "g_t"] + header, rows)))
    elif figure == "fig5b":
        for g_tau in (0.3, 0.6):
            base = {**PRESETS["fig5b"], "g_tau": g_tau,
                    "fock_cutoff": _FIG5B_CUTOFF[g_tau]}
            rows = _variant_rows(base, ("embedding", "decorrelated"))
            header = ["coherence_correlated", "coherence_uncorrelated"]
            tag = str(g_tau).replace(".", "")
            written.append(_write(out / f"fig5b_gtau{tag}.csv",
                                  _format_csv(["k", "g_t"] + header, rows)))
    elif figure == "fig6a":
        g_tau = PRESETS["fig6a"]["g_tau"]
        rows = _variant_rows(PRESETS["fig6a"], ("embedding", "decorrelated"))
        for k, row in enumerate(rows):
            row += [models.aklt_exact_q(k, g_tau), models.aklt_markov_q(k, g_tau)]
        header = ["q_exact", "q_uncorrelated", "q_exact_closed_form", "q_markov_closed_form"]
        written.append(_write(out / "fig6a.csv", _format_csv(["k", "g_t"] + header, rows)))
    elif figure == "fig6b":
        base = PRESETS["fig6b"]
        cfg = load_config(base)
        text = run_config(cfg)
        written.append(_write(out / "fig6b_exact.csv", text))
        model = _build_model(cfg)
        rho0 = _initial_matrix(cfg)
        gen = stroboscopic_generator(model)
        obs = models.named_observable("sigma_z")
        rows = []
        for j in range(10 * base["k_max"] + 1):
            t = j * model.tau / 10.0
            rho = evolve_gksl(gen, rho0, t)
            rows.append([j / 10.0, (j / 10.0) * base["g_tau"],
                         float(np.trace(rho @ obs).real)])
        written.append(_write(out / "fig6b_gksl.csv",
                              _format_csv(["k", "g_t", "sigma_z"], rows)))
    else:
        raise ConfigError("figure", f"unknown figure '{figure}', expected one of {FIGURES}")
    return written


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


# -- kernel norms -------------------------------------------------------------

def kernel_norms(cfg: dict, k: int, m_max: int) -> str:
    model = _build_model(cfg)
    rows = []
    for m in range(min(m_max, k) + 1):
        knorm = memory_kernel(model, k, m).norm()
        if m >= 1 and model.hamiltonian is not None:
            k2norm = second_order_kernel(model, k, m).norm()
        else:
            k2norm = float("nan")
        rows.append([m, knorm, k2norm])
    return _format_csv(["m", "kernel_norm", "second_order_norm"], rows)


# -- entry point ---------------------------------------------------------------

def _load_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("", f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpscollision",
        description="Collision-model dynamics with MPS environments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)

    p_rep = sub.add_parser("reproduce", help="emit reference-figure data")
    p_rep.add_argument("figure", choices=FIGURES)
    p_rep.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="schema-check a config")
    p_val.add_argument("--config", required=True)

    p_ker = sub.add_parser("kernel", help="emit memory-kernel norms")
    p_ker.add_argument("--config", required=True)
    p_ker.add_argument("--k", type=int, required=True)
    p_ker.add_argument("--m-max", type=int, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(_load_file(args.config))
            text = run_config(cfg)
            if cfg["output"]:
                Path(cfg["output"]).write_text(text)
            else:
                sys.stdout.write(text)
        elif args.command == "reproduce":
            for path in reproduce(args.figure, args.out):
                print(path)
        elif args.command == "validate":
            load_config(_load_file(args.config))
            print("ok")
        elif args.command == "kernel":
            cfg = load_config(_load_file(args.config))
            sys.stdout.write(kernel_norms(cfg, args.k, args.m_max))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CutoffConvergenceError, SizeGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
