"""Config-driven experiment runner with CSV output.

Subcommands:

* ``run --config FILE`` — one experiment described by a JSON document;
* ``reproduce FIG --out DIR`` — curve data for the four reference figures;
* ``validate --config FILE`` — build the run a config describes, without evolving it;
* ``kernel --config FILE --k K --m-max M`` — memory-kernel norms per delay.

Exit codes: 0 success, 2 config error, 3 convergence, size-guard or state-gate failure.
All outputs are deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import models
from .embedding import (CollisionModel, CutoffConvergenceError, SizeGuardError, observable_series,
                        trajectory)
from .linalg import DEFAULT_TOL, assert_density_matrix, dagger, frobenius
from .models import ModelSpec, _finite, _integer
from .mps import decorrelate

# ``master_equation`` and ``oracle`` are imported inside the branches that call them, so a
# process loads neither unless its method or subcommand needs it.

__all__ = ["main", "ConfigError", "load_config", "run_config", "reproduce", "kernel_norms",
           "PRESETS"]

METHODS = ("embedding", "oracle", "nz", "gksl", "decorrelated")
FIGURES = ("fig5a", "fig5b", "fig6a", "fig6b")
DEFAULT_CUTOFF_SHIFT_TOL = 1e-6
MAX_CHAIN_SITES = 2 ** 14
CONFIG_KEYS = ("model", "g_tau", "k_max", "tau", "method", "fock_cutoff", "interaction",
               "initial_state", "observables", "n_sites", "tolerances", "output")
MODEL_KEYS = ("name", "parameters")
TOLERANCE_KEYS = ("cutoff_shift",)
_STATE_TOL = 1e-10   # trace and Hermiticity defect of a GKSL state, as the benchmark checks
_MAPS_TOL = 1e-12    # maps residual of an NZ kernel table


class _StateGateError(RuntimeError):
    """A run's states are not finite, unit-trace and Hermitian, or its NZ kernel table
    misses the embedding's maps (exit 3)."""


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config.{field}: {message}" if field else f"config: {message}")


def _require(cfg: dict, field: str, types, path: str = ""):
    full = f"{path}{field}"
    if field not in cfg:
        raise ConfigError(full, "missing required field")
    value = cfg[field]
    # bool subclasses int, but no field takes a JSON true/false.
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(full, f"expected {types}, got {type(value).__name__}")
    return value


def _known_keys(cfg: dict, known: tuple, path: str = "") -> None:
    """Reject the first key of ``cfg`` outside ``known``, so a typo is not a default; only the
    parameters of a model that takes none have no known key."""
    for key in cfg:
        if key not in known:
            expected = f"expected one of {known}" if known else "the model takes no parameters"
            raise ConfigError(f"{path}{key}", f"unknown key, {expected}")


def _entry(re, im) -> complex:
    """One [re, im] pair of JSON numbers; true/false and integers past the float range are
    refused, not read as 1/0 or raised as OverflowError."""
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError(f"matrix entry [{re!r}, {im!r}] is not a pair of numbers")
    try:
        return complex(re, im)
    except OverflowError:
        raise ValueError("matrix entry beyond the float range") from None


def _matrix_from_json(data) -> np.ndarray:
    return np.array([[_entry(re, im) for re, im in row] for row in data], dtype=complex)


def _parse_matrix(data, field: str) -> np.ndarray:
    try:
        m = _matrix_from_json(data)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(field, f"not a valid [[re, im], ...] matrix: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not np.all(np.isfinite(m)):
        raise ConfigError(field, f"expected a square matrix of finite numbers, got shape {m.shape}")
    return m


def _number(value, field: str, minimum: float, strict: bool = False) -> float:
    """A finite JSON number above ``minimum`` (or at it, unless ``strict``)."""
    if not _finite(value) or value < minimum or (strict and value == minimum):
        bound = ">" if strict else ">="
        raise ConfigError(field, f"must be a finite number {bound} {minimum}")
    return float(value)


def _check_chain_length(parameters: dict, kinds: dict) -> None:
    """Refuse, before the model is built, a finite chain longer than ``MAX_CHAIN_SITES``:
    ``models.environment_for`` stores one site tensor per requested site, so without the
    bound the document alone would set the cost of loading it."""
    for key, value in parameters.items():
        try:
            n = {"count": int, "vector": len}[kinds[key]](value)
        except (KeyError, TypeError, ValueError, OverflowError):
            continue
        if n > MAX_CHAIN_SITES:
            raise ConfigError(f"model.parameters.{key}",
                              f"{n} sites exceed the {MAX_CHAIN_SITES}-site limit")


def _built(field: str, build, *args):
    """``build(*args)`` with the library's rejection of its inputs reported at ``field``.

    Only constructors and step-0 evaluations go through here, never a size
    guard, so no ``SizeGuardError`` (a ValueError) is turned into a config error.
    """
    try:
        return build(*args)
    except KeyError as exc:
        raise ConfigError(field, f"missing {exc}") from exc
    except (TypeError, ValueError, IndexError, ArithmeticError) as exc:
        raise ConfigError(field, str(exc)) from exc


def load_config(doc: dict) -> dict:
    """Validate a config document and build the run it describes.

    The result keeps the document's top-level fields and adds the built run:
    ``model`` (the CollisionModel), ``generator`` (its stroboscopic GKSL
    generator for ``method: gksl``, else None), ``initial_state`` (rho_S(0)),
    ``observables`` ((name, matrix) pairs; the matrix is None for
    depolarization) and ``tolerances["cutoff_shift"]`` (a float).  Every
    config error surfaces here; only the size guards and the cutoff gate are
    left to the run.
    """
    if not isinstance(doc, dict):
        raise ConfigError("", "top-level document must be an object")
    _known_keys(doc, CONFIG_KEYS)
    model = _require(doc, "model", dict)
    _known_keys(model, MODEL_KEYS, "model.")
    name = _require(model, "name", str, "model.")
    if name not in models.MODELS:
        raise ConfigError("model.name", f"unknown model '{name}'")
    case, parameters = models.MODELS[name], model.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ConfigError("model.parameters", "expected an object")
    _known_keys(parameters, tuple(case.parameters), "model.parameters.")
    _check_chain_length(parameters, case.parameters)
    spec = ModelSpec(name, parameters)

    g_tau = _number(_require(doc, "g_tau", (int, float)), "g_tau", 0.0)
    k_max = _require(doc, "k_max", int)
    if k_max < 1:
        raise ConfigError("k_max", "must be at least 1")
    tau = doc.get("tau")
    if tau is not None:
        tau = _number(tau, "tau", 0.0, strict=True)

    method = doc.get("method", "embedding")
    if method not in METHODS:
        raise ConfigError("method", f"expected one of {METHODS}")
    fock_cutoff = doc.get("fock_cutoff")
    if fock_cutoff is not None and (not _integer(fock_cutoff) or fock_cutoff < 2):
        raise ConfigError("fock_cutoff", "must be an integer >= 2")

    interaction = doc.get("interaction", case.interaction)
    built = _build_model(spec, g_tau, tau, interaction, fock_cutoff)

    initial = doc.get("initial_state", "ground")
    if isinstance(initial, str):
        rho0 = _built("initial_state", models.named_initial_state, initial)
    elif isinstance(initial, dict):
        rho0 = _parse_matrix(_require(initial, "matrix", list, "initial_state."),
                             "initial_state.matrix")
        if rho0.shape != (built.d_system,) * 2:
            raise ConfigError("initial_state.matrix", f"expected a {built.d_system}x"
                              f"{built.d_system} matrix, got shape {rho0.shape}")
        _built("initial_state.matrix", assert_density_matrix, rho0, 1e-10, "initial state")
    else:
        raise ConfigError("initial_state", "expected a name or {matrix: ...}")

    observables = doc.get("observables", [case.observable])
    if not isinstance(observables, list) or not observables:
        raise ConfigError("observables", "expected a nonempty list")
    pairs = [_observable(obs, f"observables[{j}]", rho0) for j, obs in enumerate(observables)]

    n_sites = doc.get("n_sites", k_max)
    if not _integer(n_sites) or n_sites < k_max:
        raise ConfigError("n_sites", "must be an integer >= k_max")
    length = built.env.length
    if length is not None:
        if k_max > length:
            raise ConfigError("k_max", f"exceeds the {length}-site environment")
        if n_sites > length:
            raise ConfigError("n_sites", f"environment has only {length} sites")
    # The Markovian generator is small; building it here rejects every model
    # the stroboscopic limit does not cover (inhomogeneous, no Hamiltonian,
    # infinite correlation length, a generator that fails its trace check).
    generator = None
    if method == "gksl":
        from .master_equation import stroboscopic_generator
        generator = _built("method", stroboscopic_generator, built)

    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances", "expected an object")
    _known_keys(tolerances, TOLERANCE_KEYS, "tolerances.")
    cutoff_tol = _number(tolerances.get("cutoff_shift", DEFAULT_CUTOFF_SHIFT_TOL),
                         "tolerances.cutoff_shift", 0.0)
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("output", "expected a path string")
    if output:   # refused here, not after the run has computed what it would write
        target = Path(output)
        if target.is_dir():
            raise ConfigError("output", f"'{output}' is a directory, not a file to write")
        if not target.parent.is_dir():
            raise ConfigError("output", f"no directory '{target.parent}' to write into")

    return {
        "spec": spec,
        "g_tau": g_tau,
        "tau": tau,
        "k_max": k_max,
        "method": method,
        "interaction": interaction,
        "model": built,
        "generator": generator,
        "initial_state": rho0,
        "observables": pairs,
        "n_sites": n_sites,
        "fock_cutoff": fock_cutoff,
        "tolerances": {"cutoff_shift": cutoff_tol},
        "output": output,
    }


def _build_model(spec: ModelSpec, g_tau: float, tau: float | None, interaction,
                 fock_cutoff: int | None) -> CollisionModel:
    """The run's CollisionModel from a named or an explicit interaction."""
    env = _built("model.parameters", models.environment_for, spec)
    if isinstance(interaction, str):
        return _built("interaction", models._named_model, env, interaction, g_tau, fock_cutoff, tau)
    if not isinstance(interaction, dict):
        raise ConfigError("interaction", "expected a name or {matrix: ...}")
    field, h = "interaction.matrix", None
    u = _parse_matrix(_require(interaction, "matrix", list, "interaction."), field)
    if u.shape[0] % 2:
        raise ConfigError(field, "dimension must be 2 * mode_dim")
    if "hamiltonian" in interaction:
        h = _parse_matrix(interaction["hamiltonian"], "interaction.hamiltonian")
        if h.shape != u.shape or frobenius(h - dagger(h)) > DEFAULT_TOL:
            raise ConfigError("interaction.hamiltonian",
                              f"expected a Hermitian matrix of shape {u.shape}")
    model = _built(field, CollisionModel, env, u, 2, u.shape[0] // 2, g_tau, tau, h)
    if h is None:
        model = dataclasses.replace(model, hamiltonian=_hamiltonian_from_unitary(u, g_tau))
    return model


def _hamiltonian_from_unitary(u: np.ndarray, g_tau: float) -> np.ndarray | None:
    if g_tau <= 0:
        return None
    w, v = np.linalg.eig(u)  # u is normal: QR keeps each column in its own eigenspace
    q = np.linalg.qr(v)[0]
    theta = np.where(np.abs(w + 1) <= DEFAULT_TOL, np.pi, np.angle(w))  # -1 takes +pi
    return (q * (-theta / g_tau)) @ dagger(q)


def _observable(obs, field: str, rho0: np.ndarray) -> tuple[str, np.ndarray | None]:
    """(name, matrix) of one observables entry; None stands for depolarization.

    The entry is evaluated on rho_S(0) here, so whatever ``_column`` rejects
    (non-Hermitian, wrong shape, depolarization of a maximally mixed state)
    is a config error.
    """
    if isinstance(obs, str):
        pair = (obs, None if obs == "depolarization"
                else _built(field, models.named_observable, obs))
    elif isinstance(obs, dict):
        pair = (_require(obs, "name", str, f"{field}."),
                _parse_matrix(_require(obs, "matrix", list, f"{field}."), f"{field}.matrix"))
    else:
        raise ConfigError(field, "expected a name or {name, matrix}")
    _built(field, _column, pair[1], [rho0])
    return pair


def _column(matrix: np.ndarray | None, states: list[np.ndarray]) -> list[float]:
    if matrix is None:
        return models.depolarization_series(states)
    return observable_series(states, matrix)


def _embedding_model(cfg: dict, model: CollisionModel) -> CollisionModel:
    """The model the embedding evolves: the decorrelated twin for ``decorrelated``."""
    if cfg["method"] == "decorrelated":
        return dataclasses.replace(model, env=decorrelate(model.env, length=cfg["k_max"]))
    return model


def _check_cluster_cutoff(cfg: dict) -> list[np.ndarray] | None:
    """Abort photon-creating runs whose observables depend on the cutoff.

    Returns the embedding trajectory at the configured cutoff, which is the
    run's result for the ``embedding`` and ``decorrelated`` methods, or None
    when the interaction creates no photons.
    """
    if cfg["interaction"] != "cluster":
        return None
    tol = cfg["tolerances"]["cutoff_shift"]
    cutoff = cfg["model"].mode_dim
    wider = models._named_model(cfg["model"].env, "cluster", cfg["g_tau"], cutoff + 2, cfg["tau"])
    states, wide = (trajectory(_embedding_model(cfg, m), cfg["initial_state"], cfg["k_max"])
                    for m in (cfg["model"], wider))
    probe = models.named_observable("coherence")
    shift = float(np.max(np.abs(np.subtract(observable_series(states, probe),
                                            observable_series(wide, probe)))))
    if shift > tol:
        raise CutoffConvergenceError(
            f"observables shift by {shift:.3e} (> {tol:.1e}) when the Fock cutoff "
            f"grows from {cutoff} to {cutoff + 2}; increase fock_cutoff"
        )
    return states


def _states_for_method(cfg: dict, gated: list[np.ndarray] | None) -> list[np.ndarray]:
    """States 0..k_max by the configured method; ``gated`` is the cutoff gate's trajectory."""
    method, model, rho0, k_max = cfg["method"], cfg["model"], cfg["initial_state"], cfg["k_max"]
    if method == "oracle":
        from .oracle import OracleRun, brute_force_trajectory
        return brute_force_trajectory(OracleRun(model, rho0, n_sites=cfg["n_sites"], k_max=k_max))
    if method == "nz":
        return _nz_states(model, rho0, k_max)
    if method == "gksl":
        return _gksl_states(cfg["generator"], rho0, model.tau, k_max)
    return gated if gated is not None else trajectory(_embedding_model(cfg, model), rho0, k_max)


def _nz_states(model: CollisionModel, rho0: np.ndarray, k_max: int) -> list[np.ndarray]:
    """NZ states 0..k_max, refused when the kernel table misses the embedding's maps.

    The gate is the maps-level residual ||E_{k+1} - E_k - tau sum_m K_{k,m} E_{k-m}||
    (Frobenius, ``master_equation._maps_residuals``) at every step k, against the exact
    maps E_k; exact kernels leave only roundoff.  The states are not touched.
    """
    from .master_equation import _maps_residuals, build_kernel_table, solve_nz
    table = build_kernel_table(model, k_max)
    residuals = _maps_residuals(model, table, k_max)
    bad = np.flatnonzero(~(residuals <= _MAPS_TOL))
    if bad.size:
        k = int(bad[0])
        raise _StateGateError(
            f"nz maps residual at step {k} is {residuals[k]:.3e} (> {_MAPS_TOL:.0e}); the "
            f"kernel table does not reproduce the embedding's map E_{k + 1}"
        )
    return solve_nz(table, rho0, k_max)


def _gksl_states(generator, rho0: np.ndarray, tau: float, k_max: int) -> list[np.ndarray]:
    """GKSL states 0..k_max, refused when one is not finite, unit-trace and Hermitian.

    The stroboscopic generator is only a gτ -> 0 approximation: far outside it
    exp(τL) overflows to inf and nan, which would otherwise be written with
    exit 0.  Overflow warnings are silenced because this gate reports them.
    """
    from .master_equation import evolve_gksl_grid
    with np.errstate(over="ignore", invalid="ignore"):
        states = evolve_gksl_grid(generator, rho0, tau, k_max)
        rho = np.asarray(states)
        defect = np.maximum(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0),
                            np.linalg.norm(rho - rho.conj().transpose(0, 2, 1), axis=(1, 2)))
    bad = np.flatnonzero(~(defect <= _STATE_TOL))
    if bad.size:
        raise _StateGateError(
            f"gksl state at step {bad[0]} has a trace/Hermiticity defect of {defect[bad[0]]:.3e} "
            f"(> {_STATE_TOL:.0e}); the generator does not hold at this coupling"
        )
    return states


def _format_csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def _rows(g_tau: float, columns: list[list[float]]) -> list[list[float]]:
    return [[k, k * g_tau] + [col[k] for col in columns] for k in range(len(columns[0]))]


def _run_columns(cfg: dict) -> tuple[list[str], list[list[float]]]:
    """Evolve the built model by the configured method, evaluate the observables."""
    states = _states_for_method(cfg, _check_cluster_cutoff(cfg))
    names, matrices = zip(*cfg["observables"])
    return list(names), [_column(m, states) for m in matrices]


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

# (file name, preset) of each curve pair drawn correlated against uncorrelated; the cluster
# cutoffs are converged ones, as the 0.6 coupling leaks higher into the Fock ladder, and each
# run's cutoff gate checks them.
_VARIANT_RUNS = {
    "fig5a": [("fig5a.csv", PRESETS["fig5a"])],
    "fig5b": [(f"fig5b_gtau{tag}.csv", {**PRESETS["fig5b"], "g_tau": g_tau, "fock_cutoff": cutoff})
              for tag, g_tau, cutoff in (("03", 0.3, 7), ("06", 0.6, 9))],
}


def _variant_rows(base: dict) -> list[list[float]]:
    """Rows k, g_t and the first observable of ``base``, correlated and then uncorrelated."""
    columns = [_run_columns(load_config({**base, "method": method}))[1][0]
               for method in ("embedding", "decorrelated")]
    return _rows(base["g_tau"], columns)


def reproduce(figure: str, out_dir: str) -> list[Path]:
    """Emit the CSV data behind one of the reference figures."""
    if figure not in FIGURES:
        raise ConfigError("figure", f"unknown figure '{figure}', expected one of {FIGURES}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", f"cannot create directory '{out_dir}': {exc}") from exc
    written = []
    for name, base in _VARIANT_RUNS.get(figure, []):
        obs = base["observables"][0]
        header = ["k", "g_t", f"{obs}_correlated", f"{obs}_uncorrelated"]
        written.append(_write(out / name, _format_csv(header, _variant_rows(base))))
    if figure == "fig6a":
        g_tau = PRESETS["fig6a"]["g_tau"]
        rows = _variant_rows(PRESETS["fig6a"])
        for k, row in enumerate(rows):
            row += [models.aklt_exact_q(k, g_tau), models.aklt_markov_q(k, g_tau)]
        header = ["q_exact", "q_uncorrelated", "q_exact_closed_form", "q_markov_closed_form"]
        written.append(_write(out / "fig6a.csv", _format_csv(["k", "g_t"] + header, rows)))
    elif figure == "fig6b":
        written.append(_write(out / "fig6b_exact.csv", run_config(load_config(PRESETS["fig6b"]))))
        cfg = load_config({**PRESETS["fig6b"], "method": "gksl"})
        states = _gksl_states(cfg["generator"], cfg["initial_state"], cfg["model"].tau / 10.0,
                              10 * cfg["k_max"])
        rows = [[j / 10.0, (j / 10.0) * cfg["g_tau"], z]
                for j, z in enumerate(observable_series(states, cfg["observables"][0][1]))]
        written.append(_write(out / "fig6b_gksl.csv", _format_csv(["k", "g_t", "sigma_z"], rows)))
    return written


def _write(path: Path, text: str, field: str = "out") -> Path:
    """Write ``text`` to ``path``; a failed write is a config error at ``field``."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(field, f"cannot write '{path}': {exc}") from exc
    return path


# -- kernel norms -------------------------------------------------------------

def kernel_norms(cfg: dict, k: int, m_max: int) -> str:
    """CSV of the norms of K_{k,m} and of its second-order part per delay m (``kernel_scan``)."""
    from .master_equation import kernel_scan
    kernels, second = kernel_scan(cfg["model"], k, m_max)
    rows = [[m, kernel.norm(), float("nan") if part is None else part.norm()]
            for m, (kernel, part) in enumerate(zip(kernels, second))]
    return _format_csv(["m", "kernel_norm", "second_order_norm"], rows)


# -- entry point ---------------------------------------------------------------

def _load_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("", f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError("", f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("", f"config file {path} is not UTF-8 text: {exc}") from exc
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

    p_val = sub.add_parser("validate", help="check a config by building its run")
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
                _write(Path(cfg["output"]), text, "output")
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
            chain = cfg["model"].env.length
            if args.k < 0 or (chain is not None and args.k >= chain):
                p_ker.error("argument --k: must be >= 0" +
                            ("" if chain is None else f" and below the chain length {chain}"))
            if args.m_max < 0:
                p_ker.error("argument --m-max: must be >= 0")
            sys.stdout.write(kernel_norms(cfg, args.k, args.m_max))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CutoffConvergenceError, SizeGuardError, _StateGateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
