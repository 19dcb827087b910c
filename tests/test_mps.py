import dataclasses
import warnings

import numpy as np
import pytest

from mpscollision import models, mps
from mpscollision.linalg import assert_density_matrix, kron
from mpscollision.mps import (
    BondState,
    InfiniteCorrelationLengthError,
    MpsEnvironment,
    check_right_canonical,
    decorrelate,
    evolve_bond_state,
    right_canonicalize,
    site_reduced_state,
    stationary_bond_state,
    transfer_spectrum,
)

from conftest import (
    aklt_pair_state,
    pair_state,
    partial_trace,
    reduced_density_prefix,
    transfer_matrix,
)


def all_zoo():
    return {
        "aklt": models.aklt_env(),
        "cluster": models.cluster_env(),
        "two_photon": models.two_photon_env(0.3 / 2.3, 0.3 / 59.9),
        "ghz": models.ghz_env(8),
        "single_photon": models.single_photon_env(np.exp(-np.arange(8) / 3.0)),
    }


# -- canonical form ----------------------------------------------------------

def test_zoo_right_canonical():
    for name, env in all_zoo().items():
        assert check_right_canonical(env) < 1e-13, name


def test_scaled_tensors_residual():
    env = models.aklt_env()
    scaled = MpsEnvironment((2.0 * env.sites[0],), env.chi0, homogeneous=True)
    # sum_i B B^dag becomes 4I on a 2x2 bond: residual ||3 I||_F = 3 sqrt(2)
    assert abs(check_right_canonical(scaled) - 3.0 * np.sqrt(2.0)) < 1e-12


def test_validate_refuses_a_nan_site_entry():
    # max(worst, nan) keeps worst, so folding residuals that way would let a NaN
    # site entry through the canonical check.
    aklt = models.aklt_env()
    site = aklt.sites[0].copy()
    site[1, 0, 1] = np.nan
    env = MpsEnvironment((site,), aklt.chi0, homogeneous=True)
    assert np.isnan(check_right_canonical(env))
    with pytest.raises(ValueError, match="not right-canonical"):
        env.validate()


def test_validate_refuses_a_site_scaled_off_canonical_form():
    env = models.cluster_env()
    env.validate()
    with pytest.raises(ValueError, match="not right-canonical"):
        dataclasses.replace(env, sites=(1.5 * env.sites[0],)).validate()


def test_environment_shape_validation():
    with pytest.raises(ValueError):
        MpsEnvironment((), np.eye(1))
    good = models.ghz_env(3)
    with pytest.raises(ValueError):
        MpsEnvironment(good.sites, np.eye(2))  # chi0 dim mismatch
    with pytest.raises(ValueError):
        MpsEnvironment((np.zeros((2, 1, 3)), np.zeros((2, 2, 1))), np.eye(1))  # ragged


# -- canonicalization --------------------------------------------------------

def _dense_state(env, n):
    rho = reduced_density_prefix(env, n)
    w, v = np.linalg.eigh(rho)
    assert w[-1] > 1 - 1e-10  # pure
    return v[:, -1] * np.exp(-1j * np.angle(v[np.argmax(np.abs(v[:, -1])), -1]))


def _raw_w_state(n):
    """Non-canonical tensors for the W-like single-photon state."""
    sites = []
    for k in range(n):
        b = np.zeros((2, 2, 2), dtype=complex)
        b[0, 0, 0] = 1.0
        b[0, 1, 1] = 1.0
        b[1, 0, 1] = 1.0  # emit here
        sites.append(b)
    first = sites[0][:, :1, :]
    last = sites[-1][:, :, 1:]
    return [first] + sites[1:-1] + [last]


def test_canonicalize_single_photon_state():
    n = 6
    amps = np.exp(-np.arange(n) / 2.0) * np.exp(0.4j * np.arange(n))
    amps = amps / np.linalg.norm(amps)
    raw = _raw_w_state(n)
    # weight the emission amplitude per site
    weighted = []
    for k, b in enumerate(raw):
        b = b.copy()
        b[1] = amps[k] * b[1]
        weighted.append(b)
    env = right_canonicalize(weighted)
    assert check_right_canonical(env) < 1e-12
    vec = np.zeros(2 ** n, dtype=complex)
    for k in range(n):
        vec[1 << (n - 1 - k)] = amps[k]
    rho = reduced_density_prefix(env, n)
    assert np.max(np.abs(rho - np.outer(vec, vec.conj()))) < 1e-12


def test_canonicalize_idempotent_on_states():
    env = models.ghz_env(5)
    again = right_canonicalize(list(env.sites))
    for k in (1, 3, 5):
        a = reduced_density_prefix(env, k)
        b = reduced_density_prefix(again, k)
        assert np.max(np.abs(a - b)) < 1e-10


def test_canonicalize_ghz_reduced_densities():
    # GHZ from a badly scaled gauge: bond dimension 2, marginals I/2
    n = 5
    raw = []
    for k in range(n):
        dl = 1 if k == 0 else 2
        dr = 1 if k == n - 1 else 2
        b = np.zeros((2, dl, dr), dtype=complex)
        for i in range(2):
            b[i, min(i, dl - 1) if dl > 1 else 0, min(i, dr - 1) if dr > 1 else 0] = 1.0
        raw.append(b)
    raw[1] = 3.0 * raw[1]
    raw[2] = 0.2j * raw[2]
    env = right_canonicalize(raw)
    assert max(t.shape[2] for t in env.sites) == 2
    chi = env.initial_bond_state()
    for _ in range(n):
        marg = site_reduced_state(env, chi)
        assert np.max(np.abs(marg - np.eye(2) / 2)) < 1e-12
        chi = evolve_bond_state(env, chi)


def _random_raw_mps(rng, n, d_max, d=2):
    bonds = [min(d ** k, d_max, d ** (n - k)) for k in range(n + 1)]
    return [rng.normal(size=(d, bonds[k], bonds[k + 1]))
            + 1j * rng.normal(size=(d, bonds[k], bonds[k + 1])) for k in range(n)]


@pytest.mark.parametrize("d_max", [8, 32])
def test_canonicalize_wide_random_state(rng, d_max):
    n = 12
    raw = _random_raw_mps(rng, n, d_max)
    env = right_canonicalize(raw)
    assert check_right_canonical(env) < 1e-12
    # State vector straight from the raw tensors, normalized.
    psi = raw[0][:, 0, :]
    for t in raw[1:]:
        psi = np.tensordot(psi, t, axes=([psi.ndim - 1], [1]))
    psi = psi.reshape(-1) / np.linalg.norm(psi)
    # The full 2^12 projector would take 268 MB; prefixes of 6 and 10 sites
    # (bond 32 open, and two future sites closed by right-canonicality) are
    # the partial traces of the projector.
    for k in (6, 10):
        a = psi.reshape(2 ** k, 2 ** (n - k))
        rho = reduced_density_prefix(env, k)
        assert np.max(np.abs(rho - a @ a.conj().T)) < 1e-12


def test_check_right_canonical_matches_einsum_gram(rng):
    def by_einsum(env):
        return max(np.linalg.norm(np.einsum("iab,icb->ac", t, t.conj()) - np.eye(t.shape[1]))
                   for t in env.sites)

    canonical = right_canonicalize(_random_raw_mps(rng, 12, 32))
    for eps in (1e-12, 1e-10, 1e-9, 1e-3, 0.3):
        sites = [t + eps * (rng.normal(size=t.shape) + 1j * rng.normal(size=t.shape))
                 for t in canonical.sites]
        env = MpsEnvironment(tuple(sites), canonical.chi0)
        assert abs(check_right_canonical(env) - by_einsum(env)) < 1e-13


def test_canonicalize_and_check_stay_off_einsum(rng, monkeypatch):
    # Gauge fixing, the gauge check and the bond readouts run on matmul and
    # LAPACK only, bond-1 and rectangular GHZ sites included.
    raw = _random_raw_mps(rng, 10, 16)
    ghz = models.ghz_env(6)

    def no_einsum(*args, **kwargs):
        raise AssertionError("np.einsum called on the canonicalize-and-check path")

    monkeypatch.setattr(mps.np, "einsum", no_einsum)
    env = right_canonicalize(raw)
    env.validate()
    k = max(j for j, t in enumerate(env.sites) if t.shape[1] == t.shape[2] == 16)
    chi = evolve_bond_state(env, BondState(k, np.eye(16) / 16))
    assert_density_matrix(chi.matrix, 1e-10)
    chi = ghz.initial_bond_state()
    for k in range(5):
        assert_density_matrix(site_reduced_state(ghz, chi), 1e-12)
        assert_density_matrix(pair_state(ghz, 5, chi), 1e-12)
        chi = evolve_bond_state(ghz, chi)


def test_canonicalize_zero_norm_raises():
    raw = [np.zeros((2, 1, 2)), np.zeros((2, 2, 1))]
    with pytest.raises(ValueError):
        right_canonicalize(raw)


# -- bond evolution and reduced states ----------------------------------------

def test_aklt_bond_fixed_point():
    env = models.aklt_env()
    chi1 = evolve_bond_state(env, env.initial_bond_state())
    assert np.max(np.abs(chi1.matrix - np.eye(2) / 2)) < 1e-14
    assert chi1.site == 1


def test_two_photon_bond_evolution():
    t1, t2 = 0.4, 0.7
    env = models.two_photon_env(t1, t2)
    chi1 = evolve_bond_state(env, env.initial_bond_state())
    expected = np.diag([np.exp(-2 * t1), 1 - np.exp(-2 * t1), 0.0])
    assert np.max(np.abs(chi1.matrix - expected)) < 1e-14


def test_bond_trace_preserved_100_steps():
    for name, env in all_zoo().items():
        chi = env.initial_bond_state()
        steps = 100 if env.homogeneous else (env.length or 0)
        for _ in range(steps):
            chi = evolve_bond_state(env, chi)
            assert abs(np.trace(chi.matrix) - 1.0) < 1e-12, name
            lo = np.linalg.eigvalsh(0.5 * (chi.matrix + chi.matrix.conj().T))[0]
            assert lo > -1e-12, name


@pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 3), (4, 1, 1), (2, 1, 2), (2, 2, 1),
                                   (5, 2, 4), (2, 16, 16), (3, 2, 5)])
def test_kraus_sum_views_match_einsum(rng, shape):
    # The bond step, the site marginal and the readout step are one Kraus sum on three views
    # of B, for one operator and stacks of them, bond-1 and rectangular sites included; the
    # readout step is the adjoint of the bond step under the pairing sum X (.) R.
    _, dl, dr = shape
    b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    x = rng.normal(size=(2, 3, dl, dl)) + 1j * rng.normal(size=(2, 3, dl, dl))
    r = rng.normal(size=(2, 3, dr, dr)) + 1j * rng.normal(size=(2, 3, dr, dr))
    for xs, rs in ((x, r), (x[1, 2], r[1, 2]), (x[0], r[0])):
        bond = mps._kraus_sum(mps._kraus_operands(b.transpose(0, 2, 1)), xs)
        walked = mps._kraus_sum(mps._kraus_operands(b), rs)
        for got, want in ((bond, np.einsum("iab,...ac,icd->...bd", b, xs, b.conj())),
                          (mps._kraus_sum(mps._kraus_operands(b.transpose(2, 0, 1)), xs),
                           np.einsum("iab,...ac,jcb->...ij", b, xs, b.conj())),
                          (walked, np.einsum("iab,...bc,idc->...ad", b, rs, b.conj()))):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
        forward = np.sum(bond * rs, axis=(-2, -1))
        backward = np.sum(xs * walked, axis=(-2, -1))
        assert np.max(np.abs(forward - backward)) <= 1e-13 * np.max(np.abs(forward))


def test_bond_dimension_mismatch_raises():
    env = models.aklt_env()
    with pytest.raises(ValueError):
        evolve_bond_state(env, BondState(0, np.eye(3) / 3))
    with pytest.raises(ValueError):
        site_reduced_state(env, BondState(0, np.eye(3) / 3))


def test_site_reduced_states():
    env = models.aklt_env()
    assert np.max(np.abs(site_reduced_state(env, env.initial_bond_state())
                         - np.eye(3) / 3)) < 1e-14
    cl = models.cluster_env()
    assert np.max(np.abs(site_reduced_state(cl, cl.initial_bond_state())
                         - np.diag([0.5, 0.5]))) < 1e-14


def test_site_reduced_state_rank_one_product():
    amps = np.array([0.6, 0.8j])
    b = amps.reshape(2, 1, 1)
    env = MpsEnvironment((b,), np.eye(1, dtype=complex), homogeneous=True)
    rho = site_reduced_state(env, env.initial_bond_state())
    assert np.max(np.abs(rho - np.outer(amps, amps.conj()))) < 1e-14


# -- two-site reduced states ---------------------------------------------------

def test_two_site_aklt_matches_closed_form():
    env = models.aklt_env()
    chi = env.initial_bond_state()
    for sep in range(1, 7):
        got = pair_state(env, sep, chi)
        assert np.max(np.abs(got - aklt_pair_state(sep))) < 1e-12


def test_two_site_product_env_factorizes():
    amps = np.array([0.6, 0.8])
    env = MpsEnvironment((amps.reshape(2, 1, 1),), np.eye(1, dtype=complex),
                         homogeneous=True)
    chi = env.initial_bond_state()
    got = pair_state(env, 3, chi)
    single = np.outer(amps, amps.conj())
    assert np.max(np.abs(got - kron(single, single))) < 1e-14


def test_two_site_cluster_adjacent_vs_prefix():
    env = models.cluster_env()
    chi = env.initial_bond_state()
    got = pair_state(env, 1, chi)
    # brute-force route: 10-site reduced density, then trace all but (0, 1)
    finite = MpsEnvironment(tuple([env.sites[0]] * 10), env.chi0)
    rho10 = reduced_density_prefix(finite, 10)
    ref = partial_trace(rho10, [2] * 10, keep=(0, 1))
    assert np.max(np.abs(got - ref)) < 1e-12


def test_two_site_converges_to_product():
    env = models.aklt_env()
    chi = env.initial_bond_state()
    marg = site_reduced_state(env, chi)
    prod = kron(marg, marg)
    prev = None
    for sep in (2, 4, 6):
        dev = np.max(np.abs(pair_state(env, sep, chi) - prod))
        assert dev < abs((1.0 / 3.0) ** sep)
        if prev is not None:
            assert dev < prev / 5.0  # decays at least geometrically
        prev = dev


def test_two_site_on_finite_chain_vs_prefix():
    env = models.ghz_env(6)
    chi = env.initial_bond_state()
    rho6 = reduced_density_prefix(env, 6)
    pair = pair_state(env, 3, chi)
    ref = partial_trace(rho6, [2] * 6, keep=(0, 3))
    assert np.max(np.abs(pair - ref)) < 1e-13
    chi2 = evolve_bond_state(env, evolve_bond_state(env, chi))
    pair25 = pair_state(env, 5, chi2)
    ref25 = partial_trace(rho6, [2] * 6, keep=(2, 5))
    assert np.max(np.abs(pair25 - ref25)) < 1e-13


def test_two_site_marginals_match():
    env = models.two_photon_env(0.25, 0.05)
    chi = env.initial_bond_state()
    pair = pair_state(env, 2, chi)
    left = partial_trace(pair, (2, 2), keep=(0,))
    right = partial_trace(pair, (2, 2), keep=(1,))
    assert np.max(np.abs(left - site_reduced_state(env, chi))) < 1e-12
    chi_mid = evolve_bond_state(env, evolve_bond_state(env, chi))
    assert np.max(np.abs(right - site_reduced_state(env, chi_mid))) < 1e-12


def test_two_site_matches_three_operand_contraction(rng):
    # Reference: the bond object carried through each skipped site in one
    # three-operand einsum.  GHZ and single-photon chains have bond-1 and
    # rectangular sites; the random chain has complex tensors.
    zoo = all_zoo()
    envs = {name: zoo[name] for name in ("aklt", "two_photon", "cluster")}
    envs["ghz"] = models.ghz_env(6)
    envs["single_photon"] = zoo["single_photon"]
    envs["random"] = right_canonicalize(_random_raw_mps(rng, 10, 8))
    for name, env in envs.items():
        n = 12 if env.length is None else env.length
        chi = evolve_bond_state(env, env.initial_bond_state())
        b = env.site(1)
        m0 = np.einsum("iab,ac,jcd->ijbd", b, chi.matrix, b.conj())
        for sep in range(1, n - 1):
            m = m0
            for k in range(2, 1 + sep):
                bk = env.site(k)
                m = np.einsum("kab,ijac,kcd->ijbd", bk, m, bk.conj())
            bb = env.site(1 + sep)
            d = b.shape[0] * bb.shape[0]
            want = np.einsum("kab,ijac,lcb->ikjl", bb, m, bb.conj()).reshape(d, d)
            got = pair_state(env, 1 + sep, chi)
            assert np.max(np.abs(got - want)) < 1e-12, (name, sep)


# -- prefix reduced density ----------------------------------------------------

def test_prefix_k1_equals_site_state():
    for name, env in all_zoo().items():
        got = reduced_density_prefix(env, 1)
        want = site_reduced_state(env, env.initial_bond_state())
        assert np.max(np.abs(got - want)) < 1e-13, name


def test_prefix_full_state_ghz():
    env = models.ghz_env(3)
    rho = reduced_density_prefix(env, 3)
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / np.sqrt(2)
    assert np.max(np.abs(rho - np.outer(vec, vec.conj()))) < 1e-13


def test_prefix_trace_one_and_guard():
    env = models.aklt_env()
    for k in (1, 3, 5):
        assert abs(np.trace(reduced_density_prefix(env, k)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        reduced_density_prefix(env, 20)  # 3^20 blows the guard


def test_prefix_marginals_equal_chained_site_states():
    for name, env in all_zoo().items():
        k = 5 if env.homogeneous else min(5, env.length)
        rho = reduced_density_prefix(env, k)
        dims = [env.phys_dim(j) for j in range(k)]
        chi = env.initial_bond_state()
        for j in range(k):
            marg = partial_trace(rho, dims, keep=(j,))
            want = site_reduced_state(env, chi)
            assert np.max(np.abs(marg - want)) < 1e-12, (name, j)
            chi = evolve_bond_state(env, chi)


# -- transfer spectrum -----------------------------------------------------------

def test_transfer_spectrum_aklt():
    ts = transfer_spectrum(models.aklt_env())
    assert abs(ts.lambda2 - (-1.0 / 3.0)) < 1e-12


def test_transfer_spectrum_cluster_zero():
    ts = transfer_spectrum(models.cluster_env())
    assert abs(ts.lambda2) < 1e-12


def test_transfer_spectrum_ghz_infinite():
    with pytest.raises(InfiniteCorrelationLengthError):
        transfer_spectrum(models.ghz_env(6))


def test_stationary_bond_state_aklt():
    # The real eigenvector at 1 has equal diagonal entries, so dividing by
    # its trace gives I/2 to the last bit.
    chi = stationary_bond_state(models.aklt_env())
    assert np.array_equal(chi.matrix, np.eye(2) / 2)


def _complex_isometry_env(rng, d_bond, d_phys=3):
    """Homogeneous chain whose site tensor is a random complex QR isometry, chi0 = I/D."""
    g = (rng.normal(size=(d_phys * d_bond, d_bond))
         + 1j * rng.normal(size=(d_phys * d_bond, d_bond)))
    site = np.linalg.qr(g)[0].conj().T.reshape(d_bond, d_phys, d_bond).transpose(1, 0, 2)
    return MpsEnvironment((site,), np.eye(d_bond) / d_bond, homogeneous=True)


@pytest.mark.parametrize("d_bond", [2, 3, 4])
def test_stationary_bond_state_is_fixed_point_complex(rng, d_bond):
    # Complex site tensors: the fixed point is not its own transpose.
    env = _complex_isometry_env(rng, d_bond)
    chi = stationary_bond_state(env)
    assert_density_matrix(chi.matrix, 1e-10)
    assert np.linalg.norm(evolve_bond_state(env, chi).matrix - chi.matrix) < 1e-12


def test_stationary_bond_state_of_reset_chain_with_tied_entries():
    # B_i = |i> psi^T maps every X to tr(X) psi psi^dag.  All four entries of
    # psi psi^dag have modulus 1/2: a complex eigensolver may hand back
    # i psi psi^dag, while the real eigenvector carries only a sign and a
    # scale, which the trace removes.
    psi = np.array([1.0, 1j]) / np.sqrt(2.0)
    site = np.stack([np.outer(np.eye(2)[i], psi) for i in range(2)])
    env = MpsEnvironment((site,), np.eye(2) / 2, homogeneous=True)
    env.validate()
    chi = stationary_bond_state(env)
    assert np.linalg.norm(chi.matrix - np.outer(psi, psi.conj())) < 1e-12


def _dense_fixed_point(env):
    """Eigenvector at 1 of the complex reference transfer matrix, divided by its trace."""
    eigs, vecs = np.linalg.eig(transfer_matrix(env))
    d = int(round(np.sqrt(len(eigs))))
    x = vecs[:, np.argmin(np.abs(eigs - 1.0))].reshape(d, d)
    return x / np.trace(x)


@pytest.mark.parametrize("name", ["two_photon", "cluster"] + [f"isometry_D{d}"
                                                              for d in range(2, 17)])
def test_stationary_bond_state_matches_dense_reference(name):
    if name.startswith("isometry"):
        d_bond = int(name.removeprefix("isometry_D"))
        env = _complex_isometry_env(np.random.default_rng(d_bond), d_bond, 2 + d_bond % 2)
    else:
        env = all_zoo()[name]
    stationary = stationary_bond_state(env)
    chi = stationary.matrix
    assert np.array_equal(chi, chi.conj().T) and np.trace(chi).real == pytest.approx(1.0)
    assert np.max(np.abs(evolve_bond_state(env, stationary).matrix - chi)) <= 1e-14
    assert np.max(np.abs(chi - _dense_fixed_point(env))) <= 1e-13


@pytest.mark.parametrize("make_env", [models.aklt_env, models.cluster_env,
                                      lambda: _complex_isometry_env(np.random.default_rng(9), 6)])
def test_lambda2_and_fixed_point_diagonalize_one_matrix(monkeypatch, make_env):
    # transfer_spectrum's eigvals and stationary_bond_state's eig see the same
    # real D^2 x D^2 matrix, bit for bit.
    env = make_env()
    seen = []
    for name in ("eig", "eigvals"):
        solver = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, solver=solver: seen.append(np.array(a)) or solver(a))
    transfer_spectrum(env)
    stationary_bond_state(env)
    assert len(seen) == 2 and seen[0].dtype == np.float64
    assert np.array_equal(seen[0], seen[1])


def _eigvals_input(monkeypatch, env):
    """The one matrix transfer_spectrum hands to np.linalg.eigvals, and its result."""
    seen = []
    eigvals = np.linalg.eigvals

    def spy(a):
        seen.append(np.array(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    spectrum = transfer_spectrum(env)
    monkeypatch.undo()
    assert len(seen) == 1
    return seen[0], spectrum


def _same_spectrum(a, b, tol):
    dist = np.abs(a[:, None] - b[None, :])
    return a.shape == b.shape and max(dist.min(axis=0).max(), dist.min(axis=1).max()) < tol


@pytest.mark.parametrize("d_bond", range(2, 13))
def test_transfer_spectrum_is_real_basis_spectrum_of_complex_isometry(monkeypatch, rng, d_bond):
    env = _complex_isometry_env(rng, d_bond, d_phys=2 + d_bond % 2)
    real, spectrum = _eigvals_input(monkeypatch, env)
    assert real.dtype == np.float64 and real.shape == (d_bond ** 2, d_bond ** 2)
    want = np.linalg.eigvals(transfer_matrix(env))
    assert _same_spectrum(np.linalg.eigvals(real), want, 1e-12)
    # lambda2 is a dense complex eigenvalue, not the unit one.
    assert np.min(np.abs(want - spectrum.lambda2)) < 1e-12
    assert abs(spectrum.lambda2 - 1.0) > 1e-6 and spectrum.lambda2.imag >= 0.0


@pytest.mark.parametrize("make_env", [models.aklt_env, models.cluster_env])
def test_transfer_spectrum_real_basis_on_named_chains(monkeypatch, make_env):
    # lambda2 itself (-1/3 and 0) is pinned by the tests above.
    env = make_env()
    real, _ = _eigvals_input(monkeypatch, env)
    assert real.dtype == np.float64
    assert _same_spectrum(np.linalg.eigvals(real), np.linalg.eigvals(transfer_matrix(env)), 1e-12)


def test_transfer_spectrum_of_complex_isometry_does_not_warn():
    # A complex subleading eigenvalue is a property of the chain, not a defect: the GKSL
    # tail sums the pair correlators by one resolvent solve, with no weight built from it.
    env = _complex_isometry_env(np.random.default_rng(3), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = transfer_spectrum(env).lambda2
    # Of the conjugate pair, the member with positive imaginary part.
    assert lam.imag > 0.1
    want = np.linalg.eigvals(transfer_matrix(env))
    assert np.min(np.abs(want - lam)) < 1e-12 and np.min(np.abs(want - lam.conjugate())) < 1e-12


# -- decorrelation ---------------------------------------------------------------

def test_decorrelate_product_unchanged():
    amps = np.array([0.6, 0.8j])
    env = MpsEnvironment((amps.reshape(2, 1, 1),), np.eye(1, dtype=complex),
                         homogeneous=True)
    dec = decorrelate(env)
    assert dec.ancilla_dim == 1
    got = site_reduced_state(dec, dec.initial_bond_state())
    want = site_reduced_state(env, env.initial_bond_state())
    assert np.max(np.abs(got - want)) < 1e-12


def test_decorrelate_aklt_iid_maximally_mixed():
    dec = decorrelate(models.aklt_env())
    assert dec.homogeneous
    assert all(t.shape[1] == t.shape[2] == 1 for t in dec.sites)
    rho = site_reduced_state(dec, dec.initial_bond_state())
    dm = dec.mode_dim(0)
    anc = dec.ancilla_dim
    mode = np.einsum("iaja->ij", rho.reshape(dm, anc, dm, anc))
    assert np.max(np.abs(mode - np.eye(3) / 3)) < 1e-12


def test_decorrelate_two_photon_marginals_match():
    env = models.two_photon_env(0.3 / 2.3, 0.3 / 59.9)
    dec = decorrelate(env, length=10)
    chi = env.initial_bond_state()
    dchi = dec.initial_bond_state()
    for k in range(10):
        want = site_reduced_state(env, chi)
        got = site_reduced_state(dec, dchi)
        dm, anc = dec.mode_dim(k), dec.ancilla_dim
        mode = np.einsum("iaja->ij", got.reshape(dm, anc, dm, anc))
        assert np.max(np.abs(mode - want)) < 1e-12
        chi = evolve_bond_state(env, chi)
        dchi = evolve_bond_state(dec, dchi)


def test_decorrelate_needs_length_when_not_stationary():
    env = models.two_photon_env(0.2, 0.1)
    with pytest.raises(ValueError):
        decorrelate(env)

