import numpy as np
import pytest

from mpscollision.linalg import (
    expm_hermitian_generator,
    kron,
    lq_factorize,
)

from conftest import hermitian_basis, partial_trace, random_density, random_hermitian


def test_kron_identities():
    assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))
    assert np.allclose(kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                       np.diag([0.0, 1.0, 0.0, 0.0]))


def test_kron_bit_flip_on_both_factors():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    ket00 = np.zeros(4)
    ket00[0] = 1.0
    out = kron(sx, sx) @ ket00
    expected = np.zeros(4)
    expected[3] = 1.0  # |11>
    assert np.allclose(out, expected)


def test_kron_associativity_random(rng):
    for _ in range(10):
        a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.max(np.abs(left - right)) < 1e-13


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("a_shape,b_shape", [
    ((2, 2), (3, 3)), ((2, 3), (4, 1)), ((1, 5), (3, 2)),
    ((4, 2, 2), (3, 3)),        # (d_S^2, d_S, d_S) (x) (D, D): a fresh thread stack
    ((5, 4, 2, 2), (3, 3)),     # (L, d_S^2, d_S, d_S) (x) (D, D): the Q advance
])
def test_kron_equals_numpy_kron(rng, a_shape, b_shape):
    a, b = complex_normal(rng, a_shape), complex_normal(rng, b_shape)
    assert np.array_equal(kron(a, b), np.kron(a, b))
    real = rng.normal(size=a_shape)
    assert np.array_equal(kron(real, b), np.kron(real.astype(complex), b))
    # A transposed view, as the thread basis is.
    assert np.array_equal(kron(np.swapaxes(a, -1, -2), b), np.kron(np.swapaxes(a, -1, -2), b))


def test_partial_trace_product_state(rng):
    rho = random_density(rng, 2)
    sigma = random_density(rng, 3)
    scaled = 0.7 * sigma  # non-unit trace factor
    out = partial_trace(kron(rho, scaled), (2, 3), keep=(0,))
    assert np.allclose(out, rho * np.trace(scaled))


def test_partial_trace_bell_marginal():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    proj = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(proj, (2, 2), keep=(0,)), np.eye(2) / 2)


def test_partial_trace_preserves_trace_and_positivity(rng):
    for _ in range(5):
        rho = random_density(rng, 6)
        for keep in ((0,), (1,)):
            red = partial_trace(rho, (2, 3), keep=keep)
            assert abs(np.trace(red) - np.trace(rho)) < 1e-12
            assert np.linalg.eigvalsh(red)[0] > -1e-12


def test_partial_trace_three_factors(rng):
    rho = random_density(rng, 12)
    red = partial_trace(rho, (2, 3, 2), keep=(0, 2))
    assert red.shape == (4, 4)
    assert abs(np.trace(red) - 1.0) < 1e-12
    # keeping everything is the identity
    assert np.allclose(partial_trace(rho, (2, 3, 2), keep=(0, 1, 2)), rho)


def test_expm_diagonal_phase():
    sz = np.diag([1.0, -1.0])
    u = expm_hermitian_generator(sz, np.pi)
    assert np.allclose(u, -np.eye(2), atol=1e-14)


def test_expm_zero_angle_is_identity(rng):
    h = random_hermitian(rng, 4)
    assert np.allclose(expm_hermitian_generator(h, 0.0), np.eye(4))


def test_expm_unitarity_random(rng):
    for _ in range(5):
        h = random_hermitian(rng, 6)
        u = expm_hermitian_generator(h, 0.37)
        assert np.linalg.norm(u.conj().T @ u - np.eye(6)) < 1e-12


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        expm_hermitian_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_expm_rejects_a_nan_generator():
    # Its Hermiticity residual is NaN, which no comparison with the tolerance lets through.
    with pytest.raises(ValueError, match="not Hermitian"):
        expm_hermitian_generator(np.full((2, 2), np.nan), 1.0)


def test_lq_reconstruction_random(rng):
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    l, q = lq_factorize(m)
    assert np.linalg.norm(l @ q - m) < 1e-12
    assert np.linalg.norm(q @ q.conj().T - np.eye(q.shape[0])) < 1e-12


def test_lq_row_orthonormal_input(rng):
    # rows already orthonormal: Q spans the same rows, L is unitary-diagonal
    q0, _ = np.linalg.qr(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
    m = q0.conj().T  # 3x5 with orthonormal rows
    l, q = lq_factorize(m)
    assert l.shape == (3, 3)
    assert np.linalg.norm(l @ l.conj().T - np.eye(3)) < 1e-12
    assert np.linalg.norm(l @ q - m) < 1e-12


def test_lq_zero_matrix():
    l, q = lq_factorize(np.zeros((3, 4)))
    assert np.allclose(l, 0)
    assert q.shape[0] == 1
    assert np.linalg.norm(q @ q.conj().T - np.eye(1)) < 1e-14


def test_lq_rank_revealing(rng):
    col = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
    row = rng.normal(size=(1, 6)) + 1j * rng.normal(size=(1, 6))
    l, q = lq_factorize(col @ row)
    assert q.shape[0] == 1


def _lq_by_svd(m, tol=1e-12):
    """The SVD split: the reference for the fallback branch of ``lq_factorize``."""
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        q = np.zeros((1, m.shape[1]), dtype=complex)
        q[0, 0] = 1.0
        return np.zeros((m.shape[0], 1), dtype=complex), q
    rank = max(int(np.sum(s > tol * s[0])), 1)
    return u[:, :rank] * s[:rank], vh[:rank, :]


@pytest.mark.parametrize("shape", [(1, 2), (3, 5), (4, 4), (8, 16), (16, 32), (32, 64), (5, 40)])
def test_lq_full_rank_wide_takes_qr(rng, shape):
    m = complex_normal(rng, shape)
    l, q = lq_factorize(m)
    assert l.shape == (shape[0], shape[0]) and q.shape == shape
    # L = R^dag from the QR of M^dag is exactly lower triangular; U*s is not.
    assert np.array_equal(np.triu(l, 1), np.zeros_like(l))
    assert np.linalg.norm(l @ q - m) < 1e-12
    assert np.linalg.norm(q @ q.conj().T - np.eye(shape[0])) < 1e-12


@pytest.mark.parametrize("smallest,rank", [(1e-14, 5), (1e-9, 6)])
def test_lq_rank_rule_at_the_tolerance(rng, smallest, rank):
    u, _ = np.linalg.qr(complex_normal(rng, (6, 6)))
    v, _ = np.linalg.qr(complex_normal(rng, (10, 6)))
    s = np.array([2.0, 1.0, 0.5, 0.3, 0.1, 2.0 * smallest])
    m = (u * s) @ v.conj().T
    assert int(np.sum(np.linalg.svd(m, compute_uv=False) > 1e-12 * s[0])) == rank
    l, q = lq_factorize(m)
    assert q.shape[0] == rank
    assert np.linalg.norm(l @ q - m) < 1e-12
    assert np.linalg.norm(q @ q.conj().T - np.eye(rank)) < 1e-12
    if rank < 6:
        # Truncated splits are the SVD's, unchanged.
        want = _lq_by_svd(m)
        assert np.array_equal(l, want[0]) and np.array_equal(q, want[1])
    else:
        assert np.array_equal(np.triu(l, 1), np.zeros_like(l))


@pytest.mark.parametrize("m", [
    np.arange(12.0).reshape(6, 2) + 1j,      # tall, full column rank
    np.outer(np.arange(1.0, 6.0), [1.0, 2j, 3.0]),   # tall, rank 1
    np.zeros((3, 4)), np.zeros((5, 2)), np.zeros((1, 1)),
])
def test_lq_tall_and_zero_follow_the_svd(m):
    l, q = lq_factorize(m)
    want_l, want_q = _lq_by_svd(np.asarray(m, dtype=complex))
    assert np.array_equal(l, want_l) and np.array_equal(q, want_q)


def _lq_by_qr_rule(m, tol=1e-12):
    """The split the singular values of R alone decide: QR when all pass, else the SVD's."""
    m = np.asarray(m, dtype=complex)
    if 0 < m.shape[0] <= m.shape[1]:
        q, r = np.linalg.qr(m.conj().T)
        s = np.linalg.svd(r, compute_uv=False)
        if s[0] > 0.0 and s[-1] > tol * s[0]:
            return r.conj().T, q.conj().T
    return _lq_by_svd(m, tol)


def _with_singular_values(rng, rows, cols, s):
    u, _ = np.linalg.qr(complex_normal(rng, (rows, rows)))
    v, _ = np.linalg.qr(complex_normal(rng, (cols, rows)))
    return (u * s) @ v.conj().T


def _lq_cases(rng):
    """Full-rank wide, near the bound (cond 1e9..1e11) and rank-deficient inputs.

    At cond 8e11 the norm bound fails while every singular value still passes
    the rule, so the singular values of R decide and the QR split stands.
    """
    cases = [complex_normal(rng, shape) for shape in [(1, 2), (3, 5), (8, 16), (16, 32), (32, 64)]]
    for rows, cond in [(8, 1e9), (16, 1e10), (32, 1e11), (32, 3e11), (32, 8e11), (16, 1e13)]:
        cases.append(_with_singular_values(rng, rows, 2 * rows, np.geomspace(1.0, 1.0 / cond, rows)))
    cases.append(_with_singular_values(rng, 6, 10, np.array([2.0, 1.0, 0.5, 0.3, 0.1, 0.0])))
    cases.append(np.vstack([complex_normal(rng, (3, 8)), np.zeros((1, 8))]))   # R exactly singular
    return cases


def test_lq_matches_the_svd_rule_bitwise(rng):
    for m in _lq_cases(rng):
        l, q = lq_factorize(m)
        want_l, want_q = _lq_by_qr_rule(m)
        assert np.array_equal(l, want_l) and np.array_equal(q, want_q), m.shape


def test_lq_full_rank_wide_makes_no_svd(monkeypatch, rng):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for shape in [(1, 2), (3, 5), (4, 4), (8, 16), (16, 32), (32, 64), (5, 40)]:
        lq_factorize(complex_normal(rng, shape))
    assert calls == []
    lq_factorize(_with_singular_values(rng, 8, 16, np.geomspace(1.0, 1e-14, 8)))
    assert calls == [(8, 8), (8, 16)]   # the rule on R, then the truncating SVD


def test_hermitian_basis_orthonormal_complete():
    for dim in (2, 3):
        basis = hermitian_basis(dim)
        assert len(basis) == dim * dim
        for i, a in enumerate(basis):
            assert np.linalg.norm(a - a.conj().T) < 1e-14
            for j, b in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert abs(np.trace(a @ b) - want) < 1e-13
