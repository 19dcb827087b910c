import numpy as np
import pytest

from mpscollision.linalg import (
    expm_hermitian_generator,
    kron,
    lq_factorize,
    partial_trace,
)

from conftest import hermitian_basis, random_density, random_hermitian


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


def test_partial_trace_invalid_index():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 3), keep=(2,))
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), (2, 3), keep=())


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


def test_hermitian_basis_orthonormal_complete():
    for dim in (2, 3):
        basis = hermitian_basis(dim)
        assert len(basis) == dim * dim
        for i, a in enumerate(basis):
            assert np.linalg.norm(a - a.conj().T) < 1e-14
            for j, b in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert abs(np.trace(a @ b) - want) < 1e-13
