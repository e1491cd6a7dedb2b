"""Exact three-qubit fixtures and randomized density-matrix properties."""

import numpy as np
import pytest

from triphoton import (
    DensityMatrix,
    InvalidArgumentError,
    PureState,
    fidelity,
    make_ghz,
    make_w,
    negativity,
    partial_trace,
)

# Reduced state after losing one qubit of the symmetric single-excitation
# state: 2/3 |psi+><psi+| + 1/3 |00><00|. Its negativity, frozen from the
# brute-force partial-transpose oracle below (analytically (sqrt5 - 1)/6).
TRACED_W_NEGATIVITY = 0.20601132958329826


def brute_force_negativity_2x2(rho: np.ndarray) -> float:
    """Independent oracle: explicit index loops, no reshape tricks."""
    pt = np.zeros_like(rho)
    for a in range(2):
        for b in range(2):
            for ap in range(2):
                for bp in range(2):
                    pt[2 * a + bp, 2 * ap + b] = rho[2 * a + b, 2 * ap + bp]
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0].sum())


def traced_w_expected() -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0 / 3.0
    for r in (1, 2):
        for c in (1, 2):
            rho[r, c] = 1.0 / 3.0
    return rho


def test_ghz_amplitudes():
    s = make_ghz()
    assert s.dims == (2, 2, 2)
    nonzero = np.nonzero(s.amplitudes)[0]
    np.testing.assert_array_equal(nonzero, [0, 7])
    np.testing.assert_allclose(s.amplitudes[[0, 7]], 1.0 / np.sqrt(2.0), rtol=1e-15)
    assert np.sum(np.abs(s.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-15)


def test_w_amplitudes():
    s = make_w()
    nonzero = sorted(np.nonzero(s.amplitudes)[0])
    assert nonzero == [1, 2, 4]
    np.testing.assert_allclose(s.amplitudes[[1, 2, 4]], 1.0 / np.sqrt(3.0), rtol=1e-15)


def test_ghz_w_orthogonal():
    assert abs(make_ghz().overlap(make_w())) == 0.0


def test_partial_trace_ghz_fixture():
    reduced = partial_trace(make_ghz().density(), (0, 1))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(reduced.matrix, expected, rtol=0, atol=1e-12)


def test_partial_trace_w_fixture():
    reduced = partial_trace(make_w().density(), (0, 1))
    np.testing.assert_allclose(reduced.matrix, traced_w_expected(), rtol=0, atol=1e-12)


def test_w_single_qubit_reductions_identical():
    rho = make_w().density()
    singles = [partial_trace(rho, (q,)).matrix for q in range(3)]
    np.testing.assert_allclose(singles[0], singles[1], atol=1e-14)
    np.testing.assert_allclose(singles[0], singles[2], atol=1e-14)


def _random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(21)
    for _ in range(5):
        rho = _random_density(rng, 2)
        sigma = _random_density(rng, 3)
        joint = DensityMatrix(np.kron(rho, sigma), (2, 3))
        left = partial_trace(joint, (0,))
        np.testing.assert_allclose(left.matrix, rho, atol=1e-13)
        right = partial_trace(joint, (1,))
        np.testing.assert_allclose(right.matrix, sigma, atol=1e-13)


def test_partial_trace_keep_order():
    rng = np.random.default_rng(22)
    rho = _random_density(rng, 2)
    sigma = _random_density(rng, 3)
    tau = _random_density(rng, 2)
    joint = DensityMatrix(np.kron(np.kron(rho, sigma), tau), (2, 3, 2))
    swapped = partial_trace(joint, (1, 0))
    np.testing.assert_allclose(swapped.matrix, np.kron(sigma, rho), atol=1e-13)
    assert swapped.dims == (3, 2)


def test_partial_trace_linearity():
    rng = np.random.default_rng(23)
    a = 0.3
    rho = DensityMatrix(np.kron(_random_density(rng, 2), _random_density(rng, 2)), (2, 2))
    sigma = make_ghz().density()
    sigma = partial_trace(sigma, (0, 1))
    mix = DensityMatrix(a * rho.matrix + (1 - a) * sigma.matrix, (2, 2))
    lhs = partial_trace(mix, (0,)).matrix
    rhs = a * partial_trace(rho, (0,)).matrix + (1 - a) * partial_trace(sigma, (0,)).matrix
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_partial_trace_invalid_keep():
    rho = make_ghz().density()
    for keep in ((), (0, 1, 2), (3,), (0, 0)):
        with pytest.raises(InvalidArgumentError):
            partial_trace(rho, keep)


def test_negativity_even_mixture_zero():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    assert negativity(DensityMatrix(m, (2, 2)), (0,)) <= 1e-10


def test_negativity_psi_plus():
    psi = PureState(np.array([0, 1, 1, 0]) / np.sqrt(2.0), (2, 2))
    assert negativity(psi.density(), (0,)) == pytest.approx(0.5, abs=1e-12)


def test_negativity_traced_w_matches_oracle_and_fixture():
    rho = traced_w_expected()
    oracle = brute_force_negativity_2x2(rho)
    assert oracle == pytest.approx(TRACED_W_NEGATIVITY, abs=1e-12)
    value = negativity(DensityMatrix(rho, (2, 2)), (0,))
    assert value == pytest.approx(oracle, abs=1e-12)
    assert value > 0.0


def test_negativity_after_one_qubit_loss():
    w = make_w().density()
    ghz = make_ghz().density()
    for drop in range(3):
        keep = tuple(q for q in range(3) if q != drop)
        assert negativity(partial_trace(w, keep), (0,)) > 1e-6
        assert negativity(partial_trace(ghz, keep), (0,)) <= 1e-10


def test_negativity_zero_for_separable_mixtures():
    rng = np.random.default_rng(31)
    for _ in range(20):
        terms = rng.integers(1, 6)
        weights = rng.dirichlet(np.ones(terms))
        rho = np.zeros((4, 4), dtype=complex)
        for w_, _t in zip(weights, range(terms)):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            v = np.kron(a, b)
            rho += w_ * np.outer(v, v.conj())
        assert negativity(DensityMatrix(rho, (2, 2)), (0,)) <= 1e-10


def _random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_negativity_local_unitary_invariance():
    rng = np.random.default_rng(32)
    psi = make_w().density()
    rho = partial_trace(psi, (0, 1))
    base = negativity(rho, (0,))
    for _ in range(10):
        u = np.kron(_random_unitary(rng, 2), _random_unitary(rng, 2))
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T, (2, 2))
        assert negativity(rotated, (0,)) == pytest.approx(base, abs=1e-10)


def test_negativity_invalid_cut():
    rho = make_ghz().density()
    for cut in ((), (0, 1, 2), (5,)):
        with pytest.raises(InvalidArgumentError):
            negativity(rho, cut)


def test_fidelity_identity():
    rng = np.random.default_rng(41)
    rho = DensityMatrix(_random_density(rng, 4), (4,))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_ghz_w_zero():
    assert fidelity(make_ghz().density(), make_w().density()) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_pure_overlap():
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        sa, sb = PureState(a, (4,)), PureState(b, (4,))
        expected = abs(np.vdot(a, b)) ** 2
        # the matrix square root of a rank-1 projector is accurate to
        # about sqrt(machine epsilon)
        assert fidelity(sa.density(), sb.density()) == pytest.approx(expected, abs=1e-7)


def test_fidelity_traced_ghz_vs_even_mixture():
    reduced = partial_trace(make_ghz().density(), (0, 1))
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    assert fidelity(reduced, DensityMatrix(m, (2, 2))) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        fidelity(make_ghz().density(), partial_trace(make_w().density(), (0, 1)))


def test_density_matrix_validation():
    bad_herm = np.array([[0.5, 0.2], [0.1, 0.5]], dtype=complex)
    with pytest.raises(InvalidArgumentError):
        DensityMatrix(bad_herm, (2,))
    bad_trace = np.eye(2, dtype=complex)
    with pytest.raises(InvalidArgumentError):
        DensityMatrix(bad_trace, (2,))
    negative = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(InvalidArgumentError):
        DensityMatrix(negative, (2,))


def test_pure_state_validation():
    with pytest.raises(InvalidArgumentError):
        PureState(np.array([1.0, 1.0]), (2,))
    with pytest.raises(InvalidArgumentError):
        PureState(np.array([1.0, 0.0]), (2, 2))


def test_randomized_density_matrices_stay_valid():
    # constructing via the validated type certifies Hermiticity, trace, PSD
    rng = np.random.default_rng(43)
    for _ in range(10):
        rho = DensityMatrix(_random_density(rng, 6), (2, 3))
        reduced = partial_trace(rho, (0,))
        assert reduced.dims == (2,)
        assert np.trace(reduced.matrix) == pytest.approx(1.0, abs=1e-12)


def test_pure_state_rejects_nan():
    with pytest.raises(InvalidArgumentError, match="norm"):
        PureState(np.array([np.nan, 0.0]), (2,))


def test_density_matrix_rejects_nan():
    with pytest.raises(InvalidArgumentError):
        DensityMatrix(np.full((2, 2), np.nan), (2,))
