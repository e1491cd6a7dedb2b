"""Spectral ingredient checks: envelope, detunings, filters."""

import numpy as np
import pytest

from triphoton import (
    FilterSpec,
    InvalidArgumentError,
    PhaseMatchConfig,
    TransverseWindow,
    detuning_ghz,
    filter_eval,
    phi,
)

from oracle import detuning_w, window_eval

CFG = PhaseMatchConfig(t12=-20.0, t32=-20.0)


def test_phi_pinned_values():
    assert phi(0.0) == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert abs(phi(2.0 * np.pi)) < 1e-12
    val = phi(np.pi)
    assert abs(val) == pytest.approx(2.0 / np.pi, rel=1e-12)
    assert np.angle(val) == pytest.approx(-np.pi / 2.0, abs=1e-12)


def test_phi_direct_formula_agreement():
    # the sinc form must equal (1 - exp(-ix)) / (ix) wherever the latter is stable
    x = np.concatenate([-np.logspace(-3, 2, 200), np.logspace(-3, 2, 200)])
    direct = (1.0 - np.exp(-1j * x)) / (1j * x)
    np.testing.assert_allclose(phi(x), direct, rtol=0, atol=1e-13)


def test_phi_series_near_zero():
    # small-argument expansion 1 - ix/2 - x^2/6
    for x in (1e-8, -1e-8, 1e-10):
        expected = 1.0 - 0.5j * x - x * x / 6.0
        assert phi(x) == pytest.approx(expected, abs=1e-15)


def test_phi_bound_and_peak():
    x = np.linspace(-60.0, 60.0, 20001)
    mags = np.abs(phi(x))
    assert np.all(mags <= 1.0 + 1e-14)
    interior = np.abs(x) > 1e-3
    assert np.all(mags[interior] < 1.0)
    assert abs(phi(0.0)) == 1.0


def test_phi_conjugacy():
    rng = np.random.default_rng(7)
    x = rng.uniform(-40.0, 40.0, size=200)
    np.testing.assert_allclose(phi(-x), np.conj(phi(x)), rtol=0, atol=1e-14)


def test_phi_zeros_at_multiples_of_two_pi():
    n = np.arange(1, 21)
    roots = np.concatenate([2.0 * np.pi * n, -2.0 * np.pi * n])
    assert np.abs(phi(roots)).max() < 1e-12


def test_phi_rejects_nonfinite():
    with pytest.raises(InvalidArgumentError):
        phi(np.nan)
    with pytest.raises(InvalidArgumentError):
        phi(np.inf)


def test_detuning_pinned_values():
    assert detuning_w(0.0, 0.0, CFG) == 0.0
    assert detuning_w(0.1, 0.2, CFG) == pytest.approx(6.0, rel=1e-15)
    assert detuning_ghz(0.0, CFG) == 0.0
    assert detuning_ghz(0.1, CFG) == pytest.approx(4.0, rel=1e-15)


def test_detuning_symmetry_under_equal_delays():
    rng = np.random.default_rng(3)
    a, b = rng.uniform(-1, 1, 2)
    assert detuning_w(a, b, CFG) == pytest.approx(detuning_w(b, a, CFG), rel=1e-15)


def test_detuning_ghz_is_twice_detuning_w():
    rng = np.random.default_rng(4)
    for nu in rng.uniform(-2, 2, 20):
        assert detuning_ghz(nu, CFG) == pytest.approx(2.0 * detuning_w(nu, 0.0, CFG), rel=1e-15)


def test_detuning_linearity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b = rng.uniform(-3, 3, 2)
        x1, y1, x2, y2 = rng.uniform(-2, 2, 4)
        lhs = detuning_w(a * x1 + b * x2, a * y1 + b * y2, CFG)
        rhs = a * detuning_w(x1, y1, CFG) + b * detuning_w(x2, y2, CFG)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def test_filter_pinned_values():
    g = FilterSpec("gaussian", sigma=0.4)
    assert filter_eval(g, 0.0) == 1.0
    assert filter_eval(g, 0.4) == pytest.approx(np.exp(-0.5), rel=1e-14)
    r = FilterSpec("rectangular", sigma=0.4)
    assert filter_eval(r, 0.8) == 0.0
    assert filter_eval(r, 0.39) == 1.0
    assert filter_eval(r, 0.4) == 1.0  # boundary included
    off = FilterSpec("gaussian", sigma=0.2, center_offset=1.0)
    assert filter_eval(off, 1.0) == 1.0


def test_filter_peak_bound():
    rng = np.random.default_rng(11)
    for shape in ("gaussian", "rectangular"):
        f = FilterSpec(shape, sigma=0.7, center_offset=-0.3)
        vals = filter_eval(f, rng.uniform(-5, 5, 500))
        assert np.all(vals <= 1.0)
        assert np.all(vals >= 0.0)


def test_window_eval():
    w = TransverseWindow(alpha_max=2.0)
    assert window_eval(w, 0.0) == 1.0
    assert window_eval(w, 2.0) == pytest.approx(np.exp(-1.0), rel=1e-14)


def test_invalid_constructions():
    with pytest.raises(InvalidArgumentError):
        PhaseMatchConfig(t12=0.0, t32=-20.0)
    with pytest.raises(InvalidArgumentError):
        PhaseMatchConfig(t12=-20.0, t32=np.nan)
    with pytest.raises(InvalidArgumentError):
        FilterSpec("gaussian", sigma=-1.0)
    with pytest.raises(InvalidArgumentError):
        FilterSpec("gaussian", sigma=0.0)
    with pytest.raises(ValueError):
        FilterSpec("triangular", sigma=0.4)
    with pytest.raises(InvalidArgumentError):
        TransverseWindow(alpha_max=-1.0)
