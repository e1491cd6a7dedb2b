"""Correlator checks: engine equivalence, pinned shapes, widths, Parseval."""

import numpy as np
import pytest

from triphoton import (
    AmbiguousWidthError,
    ConfigurationError,
    CorrelationSurface,
    DegenerateInputError,
    FilterSpec,
    Grid1D,
    InvalidArgumentError,
    PhaseMatchConfig,
    QuadratureSpec,
    TransverseWindow,
    fwhm,
    g2_ghz_spatial,
    g2_ghz_temporal,
    g2_w_spatial,
    g2_w_temporal,
    g3_ghz_spatial,
    g3_ghz_temporal,
    g3_w_conditional,
    g3_w_spatial,
    g3_w_temporal,
    normalize_to_peak,
)
from triphoton.correlators import _fast_len, _transform_czt, _transform_direct, czt
from triphoton.spectra import detuning_ghz, filter_eval, phi

CFG = PhaseMatchConfig(-20.0, -20.0)
GAUSS = FilterSpec("gaussian", 0.4)
FLAT = FilterSpec("rectangular", 1e6)
QUAD = QuadratureSpec(512, 3.0)
WIN = TransverseWindow(1.0)


def test_transform_engines_agree_on_random_input():
    rng = np.random.default_rng(1)
    for n, m in ((33, 17), (64, 64), (128, 5)):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nu = np.linspace(-2.7, 2.7, n)
        taus = -3.0 + 0.37 * np.arange(m)
        fast = _transform_czt(c, nu, taus)
        slow = _transform_direct(c, nu, taus)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-10 * np.abs(slow).max())


def _czt_oracle(x, m, w, a):
    """Explicit sum X_k = sum_n x_n a^-n w^(n k) along the last axis."""
    n = np.arange(x.shape[-1])
    k = np.arange(m)
    return x @ (a ** -n[:, None] * w ** np.outer(n, k))


def _assert_close(got, ref):
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


@pytest.mark.parametrize("n, m", [(40, 17), (17, 40), (33, 2), (64, 64)])
def test_czt_matches_explicit_sum(n, m):
    rng = np.random.default_rng(n * 100 + m)
    x = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    w = np.exp(1j * 0.071)
    a = np.exp(-0.83j)
    _assert_close(czt(x, m, w, a), _czt_oracle(x, m, w, a))


def test_czt_unit_circle_dft_is_fft():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 45)) + 1j * rng.standard_normal((4, 45))
    _assert_close(czt(x, 45, np.exp(-2j * np.pi / 45), 1.0), np.fft.fft(x, axis=-1))


def test_czt_layouts_and_axis():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((50, 30)) + 1j * rng.standard_normal((50, 30))
    w = np.exp(1j * 0.05)
    a = np.exp(0.4j)
    # transposed view, the layout the W correlators hand over
    view = base.T
    assert not view.flags.c_contiguous
    ref = _czt_oracle(np.ascontiguousarray(view), 21, w, a)
    _assert_close(czt(view, 21, w, a), ref)
    # axis=0 on the C-ordered array is the same transform
    _assert_close(czt(base, 21, w, a, axis=0), ref.T)
    # single row, 1-D and 2-D
    _assert_close(czt(base[:, 0], 21, w, a), ref[0])
    _assert_close(czt(base[:, :1].T, 21, w, a), ref[:1])


@pytest.mark.parametrize("shape, transpose", [((40, 37), False), ((37, 40), True), ((1, 37), False)])
@pytest.mark.parametrize("m", [2, 11, 90])
def test_transform_czt_matches_direct_on_2d_layouts(shape, transpose, m):
    rng = np.random.default_rng(m)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = c.T if transpose else c
    nu = np.linspace(-3.0, 3.0, c.shape[-1])
    taus = 0.5 + 0.21 * np.arange(m)
    _assert_close(_transform_czt(c, nu, taus), _transform_direct(c, nu, taus))


def test_fast_len_is_smallest_5_smooth_length():
    def smooth(v):
        for p in (2, 3, 5):
            while v % p == 0:
                v //= p
        return v == 1

    expected = None
    for n in range(4096, 0, -1):
        if smooth(n):
            expected = n
        assert _fast_len(n) == expected, n


def test_grid_points_and_validation():
    g = Grid1D(0.0, 0.25, 161)
    pts = g.points()
    assert pts[0] == 0.0 and pts[-1] == pytest.approx(40.0)
    assert g.stop == pytest.approx(40.0)
    for bad in ((0.0, -0.1, 5), (0.0, 0.0, 5), (0.0, 0.1, 1), (np.nan, 0.1, 5)):
        with pytest.raises(InvalidArgumentError):
            Grid1D(*bad)


def test_quadrature_weights_integrate_constant():
    q = QuadratureSpec(101, 2.5)
    nu, w = q.nodes_weights()
    assert nu[0] == -2.5 and nu[-1] == 2.5
    assert np.sum(w) == pytest.approx(5.0, rel=1e-12)


def test_quadrature_span_invariant():
    # 6 sigma of a 0.8 rad/ps Gaussian needs 4.8; span 3 must be rejected
    with pytest.raises(ConfigurationError):
        g2_w_temporal(CFG, FilterSpec("gaussian", 0.8), GAUSS, QUAD, Grid1D(0.0, 0.5, 41))
    # short walk-off needs a wide envelope span: 6 * 2pi / 2 ~ 18.8
    with pytest.raises(ConfigurationError):
        g2_w_temporal(PhaseMatchConfig(-2.0, -2.0), GAUSS, GAUSS, QUAD, Grid1D(0.0, 0.5, 41))


def test_g2_w_single_peak_and_normalization():
    grid = Grid1D(0.0, 0.25, 161)
    s = g2_w_temporal(CFG, GAUSS, GAUSS, QUAD, grid)
    assert s.normalized and s.values.max() == 1.0
    peak = grid.points()[np.argmax(s.values)]
    assert 5.0 < peak < 15.0  # interior, near the support midpoint
    assert np.all(s.values >= 0.0)


def test_g2_w_flat_filter_reflection_symmetry():
    # support sits on [0, |t12|]; flat filters make the curve exactly
    # symmetric about |t12|/2 on a symmetric grid (oracle engine)
    grid = Grid1D(0.0, 0.5, 41)
    s = g2_w_temporal(CFG, FLAT, FLAT, QuadratureSpec(256, 3.0), grid, method="quad")
    np.testing.assert_allclose(s.values, s.values[::-1], rtol=0, atol=1e-10)


def test_g2_w_zero_width_filters_constant():
    # a filter narrower than one quadrature step passes a single node, so
    # the transform magnitude cannot depend on delay
    quad = QuadratureSpec(257, 3.0)  # odd count puts a node exactly at 0
    dnu = 6.0 / 256
    tiny = FilterSpec("rectangular", dnu / 4.0)
    s = g2_w_temporal(CFG, tiny, tiny, quad, Grid1D(0.0, 0.5, 81))
    rel = (s.values.max() - s.values.min()) / s.values.max()
    assert rel < 1e-6


def test_g3_w_symmetric_under_axis_exchange():
    grid = Grid1D(0.0, 1.0, 41)
    s = g3_w_temporal(CFG, GAUSS, GAUSS, GAUSS, QUAD, (grid, grid))
    np.testing.assert_allclose(s.values, s.values.T, rtol=0, atol=1e-10)


def test_g3_w_flat_filter_support_length_along_diagonal():
    # the longitudinal envelope maps to a stripe along tau12 = tau32 whose
    # length equals the walk-off time
    grid = Grid1D(0.0, 0.1, 401)
    s = g3_w_temporal(CFG, FLAT, FLAT, FLAT, QuadratureSpec(512, 3.0), (grid, grid))
    diag = np.diag(s.values)
    diag = diag / diag.max()
    xs = grid.points()
    above = np.where(diag >= 0.5)[0]
    extent = xs[above[-1]] - xs[above[0]]
    assert extent == pytest.approx(20.0, rel=0.05)


def test_g3_conditional_width_set_by_filters():
    grid = Grid1D(0.0, 0.1, 401)
    narrow = g3_w_conditional(CFG, GAUSS, GAUSS, GAUSS, QUAD, grid)
    wide_f = FilterSpec("gaussian", 0.8)
    wide = g3_w_conditional(CFG, wide_f, wide_f, wide_f, QuadratureSpec(1024, 5.0), grid)
    assert fwhm(wide) < fwhm(narrow)
    # doubling every filter width should halve the conditional width
    assert fwhm(wide) / fwhm(narrow) == pytest.approx(0.5, rel=0.05)


def test_g3_conditional_degenerate_grid():
    s = g3_w_conditional(CFG, GAUSS, GAUSS, GAUSS, QUAD, Grid1D(9.0, 2.0, 2))
    assert s.values.shape == (2,)
    assert np.all(np.isfinite(s.values)) and np.all(s.values >= 0.0)


def test_g3_conditional_narrower_than_g2():
    grid = Grid1D(0.0, 0.25, 161)
    cond = g3_w_conditional(CFG, GAUSS, GAUSS, GAUSS, QUAD, grid)
    pair = g2_w_temporal(CFG, GAUSS, GAUSS, QUAD, grid)
    assert fwhm(cond) < fwhm(pair)


def test_g2_ghz_scalar_positive_and_engine_agreement():
    fast = g2_ghz_temporal(CFG, GAUSS, GAUSS, QUAD, method="fft")
    slow = g2_ghz_temporal(CFG, GAUSS, GAUSS, QUAD, method="quad")
    assert fast > 0.0
    assert fast == pytest.approx(slow, rel=1e-12)


def test_g2_ghz_grows_with_filter_width():
    wide_f = FilterSpec("gaussian", 0.8)
    wide = g2_ghz_temporal(CFG, wide_f, wide_f, QuadratureSpec(1024, 5.0), method="quad")
    base = g2_ghz_temporal(CFG, GAUSS, GAUSS, QuadratureSpec(1024, 5.0), method="quad")
    assert wide > base


def test_g2_ghz_presentation_curve_is_constant():
    value = g2_ghz_temporal(CFG, GAUSS, GAUSS, QUAD)
    curve = np.full(161, value)
    assert (curve.max() - curve.min()) <= 1e-12 * curve.max()


def test_g3_ghz_half_width_of_single_photon_kernel():
    # independent oracle: same integrand transformed with exp(+i nu tau);
    # the single-photon support stretches to two walk-off times
    grid = Grid1D(-10.0, 0.05, 1201)
    nu, w = QUAD.nodes_weights()
    g = filter_eval(GAUSS, nu) ** 2 * filter_eval(GAUSS, nu) * phi(detuning_ghz(nu, CFG))
    single = np.abs(np.exp(1j * np.outer(grid.points(), nu)) @ (w * g)) ** 2
    single_surface = normalize_to_peak(CorrelationSurface((grid,), single))
    pair_surface = g3_ghz_temporal(CFG, GAUSS, GAUSS, QUAD, grid)
    assert fwhm(pair_surface) / fwhm(single_surface) == pytest.approx(0.5, rel=0.01)


def test_g3_ghz_parseval():
    # delay integral of the unnormalized curve equals pi * int |g|^2 dnu,
    # the 2 pi Fourier weight halved by the doubled delay kernel
    # the unnormalized curve is built here with the doubled phase kernel
    quad = QuadratureSpec(1024, 3.0)
    grid = Grid1D(-30.0, 0.125, 641)
    nu, w = quad.nodes_weights()
    g = filter_eval(GAUSS, nu) ** 2 * filter_eval(GAUSS, nu) * phi(detuning_ghz(nu, CFG))
    curve = np.abs(np.exp(2j * np.outer(grid.points(), nu)) @ (w * g)) ** 2
    lhs = np.trapezoid(curve, grid.points())
    rhs = np.pi * float(np.sum(w * np.abs(g) ** 2))
    assert lhs == pytest.approx(rhs, rel=1e-6)
    # the direct engine evaluates the same phase-matrix sum
    direct = g3_ghz_temporal(CFG, GAUSS, GAUSS, quad, grid, method="quad")
    np.testing.assert_allclose(direct.values, curve / curve.max(), rtol=0, atol=1e-12)


def test_spatial_closed_forms():
    # Gaussian window integrals have exact Gaussian transforms; grids
    # include zero so the peak sample is the true peak
    a = WIN.alpha_max
    grid = Grid1D(-6.0, 0.125, 97)
    xs = grid.points()
    s2 = g2_w_spatial(WIN, grid, n_points=1024)
    np.testing.assert_allclose(s2.values, np.exp(-0.5 * a * a * xs * xs), atol=1e-12)
    s3g = g3_ghz_spatial(WIN, grid, n_points=1024)
    np.testing.assert_allclose(s3g.values, np.exp(-2.0 * a * a * xs * xs), atol=1e-12)
    s3 = g3_w_spatial(WIN, (grid, grid), n_points=1024)
    expected = np.outer(np.exp(-0.5 * a * a * xs * xs), np.exp(-0.5 * a * a * xs * xs))
    np.testing.assert_allclose(s3.values, expected, atol=1e-12)


def test_spatial_ghz_half_width():
    grid = Grid1D(-4.0, 0.005, 1601)
    ratio = fwhm(g3_ghz_spatial(WIN, grid)) / fwhm(g2_w_spatial(WIN, grid))
    assert ratio == pytest.approx(0.5, rel=0.01)


def test_spatial_narrows_with_transverse_bandwidth():
    grid = Grid1D(-8.0, 0.01, 1601)
    widths = [fwhm(g3_ghz_spatial(TransverseWindow(a), grid)) for a in (0.5, 1.0, 2.0)]
    assert widths[0] > widths[1] > widths[2]


def test_g2_ghz_spatial_constant():
    value = g2_ghz_spatial(WIN, n_points=2048)
    expected = WIN.alpha_max * np.sqrt(np.pi / 2.0)  # integral of the squared window
    assert value == pytest.approx(expected, rel=1e-10)


def test_g3_w_spatial_peaks_at_zero_displacement():
    grid = Grid1D(-6.0, 0.25, 49)
    s = g3_w_spatial(WIN, (grid, grid))
    i, j = np.unravel_index(np.argmax(s.values), s.values.shape)
    assert grid.points()[i] == pytest.approx(0.0, abs=0.25)
    assert grid.points()[j] == pytest.approx(0.0, abs=0.25)


def test_normalize_constant_surface():
    grid = Grid1D(0.0, 1.0, 5)
    s = CorrelationSurface((grid,), np.full(5, 3.7))
    n = normalize_to_peak(s)
    np.testing.assert_array_equal(n.values, np.ones(5))
    assert n.normalized


def test_normalize_idempotent():
    grid = Grid1D(0.0, 1.0, 4)
    s = CorrelationSurface((grid,), np.array([1.0, 4.0, 2.0, 0.0]))
    once = normalize_to_peak(s)
    twice = normalize_to_peak(once)
    np.testing.assert_array_equal(once.values, twice.values)
    assert once.values[1] == 1.0


def test_normalize_zero_surface_rejected():
    grid = Grid1D(0.0, 1.0, 3)
    s = CorrelationSurface((grid,), np.zeros(3))
    with pytest.raises(DegenerateInputError):
        normalize_to_peak(s)


def test_surface_validation():
    grid = Grid1D(0.0, 1.0, 3)
    with pytest.raises(InvalidArgumentError):
        CorrelationSurface((grid,), np.array([1.0, -0.1, 0.0]))
    with pytest.raises(InvalidArgumentError):
        CorrelationSurface((grid,), np.array([0.5, 0.4, 0.3]), normalized=True)
    with pytest.raises(InvalidArgumentError):
        CorrelationSurface((grid,), np.zeros(4))


def test_fwhm_gaussian_identity():
    sigma_t = 2.0
    grid = Grid1D(-10.0, 0.02, 1001)
    xs = grid.points()
    s = CorrelationSurface((grid,), np.exp(-0.5 * (xs / sigma_t) ** 2), normalized=True)
    expected = 2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma_t
    assert fwhm(s) == pytest.approx(expected, rel=0.01)


def test_fwhm_constant_curve_rejected():
    grid = Grid1D(0.0, 1.0, 5)
    s = CorrelationSurface((grid,), np.ones(5), normalized=True)
    with pytest.raises(AmbiguousWidthError):
        fwhm(s)


def test_fwhm_multimodal_lists_crossings():
    grid = Grid1D(0.0, 1.0, 9)
    vals = np.array([0.0, 0.9, 1.0, 0.2, 0.1, 0.3, 0.8, 0.6, 0.0])
    s = CorrelationSurface((grid,), vals, normalized=True)
    with pytest.raises(AmbiguousWidthError) as err:
        fwhm(s)
    assert len(err.value.crossings) == 4


def test_fwhm_requires_normalized_1d():
    grid = Grid1D(0.0, 1.0, 5)
    s = CorrelationSurface((grid,), np.array([0.0, 1.0, 2.0, 1.0, 0.0]))
    with pytest.raises(InvalidArgumentError):
        fwhm(s)
    s2 = g3_w_temporal(CFG, GAUSS, GAUSS, GAUSS, QUAD, (Grid1D(0.0, 2.0, 21), Grid1D(0.0, 2.0, 21)))
    with pytest.raises(InvalidArgumentError):
        fwhm(s2)


def test_quadrature_refinement_stability():
    # doubling n_points at fixed span moves nothing by more than 1e-4 of peak
    grid = Grid1D(0.0, 0.5, 81)
    coarse = g2_w_temporal(CFG, GAUSS, GAUSS, QuadratureSpec(256, 3.0), grid)
    fine = g2_w_temporal(CFG, GAUSS, GAUSS, QuadratureSpec(512, 3.0), grid)
    assert np.abs(coarse.values - fine.values).max() <= 1e-4
    assert fwhm(coarse) == pytest.approx(fwhm(fine), rel=1e-4)
    c3 = g3_ghz_temporal(CFG, GAUSS, GAUSS, QuadratureSpec(256, 3.0), grid)
    f3 = g3_ghz_temporal(CFG, GAUSS, GAUSS, QuadratureSpec(512, 3.0), grid)
    assert np.abs(c3.values - f3.values).max() <= 1e-4


def test_deterministic_reevaluation():
    grid = Grid1D(0.0, 0.5, 81)
    a = g2_w_temporal(CFG, GAUSS, GAUSS, QUAD, grid).values
    b = g2_w_temporal(CFG, GAUSS, GAUSS, QUAD, grid).values
    np.testing.assert_array_equal(a, b)


def test_invalid_method_rejected():
    with pytest.raises(InvalidArgumentError):
        g2_w_temporal(CFG, GAUSS, GAUSS, QUAD, Grid1D(0.0, 0.5, 3), method="simpson")
