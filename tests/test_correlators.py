"""Correlator checks: engine equivalence, pinned shapes, widths, Parseval."""

import tracemalloc

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
    ModeGrid,
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
    w_temporal_panels,
)
from triphoton import continuum, correlators
from triphoton.config import parse_config
from triphoton.correlators import (
    _ROUNDING_FLOOR,
    _assemble,
    _clip_rounding,
    _fast_len,
    _transform_czt,
    _transform_direct,
    _w_integrand,
    _w_pair,
    _w_photon1,
    _w_tables,
    czt,
    w_temporal_method,
)
from triphoton.spectra import detuning_ghz, filter_eval, phi

from oracle import (
    detuning_w,
    transverse_trapezoid,
    w_integrand,
    w_pair_node_pairs,
    w_surface_node_sum,
    w_surface_trapezoid,
)

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


def test_czt_layouts():
    rng = np.random.default_rng(3)
    base = rng.standard_normal((50, 30)) + 1j * rng.standard_normal((50, 30))
    w = np.exp(1j * 0.05)
    a = np.exp(0.4j)
    # transposed view, the layout the W correlators hand over
    view = base.T
    assert not view.flags.c_contiguous
    ref = _czt_oracle(np.ascontiguousarray(view), 21, w, a)
    _assert_close(czt(view, 21, w, a), ref)
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


NU_1024 = QuadratureSpec(1024, 3.0).nodes_weights()[0]


@pytest.mark.parametrize("cfg, f2, f3, nu", [
    (CFG, GAUSS, GAUSS, NU_1024),                        # x = 0 on an anti-diagonal
    (CFG, GAUSS, None, NU_1024),
    (PhaseMatchConfig(-20.0, 17.0), GAUSS, GAUSS, NU_1024),
    (PhaseMatchConfig(-21.3, -18.7), FilterSpec("gaussian", 0.4, center_offset=0.3),
     GAUSS, NU_1024),
    (CFG, FilterSpec("rectangular", 0.5, center_offset=0.3), GAUSS, NU_1024),
    (CFG, FilterSpec("rectangular", 0.5, center_offset=0.3), GAUSS,
     ModeGrid(17, -1.3, 0.9).centers()),
    (CFG, GAUSS, GAUSS, QuadratureSpec(2, 3.0).nodes_weights()[0]),
])
def test_w_integrand_matches_elementwise_oracle(cfg, f2, f3, nu):
    np.testing.assert_allclose(_w_integrand(cfg, GAUSS, f2, f3, nu),
                               w_integrand(cfg, GAUSS, f2, f3, nu),
                               rtol=0, atol=1e-14)


def test_w_integrand_rectangular_f2_edge_is_one_value_per_anti_diagonal():
    # the passband edges fall exactly on anti-diagonals 923 and 1123 of the
    # default grid; each anti-diagonal is one photon-2 frequency, so it must
    # be all in or all out, whatever the rounding of nu1 + nu3
    n = len(NU_1024)
    f2 = FilterSpec("rectangular", 100 * (6.0 / 1023))
    F = _w_integrand(CFG, FLAT, f2, None, NU_1024)
    env = phi(detuning_w(NU_1024[:, None], NU_1024[None, :], CFG))
    on = np.abs(env) > 1e-3
    ratio = (F / np.where(on, env, 1.0))[on]
    assert np.abs(ratio.imag).max() < 1e-12
    diag = np.add.outer(np.arange(n), np.arange(n))[on]
    lo = np.full(2 * n - 1, np.inf)
    hi = np.full(2 * n - 1, -np.inf)
    np.minimum.at(lo, diag, ratio.real)
    np.maximum.at(hi, diag, ratio.real)
    seen = np.isfinite(lo)
    assert np.max(hi[seen] - lo[seen]) < 1e-12


def test_assemble_into_a_buffer_allocates_two_float_temporaries():
    # the fused photon-1 route assembles into the (n, L) chirp-z buffer;
    # beyond it only the real arguments and envelope (n^2 floats each) and
    # boolean masks may be allocated
    n = len(NU_1024)
    f2_diag, rows, cols = _w_tables(CFG, GAUSS, GAUSS, None, NU_1024)
    buf = np.zeros((n, 1200), dtype=complex)
    tracemalloc.start()
    try:
        _assemble(f2_diag, cols, rows, out=buf[:, :n])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8
    np.testing.assert_allclose(buf[:, :n], _w_integrand(CFG, GAUSS, GAUSS, None, NU_1024).T,
                               rtol=0, atol=1e-14)
    assert not buf[:, n:].any()


@pytest.mark.parametrize("method", ["fft", "quad", "continuum"])
def test_w_temporal_panels_equal_standalone_correlators(method):
    g12 = Grid1D(0.0, 0.5, 41)
    g32 = Grid1D(-2.0, 0.75, 23)
    f3 = FilterSpec("gaussian", 0.35, center_offset=0.1)
    surface, conditional, pair = w_temporal_panels(CFG, GAUSS, GAUSS, f3, QUAD, (g12, g32),
                                                   method=method)
    alone = (g3_w_temporal(CFG, GAUSS, GAUSS, f3, QUAD, (g12, g32), method=method),
             g3_w_conditional(CFG, GAUSS, GAUSS, f3, QUAD, g12, method=method),
             g2_w_temporal(CFG, GAUSS, GAUSS, QUAD, g12, method=method))
    for panel, reference in zip((surface, conditional, pair), alone):
        assert panel.axes == reference.axes
    np.testing.assert_array_equal(surface.values, alone[0].values)
    np.testing.assert_array_equal(conditional.values, alone[1].values)
    if method != "fft":
        np.testing.assert_array_equal(pair.values, alone[2].values)
    else:
        # the standalone fft pair takes the autocorrelation route, the panel
        # the shared photon-1 chirp-z, whose chirp phases reach 770 rad here
        # and carry ~1e-13 of rounding; the standalone pair is within 1e-14
        # of the direct sum
        np.testing.assert_allclose(pair.values, alone[2].values, rtol=0, atol=2e-13)
        direct = g2_w_temporal(CFG, GAUSS, GAUSS, QUAD, g12, method="quad")
        np.testing.assert_allclose(alone[2].values, direct.values, rtol=0, atol=1e-14)


@pytest.mark.parametrize("method", ["fft", "quad", "continuum"])
def test_w_curves_are_scale_invariant(method):
    # the model has one scale: sigma and the centre offsets times lam, and
    # the walk-offs and delays over lam, leave every normalized W curve as
    # it is, so a unit slip in an engine shows here
    lam = 2.5
    filters = (FilterSpec("gaussian", 0.3, center_offset=0.2),
               FilterSpec("gaussian", 0.5, center_offset=-0.3),
               FilterSpec("gaussian", 0.35, center_offset=0.25))

    def curves(scale):
        cfg = PhaseMatchConfig(-21.3 / scale, -18.7 / scale)
        f1, f2, f3 = (FilterSpec("gaussian", f.sigma * scale, center_offset=f.center_offset * scale)
                      for f in filters)
        quad = QuadratureSpec(512, 4.0 * scale)
        grids = (Grid1D(0.0, 0.5 / scale, 41), Grid1D(-2.0 / scale, 0.75 / scale, 23))
        return (*w_temporal_panels(cfg, f1, f2, f3, quad, grids, method=method),
                g2_w_temporal(cfg, f1, f2, quad, grids[0], method=method))

    for base, scaled in zip(curves(1.0), curves(lam)):
        assert np.abs(scaled.values - base.values).max() <= 1e-13


QUAD_1024 = QuadratureSpec(1024, 3.0)
OFFSET = FilterSpec("gaussian", 0.3, center_offset=0.2)


# W grid cases: both W photon-1 routes and the pair autocorrelation route
# run on each
W_GRID_CASES = [
    (CFG, GAUSS, GAUSS, QUAD, Grid1D(4.0, 3.5, 2)),                           # m = 2
    (CFG, GAUSS, GAUSS, QUAD, Grid1D(0.0, 0.5, 41)),                          # m = 41
    (CFG, GAUSS, GAUSS, QUAD_1024, Grid1D(0.0, 32.0 / 2560, 2561)),           # m = 2561
    (CFG, GAUSS, GAUSS, QUAD, Grid1D(-30.0, 0.25, 241)),                      # negative start
    (CFG, GAUSS, GAUSS, QuadratureSpec(257, 3.0), Grid1D(-5.0, 0.25, 121)),   # odd n_points
    (CFG, GAUSS, GAUSS, QuadratureSpec(2, 3.0), Grid1D(-5.0, 0.5, 41)),       # n_points = 2
    (CFG, GAUSS, FilterSpec("rectangular", 0.5, center_offset=0.3), QUAD,     # rectangular f2
     Grid1D(-5.0, 0.25, 121)),
    (PhaseMatchConfig(-21.3, -18.7), OFFSET,                                  # offset centres,
     FilterSpec("gaussian", 0.35, center_offset=-0.15), QUAD,                 # t12 != t32
     Grid1D(-5.0, 0.25, 121)),
    (PhaseMatchConfig(-20.0, 17.0), GAUSS, GAUSS, QUAD, Grid1D(-5.0, 0.25, 121)),
]


@pytest.mark.parametrize("cfg, f1, f2, quad, grid", W_GRID_CASES)
def test_g2_w_autocorrelation_matches_direct_routes(cfg, f1, f2, quad, grid):
    fast = g2_w_temporal(cfg, f1, f2, quad, grid)
    direct = g2_w_temporal(cfg, f1, f2, quad, grid, method="quad")
    # the photon-1 chirp-z transform reduced by |inner|^2, the route the
    # figure1 panel takes
    nu, w, inner = _w_photon1(cfg, (f1, f2), quad, grid, "fft")
    chirp = _w_pair(w, inner, grid)
    assert fast.axes == direct.axes
    np.testing.assert_allclose(fast.values, direct.values, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fast.values, chirp.values, rtol=0, atol=1e-11)


DEFAULT = parse_config("{}")


@pytest.mark.parametrize("cfg, f1, f2, quad, grid", W_GRID_CASES + [
    (DEFAULT.phase_match, *DEFAULT.filters[:2], DEFAULT.quadrature, DEFAULT.grid("tau12_ps")),
])
def test_w_photon1_chirp_z_buffer_matches_direct_sum(cfg, f1, f2, quad, grid):
    # the fft route folds the weights and the input chirp into the photon-1
    # row factor and builds straight into the Bluestein buffer; the quad
    # route applies the direct phase matrix to w_i F. The distance relative
    # to the peak is 1.2e-12 at most (negative start) and 8.9e-13 at the
    # default config; at m = 2561, where the chirp phases are largest, 1.02e-11.
    _, _, fast = _w_photon1(cfg, (f1, f2), quad, grid, "fft")
    _, _, direct = _w_photon1(cfg, (f1, f2), quad, grid, "quad")
    assert fast.shape == direct.shape == (quad.n_points, grid.count)
    bound = 1.2e-11 if grid.count > 1000 else 1.5e-12
    assert np.abs(fast - direct).max() <= bound * np.abs(direct).max()


# Continuum cases: (cfg, filters, tau12 grid, tau32 grid). The oracle is the
# trapezoid at +-6 rad/ps, 15 sigma of the 0.4 rad/ps filters, where its
# truncation is far below rounding; the distances read are 4.9e-14 at
# |t| = 200 ps and 1.7e-14 elsewhere.
WIDE = QuadratureSpec(1024, 6.0)
CONTINUUM_CASES = {
    "equal": (CFG, (GAUSS, GAUSS, GAUSS), Grid1D(0.0, 0.5, 81), Grid1D(0.0, 0.5, 81)),
    "unequal_sigma": (CFG, (FilterSpec("gaussian", 0.3), FilterSpec("gaussian", 0.5),
                            FilterSpec("gaussian", 0.35)),
                      Grid1D(0.0, 0.5, 81), Grid1D(0.0, 0.5, 81)),
    "offsets": (PhaseMatchConfig(-21.3, -18.7),
                (FilterSpec("gaussian", 0.3, center_offset=0.2),
                 FilterSpec("gaussian", 0.5, center_offset=-0.3),
                 FilterSpec("gaussian", 0.35, center_offset=0.25)),
                Grid1D(0.0, 0.5, 81), Grid1D(0.0, 0.5, 81)),
    "positive_t32": (PhaseMatchConfig(-20.0, 17.0), (GAUSS, GAUSS, GAUSS),
                     Grid1D(-5.0, 0.5, 81), Grid1D(-25.0, 0.5, 81)),
    "negative_start_odd_counts": (CFG, (GAUSS, GAUSS, GAUSS),
                                  Grid1D(-7.5, 0.5, 41), Grid1D(-5.0, 0.75, 27)),
    "walk_off_200ps": (PhaseMatchConfig(-200.0, -200.0), (GAUSS, GAUSS, GAUSS),
                       Grid1D(-20.0, 2.0, 141), Grid1D(-20.0, 2.0, 141)),
}


@pytest.mark.parametrize("case", CONTINUUM_CASES)
def test_continuum_matches_quad_at_a_wide_span(case):
    cfg, (f1, f2, f3), g12, g32 = CONTINUUM_CASES[case]
    fast = w_temporal_panels(cfg, f1, f2, f3, WIDE, (g12, g32), method="continuum")
    direct = w_temporal_panels(cfg, f1, f2, f3, WIDE, (g12, g32), method="quad")
    for got, ref in zip(fast, direct):
        assert got.axes == ref.axes
        assert np.all(np.isfinite(got.values))
        np.testing.assert_allclose(got.values, ref.values, rtol=0, atol=1e-13)


@pytest.mark.parametrize("case", ["offsets", "walk_off_200ps"])
def test_continuum_surface_matches_direct_trapezoid(case):
    # the oracle builds every factor of the integrand elementwise and sums
    # it with explicit phase matrices: no 1-D tables, no chirp-z
    cfg, (f1, f2, f3), g12, g32 = CONTINUUM_CASES[case]
    fast = g3_w_temporal(cfg, f1, f2, f3, WIDE, (g12, g32), method="continuum")
    oracle = w_surface_trapezoid(cfg, f1, f2, f3, WIDE, (g12, g32))
    np.testing.assert_allclose(fast.values, oracle.values, rtol=0, atol=1e-13)


@pytest.mark.parametrize("case", CONTINUUM_CASES)
def test_continuum_node_count_is_converged(case, monkeypatch):
    # twice the derived number of Gauss-Legendre nodes moves nothing by
    # more than 1e-13 of the peak
    cfg, (f1, f2, f3), g12, g32 = CONTINUUM_CASES[case]
    derived = w_temporal_panels(cfg, f1, f2, f3, WIDE, (g12, g32), method="continuum")
    order = continuum._order
    monkeypatch.setattr(continuum, "_order", lambda *args: 2 * order(*args))
    doubled = w_temporal_panels(cfg, f1, f2, f3, WIDE, (g12, g32), method="continuum")
    for got, ref in zip(doubled, derived):
        np.testing.assert_allclose(got.values, ref.values, rtol=0, atol=1e-13)


def test_continuum_pair_zeroes_only_rounding_below_zero(monkeypatch):
    # far-off filter centres give the node pairs phases gamma (s - s') that
    # cancel on the curve's flanks, where the true curve is ~2e-16 of its
    # peak: rounding leaves values down to -5e-14 of the peak there, which
    # read 0, and the curve still matches the trapezoid
    cfg = PhaseMatchConfig(-103.0, -13.0)
    f1 = FilterSpec("gaussian", 0.21, center_offset=1.5)
    f2 = FilterSpec("gaussian", 0.36, center_offset=0.7)
    quad = QuadratureSpec(1536, 4.5)
    grid = Grid1D(-20.0, 143.0 / 300, 301)
    lows = []
    real = correlators._clip_rounding
    monkeypatch.setattr(correlators, "_clip_rounding",
                        lambda vals, n: lows.append(vals.min() / vals.max()) or real(vals, n))
    fast = g2_w_temporal(cfg, f1, f2, quad, grid, method="continuum")
    direct = g2_w_temporal(cfg, f1, f2, quad, grid, method="quad")
    assert -1e-13 < lows[0] < 0.0
    assert fast.values.min() == 0.0
    np.testing.assert_allclose(fast.values, direct.values, rtol=0, atol=5e-13)


def test_continuum_node_count_follows_the_walk_off():
    # the s-Gaussian's curvature grows as (sigma t)^2, and the node count with it
    counts = [continuum._order(float(t) ** 2, 0.0) for t in (1.0, 8.0, 40.0, 80.0)]
    assert counts == sorted(counts) and counts[0] < counts[-1] / 4


def test_continuum_chunks_agree_to_rounding(monkeypatch):
    # each output is one reduction over all nodes, whatever the chunking;
    # only BLAS's blocking of it may move the last bit. Every engine call,
    # the pair's included, must run in more than one block here.
    cfg, (f1, f2, f3), g12, g32 = CONTINUUM_CASES["offsets"]
    whole = w_temporal_panels(cfg, f1, f2, f3, WIDE, (g12, g32), method="continuum")
    blocks = []
    real = continuum._exp_sum

    def counted(n_rows, row_size, half_q, reduce):
        calls = []
        blocks.append(calls)
        return real(n_rows, row_size, lambda rows: calls.append(rows) or half_q(rows), reduce)

    monkeypatch.setattr(continuum, "_exp_sum", counted)
    monkeypatch.setattr(continuum, "_CHUNK", 1000)
    chunked = w_temporal_panels(cfg, f1, f2, f3, WIDE, (g12, g32), method="continuum")
    assert len(blocks) == 3 and min(map(len, blocks)) > 1
    for got, ref in zip(chunked, whole):
        np.testing.assert_allclose(got.values, ref.values, rtol=1e-15, atol=1e-16)


# Surface cases: (cfg, filters, tau12, tau32). The continuum surface sums
# its envelope nodes in groups, each a rank-K_g product, and must give the
# node sum it restructures. Beyond CONTINUUM_CASES: sigma |t| = 40, 80 and
# 400 (K = 76, 149 and 765 nodes in 5, 18 and 321 groups), a +-500 ps grid
# at the default config, whose extent alone splits the 20 nodes into 5
# groups, and far-off filter centres. The distances read are 3.6e-14 of the
# peak at most (far-off centres), 2.8e-14 at sigma |t| = 400.
SURFACE_CASES = {
    **{name: (cfg, filters, g12.points(), g32.points())
       for name, (cfg, filters, g12, g32) in CONTINUUM_CASES.items()},
    **{f"sigma_t_{st}": (PhaseMatchConfig(-st / 0.4, -st / 0.4), (GAUSS, GAUSS, GAUSS),
                         Grid1D(-st / 8, st / 40, 121).points(),
                         Grid1D(-st / 8, st / 40, 121).points())
       for st in (40, 80, 400)},
    "grid_500ps": (CFG, (GAUSS, GAUSS, GAUSS), Grid1D(-500.0, 6.25, 161).points(),
                   Grid1D(-500.0, 6.25, 161).points()),
    "far_off_centres": (PhaseMatchConfig(-103.0, -13.0),
                        (FilterSpec("gaussian", 0.21, center_offset=1.5),
                         FilterSpec("gaussian", 0.36, center_offset=0.7),
                         FilterSpec("gaussian", 0.3, center_offset=-0.4)),
                        Grid1D(-20.0, 143.0 / 300, 301).points(),
                        Grid1D(-5.0, 0.25, 101).points()),
}


@pytest.mark.parametrize("case", SURFACE_CASES)
def test_continuum_surface_matches_node_sum(case):
    cfg, filters, tau12, tau32 = SURFACE_CASES[case]
    fast = np.abs(continuum.w_surface(cfg, filters, tau12, tau32)) ** 2
    oracle = np.abs(w_surface_node_sum(cfg, filters, tau12, tau32)) ** 2
    assert np.abs(fast - oracle).max() <= 1e-13 * oracle.max()


def test_continuum_surface_groups_agree(monkeypatch):
    # a smaller split bound cuts the default config's 20 nodes into several
    # groups; the sum is the same to rounding
    cfg, filters, tau12, tau32 = SURFACE_CASES["equal"]
    seen = []
    real = continuum._node_groups
    monkeypatch.setattr(continuum, "_node_groups",
                        lambda *args: seen.append(real(*args)) or seen[-1])
    one = np.abs(continuum.w_surface(cfg, filters, tau12, tau32)) ** 2
    monkeypatch.setattr(continuum, "_SPLIT_BOUND", 5.0)
    split = np.abs(continuum.w_surface(cfg, filters, tau12, tau32)) ** 2
    assert len(seen[0]) == 1 and len(seen[1]) >= 3
    assert np.abs(split - one).max() <= 1e-14 * one.max()


@pytest.mark.parametrize("walk_off", [200.0, 1000.0])
@pytest.mark.parametrize("filters", [(GAUSS, GAUSS, GAUSS),
                                     (FilterSpec("gaussian", 0.3, center_offset=1.2),
                                      FilterSpec("gaussian", 0.5, center_offset=-0.8),
                                      FilterSpec("gaussian", 0.35, center_offset=0.6))])
def test_continuum_surface_cannot_overflow(walk_off, filters):
    # every split factor stays within exp(+-_SPLIT_BOUND) and each group's
    # centre factor is at most 1, so ~700 nodes and tails that underflow
    # raise nothing
    cfg = PhaseMatchConfig(-walk_off, -0.7 * walk_off)
    tau = Grid1D(-0.2 * walk_off, 1.6 * walk_off / 200, 201).points()
    with np.errstate(over="raise", invalid="raise"):
        amp = continuum.w_surface(cfg, filters, tau, tau)
    assert np.all(np.isfinite(amp)) and np.abs(amp).max() > 0.0


def test_continuum_surface_costs_one_exponential_per_point(monkeypatch):
    # the default config's 20 nodes form one group: one exponential per
    # point and K per grid value, where a node sum takes K per point (518k)
    cfg, filters = CFG, (GAUSS, GAUSS, GAUSS)
    tau12 = tau32 = Grid1D(0.0, 0.25, 161).points()
    cov, mu = continuum._gaussian(filters, ((1.0, 0.0), (-1.0, -1.0), (0.0, 1.0)))
    t = np.array([cfg.t12, cfg.t32])
    k = continuum._order(t @ cov @ t, mu @ t)
    counting = _CountingNumpy()
    monkeypatch.setattr(continuum, "np", counting)
    continuum.w_surface(cfg, filters, tau12, tau32)
    assert 0 < counting.evaluated <= len(tau12) * len(tau32) + k * (len(tau12) + len(tau32) + 4)


# Pair cases: (cfg, f1, f2, delays). The continuum pair's kernel quadratic
# form must give the node-pair double sum it restructures; the distances
# read are 4e-16 (CONTINUUM_CASES), 1.6e-14 (far-off centres) and 3.8e-15
# (sigma |t| = 80 at m = 2561) of the peak.
PAIR_CASES = {
    **{name: (cfg, f1, f2, g12.points())
       for name, (cfg, (f1, f2, _), g12, _) in CONTINUUM_CASES.items()},
    "far_off_centres": (PhaseMatchConfig(-103.0, -13.0),
                        FilterSpec("gaussian", 0.21, center_offset=1.5),
                        FilterSpec("gaussian", 0.36, center_offset=0.7),
                        Grid1D(-20.0, 143.0 / 300, 301).points()),
    "walk_off_200ps_fine": (PhaseMatchConfig(-200.0, -200.0), GAUSS, GAUSS,
                            Grid1D(-20.0, 240.0 / 2560, 2561).points()),
}


def _pair_order(cfg, f1, f2):
    _, _, gamma, curvature = continuum._pair_form(cfg, f1, f2)
    return continuum._order(curvature, gamma)


@pytest.mark.parametrize("case", PAIR_CASES)
def test_continuum_pair_matches_node_pair_sum(case):
    cfg, f1, f2, tau = PAIR_CASES[case]
    vals, terms = continuum.w_pair(cfg, f1, f2, tau)
    oracle = w_pair_node_pairs(cfg, f1, f2, tau)
    k = _pair_order(cfg, f1, f2)
    assert terms == k * (k + 1) // 2
    assert np.abs(vals - oracle).max() <= 1e-13 * oracle.max()


def test_continuum_pair_exponent_matches_closed_forms():
    # alpha = s1^2 s2^2 / S and beta = (s1^2 t12 - S t32)^2 / (2 S), with
    # S = s1^2 + s2^2, whatever the centres; beta is taken as a difference
    # of terms of order of the curvature, so it is compared on that scale
    rng = np.random.default_rng(20)
    for _ in range(300):
        s1, s2 = rng.uniform(0.1, 1.0, 2)
        o1, o2 = rng.uniform(-1.0, 1.0, 2)
        t12, t32 = rng.uniform(-1000.0, 1000.0, 2)
        alpha, beta, _, curvature = continuum._pair_form(
            PhaseMatchConfig(t12, t32), FilterSpec("gaussian", s1, center_offset=o1),
            FilterSpec("gaussian", s2, center_offset=o2))
        S = s1 * s1 + s2 * s2
        assert alpha == pytest.approx(s1 * s1 * s2 * s2 / S, rel=1e-13)
        assert beta >= 0.0
        assert abs(beta - (s1 * s1 * t12 - S * t32) ** 2 / (2 * S)) <= 1e-13 * curvature


@pytest.mark.parametrize("walk_off", [200.0, 1000.0])
@pytest.mark.parametrize("f1, f2", [(GAUSS, GAUSS),
                                    (FilterSpec("gaussian", 0.3, center_offset=1.2),
                                     FilterSpec("gaussian", 0.5, center_offset=-0.8))])
def test_continuum_pair_cannot_overflow(walk_off, f1, f2):
    # every factor of every term is at most 1, so even K ~ 1000 nodes and
    # tails that underflow raise nothing
    cfg = PhaseMatchConfig(-walk_off, -0.7 * walk_off)
    tau = Grid1D(-0.2 * walk_off, 1.6 * walk_off / 200, 201).points()
    with np.errstate(over="raise", invalid="raise"):
        vals, _ = continuum.w_pair(cfg, f1, f2, tau)
    assert np.all(np.isfinite(vals)) and vals.max() > 0.0


class _CountingNumpy:
    """numpy, with the elements its exp, cos and sin calls evaluate counted."""

    def __init__(self):
        self.evaluated = 0

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in ("exp", "cos", "sin"):
            return fn

        def counted(x, *args, **kwargs):
            self.evaluated += np.size(x)
            return fn(x, *args, **kwargs)
        return counted


def test_continuum_pair_costs_k_exponentials_per_delay(monkeypatch):
    # sigma |t| = 80 at m = 2561: a double sum would take K (K + 1) / 2
    # exponentials per delay, ~32 M; the kernel quadratic form takes K per
    # delay, plus the (K, K) kernel and K phases
    cfg, f1, f2, tau = PAIR_CASES["walk_off_200ps_fine"]
    k = _pair_order(cfg, f1, f2)
    assert k > 100
    counting = _CountingNumpy()
    monkeypatch.setattr(continuum, "np", counting)
    continuum.w_pair(cfg, f1, f2, tau)
    assert 0 < counting.evaluated <= k * (len(tau) + k + 2)


def test_engine_choice_follows_the_filter_shapes():
    rect = FilterSpec("rectangular", 0.5)
    assert w_temporal_method(GAUSS, GAUSS, GAUSS) == "continuum"
    assert w_temporal_method(GAUSS, rect) == "fft"
    assert w_temporal_method(GAUSS, GAUSS, rect) == "fft"
    with pytest.raises(InvalidArgumentError, match="Gaussian"):
        g3_w_temporal(CFG, GAUSS, GAUSS, rect, QUAD, (_G, _G), method="continuum")
    with pytest.raises(InvalidArgumentError, match="Gaussian"):
        g2_w_temporal(CFG, rect, GAUSS, QUAD, _G, method="continuum")


def test_continuum_keeps_the_span_check():
    # the closed form does not sample the span, but rejects the same configs
    wide_f = FilterSpec("gaussian", 0.8)
    for call in (lambda: g2_w_temporal(CFG, wide_f, GAUSS, QUAD, _G, method="continuum"),
                 lambda: w_temporal_panels(PhaseMatchConfig(-2.0, -2.0), GAUSS, GAUSS, GAUSS,
                                           QUAD, (_G, _G), method="continuum")):
        with pytest.raises(ConfigurationError):
            call()


@pytest.mark.parametrize("name", ["g2_ghz_temporal", "g3_ghz_temporal", "g2_w_spatial",
                                  "g3_w_spatial", "g3_ghz_spatial", "g2_ghz_spatial"])
def test_continuum_is_a_w_temporal_engine_only(name):
    with pytest.raises(InvalidArgumentError, match="method"):
        WITH_METHOD[name]("continuum")


def test_g2_w_fft_transforms_one_row_of_lags(monkeypatch):
    # the delay grid costs one chirp-z of the n autocorrelation lags d >= 0,
    # not one per photon-3 node
    seen = []
    real = correlators.czt

    def spy(x, m, w, a):
        seen.append((np.shape(x), m))
        return real(x, m, w, a)

    monkeypatch.setattr(correlators, "czt", spy)
    g2_w_temporal(CFG, GAUSS, GAUSS, QUAD_1024, Grid1D(0.0, 0.25, 161))
    assert seen == [((1024,), 161)]


@pytest.mark.parametrize("grid", [Grid1D(0.0, 0.2, 1001), Grid1D(-40.0, 0.2, 1001)])
def test_g2_w_rounding_tail_reads_zero(grid, monkeypatch):
    # on a long tail the autocorrelation route leaves values that rounding
    # made negative; they read 0 and the curve still matches the oracle
    lows = []
    real = correlators._clip_rounding
    monkeypatch.setattr(correlators, "_clip_rounding",
                        lambda vals, n: lows.append(vals.min() / vals.max()) or real(vals, n))
    fast = g2_w_temporal(CFG, GAUSS, GAUSS, QUAD_1024, grid)
    direct = g2_w_temporal(CFG, GAUSS, GAUSS, QUAD_1024, grid, method="quad")
    assert -1024 * np.finfo(float).eps < lows[0] < 0.0
    assert fast.values.min() == 0.0
    np.testing.assert_allclose(fast.values, direct.values, rtol=0, atol=1e-12)


def test_clip_rounding_zeroes_only_the_rounding_floor():
    n = 100
    floor = _ROUNDING_FLOOR * n * np.finfo(float).eps * 2.0
    vals = np.array([2.0, -floor, 0.5, -0.5 * floor, 0.0])
    np.testing.assert_array_equal(_clip_rounding(vals, n), [2.0, 0.0, 0.5, 0.0, 0.0])
    with pytest.raises(DegenerateInputError):
        _clip_rounding(np.array([2.0, -1.01 * floor]), n)


def test_g2_w_tail_only_grid_rejected():
    # 300-400 ps sees only the rounding-level tail of a curve supported
    # on [0, 20] ps: a named error, not a curve of normalized noise
    with pytest.raises(DegenerateInputError):
        g2_w_temporal(CFG, GAUSS, GAUSS, QUAD_1024, Grid1D(300.0, 0.5, 201))


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
    # the closed forms against the trapezoid-rule transverse integrals; both
    # grids start below zero and the second holds no sample at rho = 0
    g, h = Grid1D(-6.0, 0.125, 97), Grid1D(-2.3, 0.07, 64)

    def intensity(amp):
        v = np.abs(amp) ** 2
        return v / v.max()

    for win in (TransverseWindow(0.7), TransverseWindow(1.6)):
        a_g, a_h = transverse_trapezoid(win, g.points()), transverse_trapezoid(win, h.points())
        expected = {
            g2_w_spatial: ((g,), intensity(a_g)),
            g3_ghz_spatial: ((g,), intensity(transverse_trapezoid(win, g.points(), kernel=2.0))),
            g3_w_spatial: (((g, h),), intensity(np.outer(a_g, a_h))),
        }
        volume = transverse_trapezoid(win, 0.0, power=2)[0].real
        for method in ("fft", "quad"):
            for correlator, (args, oracle) in expected.items():
                got = correlator(win, *args, method=method).values
                np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-13)
            assert g2_ghz_spatial(win, method=method) == pytest.approx(volume, rel=1e-13)


@pytest.mark.parametrize("correlator,grid", [(g2_w_spatial, Grid1D(-600.0, 0.25, 4801)),
                                             (g3_ghz_spatial, Grid1D(-300.0, 0.25, 2401))])
def test_spatial_curves_do_not_repeat(correlator, grid):
    # a 1024-node trapezoid rule over +-6 alpha_max repeats in rho with
    # period 2 pi / d alpha: 536 um at alpha_max = 1, half that for the
    # doubled kernel; the true curves have left 1e-12 long before 100 um
    values = correlator(WIN, grid).values
    assert values[np.abs(grid.points()) > 100.0].max() < 1e-12


def test_spatial_ghz_half_width():
    grid = Grid1D(-4.0, 0.005, 1601)
    ratio = fwhm(g3_ghz_spatial(WIN, grid)) / fwhm(g2_w_spatial(WIN, grid))
    assert ratio == pytest.approx(0.5, rel=0.01)


def test_spatial_narrows_with_transverse_bandwidth():
    grid = Grid1D(-8.0, 0.01, 1601)
    widths = [fwhm(g3_ghz_spatial(TransverseWindow(a), grid)) for a in (0.5, 1.0, 2.0)]
    assert widths[0] > widths[1] > widths[2]


def test_g2_ghz_spatial_constant():
    value = g2_ghz_spatial(WIN)
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


_G = Grid1D(0.0, 0.5, 3)
WITH_METHOD = {
    "g2_w_temporal": lambda m: g2_w_temporal(CFG, GAUSS, GAUSS, QUAD, _G, method=m),
    "g3_w_temporal": lambda m: g3_w_temporal(CFG, GAUSS, GAUSS, GAUSS, QUAD, (_G, _G), method=m),
    "g3_w_conditional": lambda m: g3_w_conditional(CFG, GAUSS, GAUSS, GAUSS, QUAD, _G, method=m),
    "w_temporal_panels": lambda m: w_temporal_panels(CFG, GAUSS, GAUSS, GAUSS, QUAD, (_G, _G),
                                                     method=m),
    "g2_ghz_temporal": lambda m: g2_ghz_temporal(CFG, GAUSS, GAUSS, QUAD, method=m),
    "g3_ghz_temporal": lambda m: g3_ghz_temporal(CFG, GAUSS, GAUSS, QUAD, _G, method=m),
    "g2_w_spatial": lambda m: g2_w_spatial(WIN, _G, method=m),
    "g3_w_spatial": lambda m: g3_w_spatial(WIN, (_G, _G), method=m),
    "g3_ghz_spatial": lambda m: g3_ghz_spatial(WIN, _G, method=m),
    "g2_ghz_spatial": lambda m: g2_ghz_spatial(WIN, method=m),
}


@pytest.mark.parametrize("name", WITH_METHOD)
def test_invalid_method_rejected(name):
    with pytest.raises(InvalidArgumentError, match="method"):
        WITH_METHOD[name]("simpson")
