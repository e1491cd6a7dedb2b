"""Frequency-bin model checks: builders, reductions, separability signatures."""

import numpy as np
import pytest

from triphoton import (
    CorrelationSurface,
    DegenerateInputError,
    FilterSpec,
    InvalidArgumentError,
    ModeGrid,
    PhaseMatchConfig,
    PureState,
    TriphotonTensor,
    build_ghz_discrete,
    build_w_discrete,
    default_config,
    fwhm,
    g2_w_temporal,
    negativity,
    normalize_to_peak,
)
from triphoton.correlators import _w_integrand
from triphoton.qubits import DensityMatrix

from oracle import purity, reduce_lost_photon

CFG = PhaseMatchConfig(-20.0, -20.0)
GAUSS = FilterSpec("gaussian", 0.4)
FLAT = FilterSpec("rectangular", 1e9)
TINY_T = PhaseMatchConfig(-1e-6, -1e-6)  # envelope is 1 to ~1e-12 on the grid

# Regression fixture: negativity of the pair state left after tracing the
# third photon, reference configuration, 8 bins over [-1.2, 1.2] rad/ps.
# Frozen from the dense eigensolver under the documented half-up bin ties,
# which on this even, symmetric grid drop the upper-edge tie off the grid.
W_NEGATIVITY_8_BINS = 0.014341692172571054


def _dense_figures(rho: DensityMatrix) -> list[float]:
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    return [negativity(rho, (0,)), purity(rho), float(np.abs(off).max())]


def _assert_matches_dense(state: TriphotonTensor, rho: DensityMatrix) -> None:
    n = state.grid.n_bins
    populated = np.diag(rho.matrix).real.reshape(n, n) > 0.0  # [a, b]
    # pair state (a, b) lies in sector a + b, heralded by lost-photon bin J0 - (a + b)
    column = state.grid.partner_offset - np.add.outer(np.arange(n), np.arange(n))
    np.testing.assert_array_equal(state.pair_sector_sizes(),
                                  np.bincount(column[populated], minlength=n))
    np.testing.assert_allclose(
        [state.pair_negativity(), state.pair_purity(), state.pair_max_offdiagonal()],
        _dense_figures(rho), rtol=0, atol=1e-12)


def test_mode_grid_basics():
    g = ModeGrid(5, -1.0, 1.0)
    np.testing.assert_allclose(g.centers(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.bin_width == pytest.approx(0.5)
    # the last three leave the bin width or the partner offset J0 non-finite
    for bad in ((1, -1.0, 1.0), (4, 1.0, -1.0), (4, 0.0, 0.0),
                (3, -1e308, 1e308), (2, -1e308, 1e307), (3, 0.0, 5e-324)):
        with pytest.raises(InvalidArgumentError):
            ModeGrid(*bad)


def _nearest_bin(grid: ModeGrid, nu: np.ndarray) -> np.ndarray:
    """Per-entry rounding of a frequency to its bin, -1 off the grid:
    half-bin ties go to the higher bin, with a 1e-9 bin guard."""
    idx = np.floor((nu - grid.nu_min) / grid.bin_width + 0.5 + 1e-9).astype(int)
    return np.where((idx >= 0) & (idx < grid.n_bins), idx, -1)


def test_partner_bins_match_per_entry_rounding():
    # the grid's one offset J0 must give every W partner -(nu_i + nu_k)
    # and every GHZ lone photon -2 nu_i the bin that rounding each
    # frequency on its own gives; on even symmetric grids every entry is
    # a half-bin tie
    rng = np.random.default_rng(13)
    grids = [ModeGrid(n, *span) for span in ((-1.2, 1.2), (-0.4, 0.4), (-1.0, 1.0), (-1.3, 0.9))
             for n in range(2, 130)]
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(-3.0, 3.0, size=2))
        grids.append(ModeGrid(int(rng.integers(2, 130)), lo, hi))
    for grid in grids:
        nu = grid.centers()
        partner = grid.partner_bins()
        np.testing.assert_array_equal(partner, _nearest_bin(grid, -(nu[:, None] + nu[None, :])))
        np.testing.assert_array_equal(np.diag(partner), _nearest_bin(grid, -2.0 * nu))


def test_nearest_bin_edges():
    # centers -1 and 1, width 2: the partner of bins (0, 0) is exactly half
    # a bin above the grid and falls off; that of bins (1, 1) is exactly
    # half a bin below it and lands on bin 0
    grid = ModeGrid(2, -1.0, 1.0)
    assert grid.partner_offset == 2
    np.testing.assert_array_equal(grid.partner_bins(), [[-1, 1], [1, 0]])


def test_nearest_bin_even_grid_conservation_is_linear():
    # every conservation frequency on an even symmetric grid is a tie;
    # each of the 8 sector offsets must map to its own partner bin
    grid = ModeGrid(8, -1.2, 1.2)
    partner = grid.partner_bins()
    on = partner >= 0
    i_plus_k = np.add.outer(np.arange(8), np.arange(8))
    np.testing.assert_array_equal(on, (i_plus_k >= 4) & (i_plus_k <= 11))
    np.testing.assert_array_equal(partner[on], 11 - i_plus_k[on])


def test_build_w_uniform_amplitudes():
    # tiny walk-off and flat filters leave only the conservation mask
    grid = ModeGrid(3, -1.0, 1.0)
    state = build_w_discrete(TINY_T, (FLAT, FLAT, FLAT), grid)
    mags = np.abs(state.amplitudes)
    live = mags > 0
    # |nu1 + nu3| <= 1.5 keeps 7 of the 9 combinations
    assert live.sum() == 7
    assert not live[0, 0] and not live[2, 2]
    np.testing.assert_allclose(mags[live], mags[live][0], rtol=1e-12)
    assert np.sum(mags**2) == pytest.approx(1.0, abs=1e-12)


def test_build_w_off_grid_zeroed():
    grid = ModeGrid(4, -1.0, 1.0)
    state = build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid)
    off = grid.partner_bins() < 0
    assert np.all(state.amplitudes[off] == 0.0)
    assert off.any()


def test_build_w_degenerate_grid_rejected():
    # a filter whose passband misses every conservation frequency zeroes the state
    far = FilterSpec("rectangular", 0.01, center_offset=50.0)
    with pytest.raises(DegenerateInputError):
        build_w_discrete(CFG, (GAUSS, far, GAUSS), ModeGrid(4, -1.0, 1.0))


def test_build_ghz_single_center_bin():
    grid = ModeGrid(3, -1.0, 1.0)
    state = build_ghz_discrete(TINY_T, (FLAT, FLAT), grid)
    # -2 nu stays on the grid only for the center bin
    np.testing.assert_allclose(np.abs(state.amplitudes), np.diag([0.0, 1.0, 0.0]), atol=1e-12)
    np.testing.assert_array_equal(np.diag(grid.partner_bins()), [-1, 1, -1])


def test_build_ghz_mirror_symmetry():
    grid = ModeGrid(9, -1.2, 1.2)
    state = build_ghz_discrete(CFG, (GAUSS, GAUSS), grid)
    # both pair photons share a bin: only the diagonal is populated
    mags = np.diag(np.abs(state.amplitudes))
    np.testing.assert_array_equal(np.abs(state.amplitudes), np.diag(mags))
    np.testing.assert_allclose(mags, mags[::-1], atol=1e-14)
    assert np.sum(mags**2) == pytest.approx(1.0, abs=1e-12)


def test_reduce_w_single_slice_pure():
    grid = ModeGrid(2, -1.0, 1.0)
    amps = np.zeros((2, 2), dtype=complex)
    amps[0, 1] = np.sqrt(0.4)  # partner bin 1
    amps[1, 1] = np.sqrt(0.6)  # partner bin 0
    state = TriphotonTensor(amps, grid)
    rho = reduce_lost_photon(state)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    # the slice is itself a two-mode pure state; negativities must match
    chi = np.zeros(4, dtype=complex)
    chi[0 * 2 + 1] = amps[0, 1]
    chi[1 * 2 + 0] = amps[1, 1]
    expected = negativity(PureState(chi, (2, 2)).density(), (0,))
    assert negativity(rho, (0,)) == pytest.approx(expected, abs=1e-12)
    _assert_matches_dense(state, rho)
    assert state.pair_purity() == pytest.approx(1.0, abs=1e-12)
    assert state.pair_negativity() == pytest.approx(expected, abs=1e-12)


def test_reduce_w_conservation_alone_entangles():
    grid = ModeGrid(6, -1.0, 1.0)
    state = build_w_discrete(TINY_T, (FLAT, FLAT, FLAT), grid)
    rho = reduce_lost_photon(state)
    assert negativity(rho, (0,)) > 1e-6


def test_reduce_w_regression_value():
    grid = ModeGrid(8, -1.2, 1.2)
    state = build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid)
    value = negativity(reduce_lost_photon(state), (0,))
    assert value == pytest.approx(W_NEGATIVITY_8_BINS, rel=1e-9)
    assert value > 1e-6


def test_reduce_w_global_phase_invariance():
    grid = ModeGrid(5, -1.0, 1.0)
    state = build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid)
    rotated = TriphotonTensor(state.amplitudes * np.exp(0.7j), grid)
    a = reduce_lost_photon(state).matrix
    b = reduce_lost_photon(rotated).matrix
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_reduce_ghz_diagonal_and_separable():
    for n in (4, 8, 12):
        grid = ModeGrid(n, -1.2, 1.2)
        state = build_ghz_discrete(CFG, (GAUSS, GAUSS), grid)
        rho = reduce_lost_photon(state)
        off = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.abs(off).max() < 1e-14
        assert negativity(rho, (0,)) <= 1e-10


def test_reduce_ghz_single_bin_pure_product():
    grid = ModeGrid(3, -1.0, 1.0)
    state = build_ghz_discrete(TINY_T, (FLAT, FLAT), grid)
    rho = reduce_lost_photon(state)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    assert negativity(rho, (0,)) <= 1e-12


def test_purity_values():
    grid = ModeGrid(4, -1.0, 1.0)  # partner 5 - (i + k)
    # lost-photon bin k heralds the product |3 - k, 2> with weight 1/4:
    # a uniform diagonal mixture over 4 pair states has purity 1/4
    amps = np.fliplr(np.diag(np.full(4, 0.5, dtype=complex)))
    state = TriphotonTensor(amps, grid)
    rho = reduce_lost_photon(state)
    assert purity(rho) == pytest.approx(0.25, abs=1e-12)
    assert state.pair_purity() == pytest.approx(0.25, abs=1e-12)
    d = 6
    maximally_mixed = DensityMatrix(np.eye(d, dtype=complex) / d, (2, 3))
    assert purity(maximally_mixed) == pytest.approx(1.0 / d, abs=1e-12)


def test_separability_signatures_across_grid_sizes():
    # the coarsest grids only resolve the surviving entanglement when the
    # span hugs the filter passband, so two spans are exercised
    for n in range(2, 13):
        grid = ModeGrid(n, -0.4, 0.4)
        w_red = reduce_lost_photon(build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid))
        ghz_red = reduce_lost_photon(build_ghz_discrete(CFG, (GAUSS, GAUSS), grid))
        assert negativity(w_red, (0,)) > 1e-6
        assert negativity(ghz_red, (0,)) <= 1e-10
    for n in (4, 8, 12):
        grid = ModeGrid(n, -1.2, 1.2)
        w_red = reduce_lost_photon(build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid))
        ghz_red = reduce_lost_photon(build_ghz_discrete(CFG, (GAUSS, GAUSS), grid))
        assert negativity(w_red, (0,)) > 1e-6
        assert negativity(ghz_red, (0,)) <= 1e-10


def test_negativity_convergence_smoke():
    # with bins fine enough to resolve the envelope, refining the grid
    # moves the negativity monotonically with shrinking steps
    vals = []
    for n in (4, 8, 16):
        grid = ModeGrid(n, -0.8, 0.8)
        vals.append(negativity(reduce_lost_photon(
            build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid)), (0,)))
    assert vals[0] < vals[1] < vals[2]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


def test_tensor_validation():
    grid = ModeGrid(2, -1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        TriphotonTensor(np.zeros((3, 3), dtype=complex), grid)
    # the partner of bins (0, 0) falls off this grid
    off_grid_amp = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(InvalidArgumentError, match="off-grid"):
        TriphotonTensor(off_grid_amp, grid)
    amps = np.zeros((2, 2), dtype=complex)
    amps[:, 1] = np.sqrt(0.5)  # (|0,1> + |1,0>)/sqrt(2)
    assert TriphotonTensor(amps, grid).pair_purity() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidArgumentError, match="norm"):
        TriphotonTensor(amps * 2.0, grid)
    for bad in (amps[0], np.zeros((2, 2, 2)), amps[:1], amps[:, :1]):
        with pytest.raises(InvalidArgumentError, match="shape"):
            TriphotonTensor(bad, grid)


def test_tensor_rejects_nan():
    # a NaN norm must fail the norm check, not pass it: the tensor would
    # otherwise report negativity 0, "separable"
    grid = ModeGrid(2, -0.5, 1.0)
    amps = np.zeros((2, 2), dtype=complex)
    amps[0, 0] = np.nan   # partner bin 1 is on the grid
    with pytest.raises(InvalidArgumentError, match="norm"):
        TriphotonTensor(amps, grid)


@pytest.mark.parametrize("span", [(-1.2, 1.2), (-0.4, 0.4), (-1.0, 1.0), (-1.3, 0.9)])
def test_sector_path_matches_dense_oracle(span):
    for n in range(2, 17):
        grid = ModeGrid(n, *span)
        w_state = build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid)
        ghz_state = build_ghz_discrete(CFG, (GAUSS, GAUSS), grid)
        _assert_matches_dense(w_state, reduce_lost_photon(w_state))
        ghz_red = reduce_lost_photon(ghz_state)
        _assert_matches_dense(ghz_state, ghz_red)
        # losing one pair photon leaves sum_i |B_i|^2 |i, p_i><i, p_i|
        b = np.diag(ghz_state.amplitudes)
        p = np.diag(grid.partner_bins())
        on = p >= 0
        expected = np.zeros(n * n)
        expected[np.flatnonzero(on) * n + p[on]] = np.abs(b[on]) ** 2
        np.testing.assert_allclose(ghz_red.matrix, np.diag(expected), rtol=0, atol=1e-15)


def test_sector_path_matches_dense_on_random_tensors():
    # random tensors on grids whose random nu_min sets a random offset J0
    # in [0, 3n - 3], every offset that leaves a partner on the grid, with
    # random phases and a random set of dropped entries
    rng = np.random.default_rng(7)
    entangled = 0
    for n in range(2, 17):
        h = 2.0 / (n - 1)
        nu_min = -h * rng.uniform(-1 / 6, n - 5 / 6)
        grid = ModeGrid(n, nu_min, nu_min + 2.0)
        assert 0 <= grid.partner_offset <= 3 * n - 3
        live = np.zeros((n, n), dtype=bool)
        while not live.any():
            live = (grid.partner_bins() >= 0) & (rng.random((n, n)) < 0.8)
        amps = rng.rayleigh(size=(n, n)) * np.exp(2j * np.pi * rng.random((n, n))) * live
        state = TriphotonTensor(amps / np.linalg.norm(amps), grid)
        _assert_matches_dense(state, reduce_lost_photon(state))
        entangled += state.pair_negativity() > 1e-3
    assert entangled >= 10


def test_negativity_eigensolves_only_live_rows(monkeypatch):
    # at n = 33 each degenerate-pair partial-transpose block has at most two
    # live rows and is solved on those alone; every three-mode block is
    # fully live, so the three-mode state stays one batched eigensolve
    shapes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: shapes.append(x.shape) or real(x))
    grid = ModeGrid(33, -1.2, 1.2)
    assert build_ghz_discrete(CFG, (GAUSS, GAUSS), grid).pair_negativity() == 0.0
    assert shapes and max(shape[-1] for shape in shapes) <= 2
    shapes.clear()
    assert build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid).pair_negativity() > 0.1
    assert shapes == [(33, 33, 33)]


def test_sector_negativity_continuum_limit():
    # default grid and filters: refining the bins settles the surviving
    # pair entanglement near 0.12767 while the degenerate pair stays
    # exactly separable
    w_negs = []
    for n in (17, 33, 65):
        grid = ModeGrid(n, -1.2, 1.2)
        w_negs.append(build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid).pair_negativity())
        assert build_ghz_discrete(CFG, (GAUSS, GAUSS), grid).pair_negativity() == 0.0
    n17, n33, n65 = w_negs
    assert abs(n65 - n33) < 1e-5 * n33
    assert n33 == pytest.approx(0.12767, rel=1e-4)
    assert abs(n17 - n33) < 2e-3 * n33


@pytest.mark.parametrize("f2", [FilterSpec("gaussian", 0.4, center_offset=0.3),
                                FilterSpec("rectangular", 0.5, center_offset=0.3)])
def test_w_integrand_matches_discrete_amplitudes(f2):
    # photon 2 sits at -(nu1 + nu3) in both models, so on the bin centres
    # the continuous integrand is the discrete amplitude up to normalization
    grid = ModeGrid(9, -1.2, 1.2)
    state = build_w_discrete(CFG, (GAUSS, f2, GAUSS), grid)
    F = _w_integrand(CFG, GAUSS, f2, GAUSS, grid.centers())
    on = grid.partner_bins() >= 0
    scale = np.sqrt(np.sum(np.abs(F[on]) ** 2))
    np.testing.assert_allclose(F[on] / scale, state.amplitudes[on], rtol=0, atol=1e-14)


def test_discrete_pair_g2_matches_continuum():
    # with arm 3 unfiltered, the pair G2 of the discrete state,
    # sum_k |sum_i A[i, k] exp(i nu_i tau)|^2, is the continuum g2_w_temporal
    # once the span holds photon 2's filter (6 sigma) and the delay period
    # 2 pi / dnu (84 ps at n = 65) keeps the repeated copy off the 40 ps grid
    cfg = default_config()
    taus = cfg.grid("tau12_ps")
    grid = ModeGrid(65, -2.4, 2.4)
    amps = build_w_discrete(CFG, (GAUSS, GAUSS, FLAT), grid).amplitudes
    heralded = np.exp(1j * np.outer(taus.points(), grid.centers())) @ amps
    values = np.sum(heralded.real**2 + heralded.imag**2, axis=1)
    discrete = normalize_to_peak(CorrelationSurface((taus,), values))
    for method in ("fft", "quad"):
        continuum = normalize_to_peak(g2_w_temporal(CFG, GAUSS, GAUSS, cfg.quadrature, taus,
                                                    method=method))
        assert np.abs(discrete.values - continuum.values).max() < 1e-10
        assert fwhm(discrete) == pytest.approx(fwhm(continuum), rel=1e-9)
    assert fwhm(discrete) == pytest.approx(17.2484423, abs=1e-7)
