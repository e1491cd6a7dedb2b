"""Frequency-bin model checks: builders, reductions, separability signatures."""

import numpy as np
import pytest

from triphoton import (
    DegenerateInputError,
    FilterSpec,
    InvalidArgumentError,
    ModeGrid,
    PhaseMatchConfig,
    PureState,
    TriphotonTensor,
    build_ghz_discrete,
    build_w_discrete,
    negativity,
    pair_sectors,
    purity,
    reduce_lost_photon,
)
from triphoton.correlators import _w_integrand
from triphoton.modes import SectorDensity
from triphoton.qubits import DensityMatrix

CFG = PhaseMatchConfig(-20.0, -20.0)
GAUSS = FilterSpec("gaussian", 0.4)
FLAT = FilterSpec("rectangular", 1e9)
TINY_T = PhaseMatchConfig(-1e-6, -1e-6)  # envelope is 1 to ~1e-12 on the grid

# Regression fixture: negativity of the pair state left after tracing the
# third photon, reference configuration, 8 bins over [-1.2, 1.2] rad/ps.
# Frozen from the dense eigensolver under the documented half-up bin ties,
# which on this even, symmetric grid drop the upper-edge tie off the grid.
W_NEGATIVITY_8_BINS = 0.014341692172571054


def _dense_from_sectors(red: SectorDensity) -> np.ndarray:
    """The n^2 x n^2 matrix the cyclic sector blocks stand for."""
    n = red.blocks.shape[0]
    rho = np.zeros((n * n, n * n), dtype=complex)
    a = np.arange(n)
    for t in range(n):
        flat = a * n + (t - a) % n
        rho[np.ix_(flat, flat)] = red.blocks[t]
    return rho


def _dense_figures(rho: DensityMatrix) -> list[float]:
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    return [negativity(rho, (0,)), purity(rho), float(np.abs(off).max())]


def _assert_matches_dense(red: SectorDensity, rho: DensityMatrix) -> None:
    np.testing.assert_allclose(_dense_from_sectors(red), rho.matrix, rtol=0, atol=1e-15)
    n = red.blocks.shape[0]
    populated = np.diag(rho.matrix).real.reshape(n, n) > 0.0  # [a, b]
    sector = np.add.outer(np.arange(n), np.arange(n))
    np.testing.assert_array_equal(red.block_sizes(),
                                  np.bincount(sector[populated], minlength=2 * n - 1))
    np.testing.assert_allclose([red.negativity(), red.purity(), red.max_offdiagonal()],
                               _dense_figures(rho), rtol=0, atol=1e-12)


def test_mode_grid_basics():
    g = ModeGrid(5, -1.0, 1.0)
    np.testing.assert_allclose(g.centers(), [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert g.bin_width == pytest.approx(0.5)
    for bad in ((1, -1.0, 1.0), (4, 1.0, -1.0), (4, 0.0, 0.0)):
        with pytest.raises(InvalidArgumentError):
            ModeGrid(*bad)


def test_nearest_bin_edges():
    g = ModeGrid(3, -1.0, 1.0)  # centers -1, 0, 1, width 1
    idx, on = g.nearest_bin(np.array([-1.5, -1.49, 0.2, 1.5, 1.51, -2.0, 0.5, 1.49]))
    # half-bin ties round up at both edges: exactly half a bin below the
    # grid lands on bin 0, exactly half a bin above it falls off, and the
    # interior tie 0.5 goes to bin 2
    np.testing.assert_array_equal(on, [True, True, True, False, False, False, True, True])
    np.testing.assert_array_equal(idx, [0, 0, 1, -1, -1, -1, 2, 2])


def test_nearest_bin_even_grid_conservation_is_linear():
    # every conservation frequency on an even symmetric grid is a tie;
    # each of the 8 sector offsets must map to its own partner bin
    grid = ModeGrid(8, -1.2, 1.2)
    nu = grid.centers()
    idx, on = grid.nearest_bin(-(nu[:, None] + nu[None, :]))
    i_plus_k = np.add.outer(np.arange(8), np.arange(8))
    np.testing.assert_array_equal(on, (i_plus_k >= 4) & (i_plus_k <= 11))
    np.testing.assert_array_equal(idx[on], 11 - i_plus_k[on])


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
    off = state.partner_bins < 0
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
    np.testing.assert_array_equal(state.partner_bins, [[-1, -1, -1], [-1, 1, -1], [-1, -1, -1]])


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
    amps[0, 0] = np.sqrt(0.4)
    amps[1, 0] = np.sqrt(0.6)
    partner = np.array([[1, -1], [0, -1]])
    state = TriphotonTensor(amps, partner, grid)
    rho = reduce_lost_photon(state)
    assert purity(rho) == pytest.approx(1.0, abs=1e-12)
    # the slice is itself a two-mode pure state; negativities must match
    chi = np.zeros(4, dtype=complex)
    chi[0 * 2 + 1] = amps[0, 0]
    chi[1 * 2 + 0] = amps[1, 0]
    expected = negativity(PureState(chi, (2, 2)).density(), (0,))
    assert negativity(rho, (0,)) == pytest.approx(expected, abs=1e-12)
    sectors = pair_sectors(state)
    _assert_matches_dense(sectors, rho)
    assert sectors.purity() == pytest.approx(1.0, abs=1e-12)
    assert sectors.negativity() == pytest.approx(expected, abs=1e-12)


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
    rotated = TriphotonTensor(state.amplitudes * np.exp(0.7j),
                              state.partner_bins, grid)
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
    grid = ModeGrid(4, -1.0, 1.0)
    # uniform diagonal mixture over n bins has purity 1/n
    amps = np.diag(np.full(4, 0.5, dtype=complex))
    partner = np.where(np.eye(4, dtype=bool), [[3], [2], [1], [0]], -1)
    state = TriphotonTensor(amps, partner, grid)
    rho = reduce_lost_photon(state)
    assert purity(rho) == pytest.approx(0.25, abs=1e-12)
    # all four pairs share sector i + partner = 3
    sectors = pair_sectors(state)
    _assert_matches_dense(sectors, rho)
    assert sectors.purity() == pytest.approx(0.25, abs=1e-12)
    assert sectors.block_sizes().tolist() == [0, 0, 0, 4, 0, 0, 0]
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
        TriphotonTensor(np.zeros((3, 3), dtype=complex),
                        np.zeros((3, 3), dtype=int), grid)
    amps = np.zeros((2, 2), dtype=complex)
    amps[0, 0] = 1.0
    bad_partner = np.full((2, 2), 5)
    with pytest.raises(InvalidArgumentError):
        TriphotonTensor(amps, bad_partner, grid)
    off_grid_amp = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    partner = np.array([[-1, 0], [0, 0]])
    with pytest.raises(InvalidArgumentError):
        TriphotonTensor(off_grid_amp, partner, grid)


@pytest.mark.parametrize("span", [(-1.2, 1.2), (-0.4, 0.4), (-1.0, 1.0), (-1.3, 0.9)])
def test_sector_path_matches_dense_oracle(span):
    for n in range(2, 17):
        grid = ModeGrid(n, *span)
        w_state = build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid)
        ghz_state = build_ghz_discrete(CFG, (GAUSS, GAUSS), grid)
        _assert_matches_dense(pair_sectors(w_state), reduce_lost_photon(w_state))
        ghz_red = reduce_lost_photon(ghz_state)
        _assert_matches_dense(pair_sectors(ghz_state), ghz_red)
        # losing one pair photon leaves sum_i |B_i|^2 |i, p_i><i, p_i|
        b = np.diag(ghz_state.amplitudes)
        p = np.diag(ghz_state.partner_bins)
        on = p >= 0
        expected = np.zeros(n * n)
        expected[np.flatnonzero(on) * n + p[on]] = np.abs(b[on]) ** 2
        np.testing.assert_allclose(ghz_red.matrix, np.diag(expected), rtol=0, atol=1e-15)


def test_sector_w_column_spanning_two_sectors_rejected():
    grid = ModeGrid(3, -1.0, 1.0)
    amps = np.zeros((3, 3), dtype=complex)
    amps[0, 0] = amps[1, 0] = np.sqrt(0.5)
    # i + partner is 1 for the first entry and 2 for the second
    partner = np.array([[1, -1, -1], [1, -1, -1], [-1, -1, -1]])
    state = TriphotonTensor(amps, partner, grid)
    reduce_lost_photon(state)  # the dense path has no sector structure to break
    with pytest.raises(InvalidArgumentError, match="sectors"):
        pair_sectors(state)


def test_sector_density_validation():
    blocks = np.zeros((2, 2, 2), dtype=complex)
    blocks[1] = [[0.5, 0.5], [0.5, 0.5]]  # (|0,1> + |1,0>)/sqrt(2)
    assert SectorDensity(blocks).purity() == pytest.approx(1.0, abs=1e-15)
    non_hermitian = blocks.copy()
    non_hermitian[1, 0, 1] = 0.5j
    negative = blocks.copy()
    negative[1] = [[0.5, 0.7], [0.7, 0.5]]
    for bad in (non_hermitian, negative, blocks * 2.0, blocks[:1], blocks[:, :, :1],
                np.zeros((3, 2, 2)), blocks[0]):
        with pytest.raises(InvalidArgumentError):
            SectorDensity(bad)


def test_sector_density_cyclic_blocks_match_dense():
    # blocks that also couple sector t to sector t + n (which conservation
    # never populates) are still exact: every entry is a matrix element of
    # a state block diagonal in (a + b) mod n
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        x = rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))
        blocks = x @ x.conj().transpose(0, 2, 1)
        red = SectorDensity(blocks / np.trace(blocks, axis1=1, axis2=2).sum())
        rho = DensityMatrix(_dense_from_sectors(red), (n, n))
        assert red.negativity() > 1e-3
        _assert_matches_dense(red, rho)


def test_sector_negativity_continuum_limit():
    # default grid and filters: refining the bins settles the surviving
    # pair entanglement near 0.12767 while the degenerate pair stays
    # exactly separable
    w_negs = []
    for n in (17, 33, 65):
        grid = ModeGrid(n, -1.2, 1.2)
        w_negs.append(pair_sectors(build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid)).negativity())
        assert pair_sectors(build_ghz_discrete(CFG, (GAUSS, GAUSS), grid)).negativity() == 0.0
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
    on = state.partner_bins >= 0
    scale = np.sqrt(np.sum(np.abs(F[on]) ** 2))
    np.testing.assert_allclose(F[on] / scale, state.amplitudes[on], rtol=0, atol=1e-14)
