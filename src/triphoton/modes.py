"""Discrete frequency-bin models of the two triphoton states.

A coarse frequency grid turns each state into a small amplitude tensor,
which makes the loss of one photon an exact partial trace on a finite
Hilbert space. Both states share one form: an amplitude A[i, k] over the
bins of detected photon 1 (rows) and of the lost photon (columns), with
frequency conservation fixing the bin of the remaining partner photon.
For the three-mode state the lost photon is photon 3 and A is a joint
spectral amplitude. For the degenerate-pair state the lost photon is the
second pair photon, which shares photon 1's bin, so A is diagonal.
Detection filters are folded into the amplitudes, so the discrete state
and the continuous correlators describe the same post-filter physics.

Frequency conservation also fixes the pair's sector: every pair vector
heralded by a detection of the lost photon lies on one anti-diagonal
a + b = s of the (photon-1 bin, partner bin) plane. The reduced pair
state is therefore block diagonal in s, and its partial transpose in
the difference a - b. Sectors s and s + n share no photon-1 bin, so
folding s modulo n packs the state into n full blocks of n x n, and the
partial transpose likewise into n blocks indexed by (a - b) mod n.
``SectorDensity`` stores and evaluates the reduced states in that form,
at O(n^4) cost instead of the O(n^6) eigensolve of the dense n^2 x n^2
``DensityMatrix`` that ``reduce_lost_photon`` builds; the dense reducer
stays as the reference implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidArgumentError
from .qubits import EIGENVALUE_FLOOR, HERMITICITY_TOL, TRACE_TOL, DensityMatrix
from .spectra import (
    FilterSpec,
    PhaseMatchConfig,
    detuning_ghz,
    detuning_w,
    filter_eval,
    phi,
)


@dataclass(frozen=True)
class ModeGrid:
    """Uniform frequency bins with centers from nu_min to nu_max (rad/ps)."""

    n_bins: int
    nu_min: float
    nu_max: float

    def __post_init__(self) -> None:
        if int(self.n_bins) != self.n_bins or self.n_bins < 2:
            raise InvalidArgumentError(f"n_bins must be an integer >= 2, got {self.n_bins!r}")
        if not (math.isfinite(self.nu_min) and math.isfinite(self.nu_max)):
            raise InvalidArgumentError("mode grid bounds must be finite")
        if not self.nu_max > self.nu_min:
            raise InvalidArgumentError(f"nu_max must exceed nu_min, got [{self.nu_min}, {self.nu_max}]")
        object.__setattr__(self, "n_bins", int(self.n_bins))
        object.__setattr__(self, "nu_min", float(self.nu_min))
        object.__setattr__(self, "nu_max", float(self.nu_max))

    def centers(self) -> np.ndarray:
        return np.linspace(self.nu_min, self.nu_max, self.n_bins)

    @property
    def bin_width(self) -> float:
        return (self.nu_max - self.nu_min) / (self.n_bins - 1)

    def nearest_bin(self, nu) -> tuple[np.ndarray, np.ndarray]:
        """Nearest bin index and an on-grid mask.

        Half-bin ties round toward the higher bin at both edges and in
        between, with a relative guard so the choice does not flip on
        last-ulp noise in the division (on symmetric grids with an even
        bin count, every conservation frequency is such a tie). A
        frequency whose rounded index falls outside [0, n_bins) is
        off-grid: exactly half a bin below nu_min rounds to bin 0, exactly
        half a bin above nu_max rounds off the grid. The index is thus
        linear in the frequency on the whole grid, so conservation bins
        satisfy partner = J0 - (i + k) for one offset J0.
        """
        arr = np.asarray(nu, dtype=float)
        x = (arr - self.nu_min) / self.bin_width
        idx = np.floor(x + 0.5 + 1e-9)
        on = (idx >= 0) & (idx < self.n_bins)
        return np.where(on, idx, -1).astype(int), on


@dataclass(frozen=True)
class TriphotonTensor:
    """Discretized joint spectral amplitude of one triphoton state.

    ``amplitudes`` is A[i, k] over the bins of detected photon 1 (rows)
    and of the lost photon (columns); ``partner_bins`` holds the
    conservation bin of the remaining partner photon. Off-grid
    combinations carry amplitude 0 and partner bin -1. The amplitudes
    are normalized to unit norm.
    """

    amplitudes: np.ndarray
    partner_bins: np.ndarray
    grid: ModeGrid

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        bins = np.asarray(self.partner_bins, dtype=int)
        n = self.grid.n_bins
        if amps.shape != (n, n) or bins.shape != (n, n):
            raise InvalidArgumentError(f"amplitude shape {amps.shape} does not match grid {(n, n)}")
        if np.any((bins < -1) | (bins >= n)):
            raise InvalidArgumentError("partner bins must lie on the grid or be -1")
        if np.any((bins < 0) & (amps != 0)):
            raise InvalidArgumentError("off-grid entries must carry zero amplitude")
        norm2 = float(np.sum(amps.real**2 + amps.imag**2))
        if abs(norm2 - 1.0) > 1e-12:
            raise InvalidArgumentError(f"norm^2 deviates from 1 by {abs(norm2 - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "partner_bins", bins)


def _normalize(amps: np.ndarray) -> np.ndarray:
    norm2 = float(np.sum(amps.real**2 + amps.imag**2))
    if norm2 <= 0.0:
        raise DegenerateInputError("all amplitudes are zero; the grid misses the state's support")
    return amps / math.sqrt(norm2)


def build_w_discrete(cfg: PhaseMatchConfig, filters: tuple[FilterSpec, FilterSpec, FilterSpec],
                     grid: ModeGrid) -> TriphotonTensor:
    """Three-mode state on the bin grid.

    A[i, k] carries the filters of all three arms and the longitudinal
    envelope; photon 2 sits in the bin nearest to -nu1 - nu3, and
    combinations whose conservation frequency falls off the grid are
    dropped before normalization.
    """
    f1, f2, f3 = filters
    nu = grid.centers()
    nu2 = -(nu[:, None] + nu[None, :])
    partner, on = grid.nearest_bin(nu2)
    amps = (filter_eval(f1, nu)[:, None]
            * filter_eval(f3, nu)[None, :]
            * filter_eval(f2, nu2)
            * phi(detuning_w(nu[:, None], nu[None, :], cfg)))
    amps = np.where(on, amps, 0.0)
    return TriphotonTensor(_normalize(amps), partner, grid)


def build_ghz_discrete(cfg: PhaseMatchConfig, filters: tuple[FilterSpec, FilterSpec],
                       grid: ModeGrid) -> TriphotonTensor:
    """Degenerate-pair state on the bin grid.

    Both pair photons occupy bin i (the state is single-mode degenerate
    by construction), so A[i, k] = B[i] delta_ik: the pair filter enters
    B squared, and the lone photon sits in the bin nearest to -2 nu1,
    the partner bin on the diagonal (-1 off it).
    """
    f1, f2 = filters
    nu = grid.centers()
    nu2 = -2.0 * nu
    partner, on = grid.nearest_bin(nu2)
    amps = (filter_eval(f1, nu) ** 2
            * filter_eval(f2, nu2)
            * phi(detuning_ghz(nu, cfg)))
    amps = _normalize(np.where(on, amps, 0.0))
    pair = np.eye(grid.n_bins, dtype=bool)
    return TriphotonTensor(np.diag(amps), np.where(pair, partner[:, None], -1), grid)


def reduce_lost_photon(state: TriphotonTensor) -> DensityMatrix:
    """Trace the lost photon out of a triphoton state.

    Each lost-photon bin k heralds the pair vector
    |chi_k> = sum_i A[i, k] |i>|j(i,k)>; the reduction is the mixture of
    their projectors over the n*n pair space. A column with several
    nonzero entries heralds an entangled vector; the diagonal
    degenerate-pair tensor heralds the product |k>|j(k,k)> from every
    column, so its reduction is a diagonal, separable mixture.
    """
    n = state.grid.n_bins
    rho = np.zeros((n * n, n * n), dtype=complex)
    for k in range(n):
        col = state.amplitudes[:, k]
        bins = state.partner_bins[:, k]
        live = bins >= 0
        if not np.any(live):
            continue
        chi = np.zeros(n * n, dtype=complex)
        flat = np.arange(n)[live] * n + bins[live]
        np.add.at(chi, flat, col[live])
        rho += np.outer(chi, chi.conj())
    return DensityMatrix(rho, (n, n))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2): 1 for pure states, 1/d for the maximally mixed state."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def _eigvalsh_nonzero(blocks: np.ndarray) -> np.ndarray:
    """Eigenvalues of the blocks of a stack that are not all zero; an
    all-zero block adds only zero eigenvalues."""
    return np.linalg.eigvalsh(blocks[np.any(blocks != 0, axis=(1, 2))])


@dataclass(frozen=True)
class SectorDensity:
    """Two-photon density matrix stored in cyclic conservation sectors.

    ``blocks[t, a, a']`` is <a, (t-a) mod n| rho |a', (t-a') mod n> on an
    n-bin grid, shape (n, n, n): every entry is a matrix element between
    two pair basis states, and every pair state (a, b) appears once, in
    block t = (a + b) mod n. Conservation confines rho to the sectors
    a + b = s; block t holds sector t on rows a <= t and sector t + n on
    rows a > t, so the blocks are the whole state. Validated like
    ``DensityMatrix``: Hermitian, unit trace, and no block eigenvalue
    below the PSD floor.
    """

    blocks: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.blocks, dtype=complex)
        n = len(r) if r.ndim == 3 else 0
        if n < 1 or r.shape != (n, n, n):
            raise InvalidArgumentError(f"sector blocks must have shape (n, n, n), got {r.shape}")
        herm = float(np.max(np.abs(r - r.conj().transpose(0, 2, 1))))
        if herm > HERMITICITY_TOL:
            raise InvalidArgumentError(f"sector blocks are not Hermitian (max deviation {herm:.3e})")
        tr = complex(np.trace(r, axis1=1, axis2=2).sum())
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidArgumentError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        lo = float(_eigvalsh_nonzero(r).min())
        if lo < EIGENVALUE_FLOOR:
            raise InvalidArgumentError(f"a sector block has eigenvalue {lo:.3e} below the PSD floor")
        object.__setattr__(self, "blocks", r)

    def purity(self) -> float:
        """tr(rho^2), the squared Frobenius norm summed over the blocks."""
        r = self.blocks
        return float(np.sum(r.real**2 + r.imag**2))

    def negativity(self) -> float:
        """Sum of |negative eigenvalues| of the partial transpose across
        the photon cut, as ``qubits.negativity(rho, (0,))`` on the dense
        matrix.

        Transposing photon 1 maps <a, b|rho|a', b'> to <a', b|rho|a, b'>,
        which is zero unless a - b = a' - b'. The partial transpose is
        therefore block diagonal in u = (a - b) mod n, with
        B_u[a, a'] = R[(a + a' - u) mod n, a', a]; one gather and one
        batched eigensolve cover all n blocks.
        """
        n = self.blocks.shape[0]
        a = np.arange(n)[None, :, None]
        ap = np.arange(n)[None, None, :]
        u = np.arange(n)[:, None, None]
        eigs = _eigvalsh_nonzero(self.blocks[(a + ap - u) % n, ap, a])
        return float(-eigs[eigs < 0.0].sum()) + 0.0

    def max_offdiagonal(self) -> float:
        """Largest |rho_ij| with i != j; elements between blocks are 0."""
        n = self.blocks.shape[0]
        return float(np.abs(self.blocks[:, ~np.eye(n, dtype=bool)]).max(initial=0.0))

    def block_sizes(self) -> np.ndarray:
        """Number of pair basis states each sector s = a + b populates
        (nonzero diagonal), for s = 0 .. 2n - 2; a PSD block is zero
        outside those states."""
        n = self.blocks.shape[0]
        t, a = np.nonzero(np.diagonal(self.blocks, axis1=1, axis2=2).real > 0.0)
        return np.bincount(a + (t - a) % n, minlength=2 * n - 1)


def pair_sectors(state: TriphotonTensor) -> SectorDensity:
    """``reduce_lost_photon`` in sector form.

    Lost-photon bin k heralds |chi_k> = sum_i A[i, k] |i>|j(i,k)>, and
    every live entry of column k lies in the sector s_k = i + j(i, k), so
    the column adds the outer product of A[:, k] to block s_k mod n. A
    column whose live entries span two sectors breaks conservation on the
    grid and is rejected.
    """
    n = state.grid.n_bins
    live = state.partner_bins >= 0
    sector = np.where(live, np.arange(n)[:, None] + state.partner_bins, -1)
    s_k = sector.max(axis=0)
    split = np.flatnonzero(np.any(live & (sector != s_k), axis=0))
    if split.size:
        k = int(split[0])
        raise InvalidArgumentError(
            f"lost-photon bin {k} heralds a pair vector spanning sectors "
            f"{sorted(set(sector[live[:, k], k].tolist()))}; "
            "the grid does not conserve frequency bin by bin")
    used = np.flatnonzero(s_k >= 0)
    # x[t, :, k] is column k when its sector folds to t; off-grid entries are already 0
    x = np.zeros((n, n, n), dtype=complex)
    x[s_k[used] % n, :, used] = state.amplitudes[:, used].T
    return SectorDensity(x @ x.conj().transpose(0, 2, 1))
