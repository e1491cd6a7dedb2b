"""Discrete frequency-bin models of the two triphoton states.

A coarse frequency grid turns each state into a small amplitude tensor,
which makes the loss of one photon an exact partial trace on a finite
Hilbert space. Both states share one form: an amplitude A[i, k] over the
bins of detected photon 1 (rows) and of the lost photon (columns). The
grid, not the tensor, places the remaining partner photon: frequency
conservation puts it in bin J0 - (i + k), one offset J0 per grid
(``ModeGrid.partner_bins``). For the three-mode state the lost photon is
photon 3 and A is a joint spectral amplitude. For the degenerate-pair
state the lost photon is the second pair photon, which shares photon 1's
bin, so A is diagonal. Detection filters are folded into the amplitudes,
so the discrete state and the continuous correlators describe the same
post-filter physics.

Lost-photon bin k heralds the pair vector A[:, k], and all of it lies
on one anti-diagonal a + b = J0 - k of the (photon-1 bin, partner bin)
plane, so the n heralded vectors sit in n distinct conservation sectors
and the reduced pair state is their orthogonal direct sum. The tensor
therefore reads the pair state's figures (negativity, purity, largest
off-diagonal element, sector sizes) straight off A, from n^2 numbers
instead of the n^4 of the dense n^2 x n^2 density matrix; the tests
keep that dense reduction (``tests/oracle.py``) as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlators import _w_integrand
from .errors import DegenerateInputError, InvalidArgumentError
from .spectra import FilterSpec, PhaseMatchConfig, detuning_ghz, filter_eval, phi


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
        width = self.bin_width
        if not (0.0 < width < math.inf and math.isfinite(3.0 * self.nu_min / width)):
            raise InvalidArgumentError(f"bin width {width!r} must be positive and finite, and so must "
                                       f"the partner offset -3 nu_min / bin width (nu_min {self.nu_min})")

    def centers(self) -> np.ndarray:
        return np.linspace(self.nu_min, self.nu_max, self.n_bins)

    @property
    def bin_width(self) -> float:
        return (self.nu_max - self.nu_min) / (self.n_bins - 1)

    @property
    def partner_offset(self) -> int:
        """J0 of the conservation rule: photons in bins i and k leave
        their partner in bin J0 - (i + k).

        The partner frequency -(nu_i + nu_k) goes to its nearest bin, and
        half-bin ties round toward the higher bin at both edges and in
        between, with a guard of 1e-9 bin so the choice does not flip on
        last-ulp noise in the division (on symmetric grids with an even
        bin count, every conservation frequency is such a tie). Exactly
        half a bin below nu_min thus rounds to bin 0 and exactly half a
        bin above nu_max rounds off the grid. The rounding is then the
        same for every bin pair, so the index is linear in i + k.
        """
        return math.floor(-3.0 * self.nu_min / self.bin_width + 0.5 + 1e-9)

    def partner_bins(self) -> np.ndarray:
        """(n, n) partner bins J0 - (i + k), and -1 where that falls off
        the grid."""
        j = self.partner_offset - np.add.outer(np.arange(self.n_bins), np.arange(self.n_bins))
        return np.where((j >= 0) & (j < self.n_bins), j, -1)


@dataclass(frozen=True)
class TriphotonTensor:
    """Discretized joint spectral amplitude of one triphoton state.

    ``amplitudes`` is A[i, k] over the bins of detected photon 1 (rows)
    and of the lost photon (columns), normalized to unit norm. The
    remaining partner photon sits in ``grid.partner_bins()[i, k]``;
    combinations whose partner falls off the grid carry amplitude 0.

    The ``pair_*`` methods describe the pair state left once the lost
    photon is traced out, rho = sum_k |chi_k><chi_k| with
    |chi_k> = sum_i A[i, k] |i>|J0 - (i + k)>. Each column lies in its
    own sector a + b = J0 - k, so the n vectors are orthogonal and rho
    is Hermitian and positive by construction.
    """

    amplitudes: np.ndarray
    grid: ModeGrid

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        n = self.grid.n_bins
        if amps.shape != (n, n):
            raise InvalidArgumentError(f"amplitude shape {amps.shape} does not match grid {(n, n)}")
        if np.any((self.grid.partner_bins() < 0) & (amps != 0)):
            raise InvalidArgumentError("off-grid entries must carry zero amplitude")
        norm2 = float(np.sum(amps.real**2 + amps.imag**2))
        if not abs(norm2 - 1.0) <= 1e-12:   # written so that NaN fails
            raise InvalidArgumentError(f"norm^2 deviates from 1 by {abs(norm2 - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)

    def pair_negativity(self) -> float:
        """Sum of |negative eigenvalues| of the pair state's partial
        transpose across the photon cut, as ``qubits.negativity(rho, (0,))``
        on the dense reduced pair state rho.

        Transposing photon 1 maps <a, b|rho|a', b'> to <a', b|rho|a, b'>,
        which is zero unless a - b = a' - b'. The partial transpose is
        therefore block diagonal in u = (a - b) mod n, with
        B_u[a, a'] = A[a', k] conj(A[a, k]) and k = (J0 + u - a - a') mod n.
        A zero row of a block (and, B_u being Hermitian, its zero column)
        only adds an eigenvalue 0, so each block is solved on its live rows
        alone: the blocks are batched by live-row count, one eigensolve per
        count. A fully live block is solved as it stands.
        """
        amps = self.amplitudes
        n = len(amps)
        a = np.arange(n)
        # J0 only relabels the blocks; it stays so that the negative
        # eigenvalues are summed in the order that fixes the reports' last digit
        k = (self.grid.partner_offset + a[:, None, None]
             - a[None, :, None] - a[None, None, :]) % n  # [u, a, a']
        blocks = amps[a[None, None, :], k] * amps[a[None, :, None], k].conj()
        live = blocks.any(axis=2)                        # [u, a]
        counts = live.sum(axis=1)
        eigs = np.zeros((n, n))           # each block's eigenvalues, zeros last
        for c in set(counts.tolist()) - {0}:   # np.unique would import numpy.ma (17 ms)
            u = np.flatnonzero(counts == c)
            if c == n:
                sub = blocks if len(u) == n else blocks[u]
            else:
                rows = np.nonzero(live[u])[1].reshape(len(u), c)
                sub = blocks[u[:, None, None], rows[:, :, None], rows[:, None, :]]
            eigs[u, :c] = np.linalg.eigvalsh(sub)
        return float(-eigs[eigs < 0.0].sum()) + 0.0

    def pair_purity(self) -> float:
        """tr(rho^2) = sum_k |A[:, k]|^4, the heralded vectors being
        orthogonal."""
        n = self.grid.n_bins
        amps = self.amplitudes
        norms = np.sum(amps.real**2 + amps.imag**2, axis=0)
        # summed in sector order (J0 - k) mod n, not column order k:
        # np.sum's pairwise rounding depends on the order, and sector order
        # reproduces the last digit the reports have always printed
        return float(np.sum(np.take(norms, (self.grid.partner_offset - np.arange(n)) % n) ** 2))

    def pair_max_offdiagonal(self) -> float:
        """Largest |rho_ij| with i != j: the product of the two largest
        |A[i, k]| of one column; elements between columns are 0."""
        top = np.sort(np.abs(self.amplitudes), axis=0)[-2:]
        return float((top[0] * top[1]).max())

    def pair_sector_sizes(self) -> np.ndarray:
        """Number of pair basis states (nonzero amplitude) in the sector
        of each column k, a + b = J0 - k."""
        amps = self.amplitudes
        return np.count_nonzero(amps.real**2 + amps.imag**2 > 0.0, axis=0)


def _normalize(amps: np.ndarray) -> np.ndarray:
    norm2 = float(np.sum(amps.real**2 + amps.imag**2))
    if norm2 <= 0.0:
        raise DegenerateInputError("all amplitudes are zero; the grid misses the state's support")
    return amps / math.sqrt(norm2)


def build_w_discrete(cfg: PhaseMatchConfig, filters: tuple[FilterSpec, FilterSpec, FilterSpec],
                     grid: ModeGrid) -> TriphotonTensor:
    """Three-mode state on the bin grid.

    A[i, k] is the correlators' joint spectral amplitude on the bin
    centers (filters of all three arms and the longitudinal envelope);
    photon 2 sits in the grid's partner bin, and combinations whose
    partner falls off the grid are dropped before normalization.
    """
    f1, f2, f3 = filters
    amps = np.where(grid.partner_bins() >= 0, _w_integrand(cfg, f1, f2, f3, grid.centers()), 0.0)
    return TriphotonTensor(_normalize(amps), grid)


def build_ghz_discrete(cfg: PhaseMatchConfig, filters: tuple[FilterSpec, FilterSpec],
                       grid: ModeGrid) -> TriphotonTensor:
    """Degenerate-pair state on the bin grid.

    Both pair photons occupy bin i (the state is single-mode degenerate
    by construction), so A[i, k] = B[i] delta_ik: the pair filter enters
    B squared, and the lone photon at -2 nu1 sits in the diagonal
    partner bin J0 - 2i.
    """
    f1, f2 = filters
    nu = grid.centers()
    amps = (filter_eval(f1, nu) ** 2
            * filter_eval(f2, -2.0 * nu)
            * phi(detuning_ghz(nu, cfg)))
    on = np.diag(grid.partner_bins()) >= 0
    return TriphotonTensor(np.diag(_normalize(np.where(on, amps, 0.0))), grid)
