"""Exact finite-dimensional state algebra for loss-of-one-subsystem arguments.

Dense numpy linear algebra on small tensor-product spaces. States are
validated on construction, so downstream code can rely on Hermiticity,
unit trace and positivity without re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10  # tolerates quadrature round-off in reduced states

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _as_dims(dims) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d < 1 for d in out):
        raise InvalidArgumentError(f"subsystem dimensions must be positive integers, got {dims!r}")
    return out


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over an ordered tensor product of subsystems."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        dims = _as_dims(self.dims)
        if int(np.prod(dims)) != amps.size:
            raise InvalidArgumentError(
                f"product of dims {dims} does not match amplitude length {amps.size}")
        norm2 = float(np.sum(amps.real**2 + amps.imag**2))
        if not abs(norm2 - 1.0) <= NORM_TOL:   # written so that NaN fails
            raise InvalidArgumentError(f"state norm^2 deviates from 1 by {abs(norm2 - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)

    def overlap(self, other: "PureState") -> complex:
        if self.dims != other.dims:
            raise InvalidArgumentError("overlap requires matching dims")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over an ordered
    tensor product of subsystems."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        dims = _as_dims(self.dims)
        d = int(np.prod(dims))
        if m.shape != (d, d):
            raise InvalidArgumentError(f"matrix shape {m.shape} does not match dims {dims}")
        herm = float(np.max(np.abs(m - m.conj().T))) if d else 0.0
        if not herm <= HERMITICITY_TOL:   # each check is written so that NaN fails
            raise InvalidArgumentError(f"matrix is not Hermitian (max deviation {herm:.3e})")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise InvalidArgumentError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        lo = float(np.linalg.eigvalsh(m).min())
        if not lo >= EIGENVALUE_FLOOR:
            raise InvalidArgumentError(f"matrix has eigenvalue {lo:.3e} below the PSD floor")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)


def make_ghz() -> PureState:
    """Three-qubit state (|000> + |111>)/sqrt(2), basis index 4a + 2b + c."""
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[7] = 1.0 / np.sqrt(2.0)
    return PureState(amps, (2, 2, 2))


def make_w() -> PureState:
    """Three-qubit state (|100> + |010> + |001>)/sqrt(3)."""
    amps = np.zeros(8, dtype=complex)
    amps[4] = amps[2] = amps[1] = 1.0 / np.sqrt(3.0)
    return PureState(amps, (2, 2, 2))


def _validate_subset(subset, n: int, what: str) -> tuple[int, ...]:
    idx = tuple(int(q) for q in subset)
    if not idx:
        raise InvalidArgumentError(f"{what} must not be empty")
    if len(set(idx)) != len(idx):
        raise InvalidArgumentError(f"{what} contains duplicates: {idx}")
    if any(q < 0 or q >= n for q in idx):
        raise InvalidArgumentError(f"{what} indices {idx} out of range for {n} subsystems")
    if len(idx) == n:
        raise InvalidArgumentError(f"{what} must leave at least one subsystem on the other side")
    return idx


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix on the kept subsystems, in the order given."""
    n = len(rho.dims)
    kept = _validate_subset(keep, n, "keep")
    if 2 * n > len(_LETTERS):
        raise InvalidArgumentError("too many subsystems for the einsum contraction")
    row = list(_LETTERS[:n])
    col = list(_LETTERS[n:2 * n])
    for q in range(n):
        if q not in kept:
            col[q] = row[q]  # same letter on both sides sums the diagonal
    out = "".join(row[q] for q in kept) + "".join(col[q] for q in kept)
    sub = "".join(row) + "".join(col) + "->" + out
    tensor = rho.matrix.reshape(rho.dims + rho.dims)
    kept_dims = tuple(rho.dims[q] for q in kept)
    d = int(np.prod(kept_dims))
    reduced = np.einsum(sub, tensor).reshape(d, d)
    return DensityMatrix(reduced, kept_dims)


def partial_transpose(rho: DensityMatrix, transposed: Sequence[int]) -> np.ndarray:
    """Matrix of the partial transpose over the given subsystems."""
    n = len(rho.dims)
    idx = _validate_subset(transposed, n, "transposed")
    tensor = rho.matrix.reshape(rho.dims + rho.dims)
    axes = list(range(2 * n))
    for q in idx:
        axes[q], axes[q + n] = axes[q + n], axes[q]
    d = int(np.prod(rho.dims))
    return tensor.transpose(axes).reshape(d, d)


def negativity(rho: DensityMatrix, cut: Sequence[int]) -> float:
    """Sum of |negative eigenvalues| of the partial transpose across the cut.

    ``cut`` lists the subsystems on one side of the bipartition;
    transposing either side gives the same spectrum. Zero for every state
    that is separable across the cut.
    """
    pt = partial_transpose(rho, cut)
    eigs = np.linalg.eigvalsh(pt)
    return float(-eigs[eigs < 0.0].sum()) + 0.0


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Reduces to |<psi|phi>|^2 when both states are pure.
    """
    if rho.dims != sigma.dims:
        raise InvalidArgumentError(f"dimension mismatch: {rho.dims} vs {sigma.dims}")
    w, v = np.linalg.eigh(rho.matrix)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_rho @ sigma.matrix @ sqrt_rho
    vals = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(vals)) ** 2)
