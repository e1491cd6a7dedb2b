"""Scalar spectral ingredients shared by all correlators.

Unit conventions, used consistently across the package: time in ps,
angular frequency detunings in rad/ps (so 1 THz is read as 1 rad/ps),
transverse wave numbers in rad/um, transverse positions in um.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError

TWO_PI = 2.0 * math.pi


class FilterShape(str, enum.Enum):
    GAUSSIAN = "gaussian"
    RECTANGULAR = "rectangular"


@dataclass(frozen=True)
class PhaseMatchConfig:
    """Signed group-delay walk-off accumulated over the full source length.

    ``t12`` and ``t32`` are the arrival-time offsets, in ps, of photons 1
    and 3 relative to photon 2 after traversing the source. Zero walk-off
    would make the longitudinal envelope constant in frequency, which
    leaves nothing to resolve, so it is rejected at construction.
    """

    t12: float
    t32: float

    def __post_init__(self) -> None:
        for name in ("t12", "t32"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
                raise InvalidArgumentError(f"{name} must be a finite number, got {value!r}")
            if value == 0.0:
                raise InvalidArgumentError(f"{name} must be nonzero")
            object.__setattr__(self, name, float(value))


@dataclass(frozen=True)
class FilterSpec:
    """Narrowband amplitude filter in front of one detection arm.

    ``sigma`` is the bandwidth parameter in rad/ps: the Gaussian standard
    deviation of the amplitude profile, or the half-width of the
    rectangular passband. ``center_offset`` shifts the peak away from the
    arm's central frequency.
    """

    shape: FilterShape = FilterShape.GAUSSIAN
    sigma: float = 0.4
    center_offset: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", FilterShape(self.shape))
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise InvalidArgumentError(f"filter sigma must be positive and finite, got {self.sigma!r}")
        if not math.isfinite(self.center_offset):
            raise InvalidArgumentError(f"filter center_offset must be finite, got {self.center_offset!r}")
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "center_offset", float(self.center_offset))


@dataclass(frozen=True)
class TransverseWindow:
    """Gaussian amplitude window over transverse wave numbers.

    ``alpha_max`` is the 1/e half-width of the amplitude window in rad/um.
    It regularizes the transverse integrals: an unbounded transverse mode
    spectrum would give ideal point-to-point correlation (a delta
    function) and a divergent normalization.
    """

    alpha_max: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha_max) or self.alpha_max <= 0.0:
            raise InvalidArgumentError(f"alpha_max must be positive and finite, got {self.alpha_max!r}")
        object.__setattr__(self, "alpha_max", float(self.alpha_max))


def phi(x):
    """Longitudinal detuning envelope (1 - exp(-ix)) / (ix) of a uniform source.

    Evaluated through the exact equivalent form sinc(x/2) * exp(-ix/2),
    which is stable at the removable singularity, so phi(0) = 1. Zeros sit
    at x = 2*pi*n for integer n != 0. Accepts scalars or arrays.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("phi argument must be finite")
    out = np.sinc(arr / TWO_PI) * np.exp(-0.5j * arr)
    if arr.ndim == 0:
        return complex(out)
    return out


def detuning_ghz(nu1, cfg: PhaseMatchConfig):
    """Detuning argument when a degenerate pair shares the detuning nu1."""
    nu1 = np.asarray(nu1, dtype=float)
    if not np.all(np.isfinite(nu1)):
        raise InvalidArgumentError("detuning arguments must be finite")
    out = -2.0 * nu1 * cfg.t12
    if out.ndim == 0:
        return float(out)
    return out


def filter_eval(spec: FilterSpec, nu):
    """Amplitude transmission of a filter at detuning nu (rad/ps).

    Gaussian: exp(-(nu - c)^2 / (2 sigma^2)). Rectangular: 1 inside
    |nu - c| <= sigma, 0 outside. The peak value is 1 in both cases.
    """
    arr = np.asarray(nu, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("filter argument must be finite")
    d = arr - spec.center_offset
    if spec.shape is FilterShape.GAUSSIAN:
        out = np.exp(-0.5 * (d / spec.sigma) ** 2)
    else:
        out = np.where(np.abs(d) <= spec.sigma, 1.0, 0.0)
    if arr.ndim == 0:
        return float(out)
    return out

