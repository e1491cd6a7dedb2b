"""Reference formulas the tests check the package against.

Each one is written out element by element, from the physics, without
the package's structured shortcuts: no 1-D tables, no Hankel view, no
chirp-z and no closed-form Gaussian integrals.
"""

import numpy as np

from triphoton import CorrelationSurface, InvalidArgumentError, normalize_to_peak
from triphoton.spectra import filter_eval, phi


def detuning_w(nu1, nu3, cfg):
    """Detuning argument of the three-mode state's longitudinal envelope.

    The undetected photon's frequency is fixed by energy conservation, so
    only the detunings of photons 1 and 3 appear.
    """
    nu1 = np.asarray(nu1, dtype=float)
    nu3 = np.asarray(nu3, dtype=float)
    if not (np.all(np.isfinite(nu1)) and np.all(np.isfinite(nu3))):
        raise InvalidArgumentError("detuning arguments must be finite")
    out = -(nu1 * cfg.t12) - (nu3 * cfg.t32)
    if out.ndim == 0:
        return float(out)
    return out


def w_integrand(cfg, f1, f2, f3, nu):
    """Every factor of the joint spectral amplitude evaluated on the full
    (nu1, nu3) grid, photon 2 at -(nu1 + nu3); arm 3 unfiltered when
    ``f3`` is None."""
    nu1 = nu[:, None]
    nu3 = nu[None, :]
    F = (filter_eval(f1, nu)[:, None]
         * filter_eval(f2, -nu1 - nu3)
         * phi(detuning_w(nu1, nu3, cfg)))
    if f3 is not None:
        F = F * filter_eval(f3, nu)[None, :]
    return F


def w_surface_trapezoid(cfg, f1, f2, f3, quad, grids):
    """The normalized three-fold surface as a direct 2-D trapezoid sum,
    sum_ij w_i w_j F_ij exp(i (nu_i tau12 + nu_j tau32)), with explicit
    phase matrices."""
    nu, w = quad.nodes_weights()
    F = w[:, None] * w_integrand(cfg, f1, f2, f3, nu) * w[None, :]
    e12, e32 = (np.exp(1j * np.outer(g.points(), nu)) for g in grids)
    amp = e12 @ F @ e32.T
    return normalize_to_peak(CorrelationSurface(grids, np.abs(amp) ** 2))
