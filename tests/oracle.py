"""Reference formulas the tests check the package against.

Each one is written out element by element, from the physics, without
the package's structured shortcuts: no 1-D tables, no Hankel view, no
chirp-z and no factored exponents. Only the node-sum oracles integrate
the frequencies in closed form, one envelope node (or node pair) at a
time.
"""

import numpy as np

from triphoton import CorrelationSurface, InvalidArgumentError, normalize_to_peak
from triphoton.continuum import _gaussian, _legendre, _order
from triphoton.qubits import DensityMatrix
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


def w_surface_node_sum(cfg, filters, tau12, tau32):
    """The W amplitude over tau12 x tau32 as the sum over the continuum
    engine's Gauss-Legendre envelope nodes s_k, one full grid of
    exponentials per node, up to the engine's constant factor and phase
    per point.

    Each node is a 2-D Gaussian integral over (nu1, nu3) done in closed
    form: with covariance C and centre mu of the filters, its value is
    w_k exp(i gamma s_k - T^T C T / 2) at T = (tau12 + s_k t12,
    tau32 + s_k t32), with gamma = mu . (t12, t32).
    """
    cov, mu = _gaussian(filters, ((1.0, 0.0), (-1.0, -1.0), (0.0, 1.0)))
    t = np.array([cfg.t12, cfg.t32])
    gamma = mu @ t
    s, w = _legendre(_order(t @ cov @ t, gamma))
    amp = np.zeros((len(tau12), len(tau32)), dtype=complex)
    for sk, wk in zip(s, w):
        T1 = (np.asarray(tau12, dtype=float) + sk * cfg.t12)[:, None]
        T3 = (np.asarray(tau32, dtype=float) + sk * cfg.t32)[None, :]
        Q = cov[0, 0] * T1 * T1 + 2.0 * cov[0, 1] * T1 * T3 + cov[1, 1] * T3 * T3
        amp += wk * np.exp(1j * gamma * sk) * np.exp(-0.5 * Q)
    return amp


def w_pair_node_pairs(cfg, f1, f2, tau):
    """The W pair correlation sum_3 |A(tau)|^2, photon 3 unfiltered, as the
    double sum over every ordered pair (s_k, s_l) of the continuum engine's
    Gauss-Legendre envelope nodes, up to the engine's constant factor.

    Each node pair is a 3-D Gaussian integral over (nu1, nu1', nu3), primed
    for the conjugate amplitude, done in closed form: with covariance C and
    centre mu, its value is exp(i mu . T - T^T C T / 2) at
    T = (tau + s_k t12, -(tau + s_l t12), (s_k - s_l) t32). The phase
    mu . T is gamma (s_k - s_l) with gamma = mu . (t12, 0, t32), once the
    tau-dependent part, the same for every pair, is dropped.
    """
    cov, mu = _gaussian((f1, f1, f2, f2),
                        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, -1.0), (0.0, -1.0, -1.0)))
    d = np.array([cfg.t12, 0.0, cfg.t32])
    gamma = mu @ d
    s, w = _legendre(_order(d @ cov @ d, gamma))
    sk = s[:, None]
    sl = s[None, :]
    weight = w[:, None] * w[None, :] * np.cos(gamma * (sk - sl))
    tau = np.asarray(tau, dtype=float)[:, None, None]
    out = np.empty(len(tau))
    step = max(1, (1 << 18) // len(s) ** 2)
    for a in range(0, len(tau), step):
        T = (tau[a:a + step] + sk * cfg.t12, -(tau[a:a + step] + sl * cfg.t12),
             (sk - sl) * cfg.t32)
        Q = sum(cov[i, j] * T[i] * T[j] for i in range(3) for j in range(3))
        out[a:a + step] = np.sum(weight * np.exp(-0.5 * Q), axis=(1, 2))
    return out


def window_eval(window, alpha):
    """Amplitude of the transverse-mode window at wave number alpha (rad/um)."""
    arr = np.asarray(alpha, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("window argument must be finite")
    out = np.exp(-((arr / window.alpha_max) ** 2))
    if arr.ndim == 0:
        return float(out)
    return out


def transverse_trapezoid(window, rho, kernel=1.0, power=1):
    """sum_n w_n W(alpha_n)^power exp(i kernel alpha_n rho) for each rho: a
    1024-node trapezoid rule over +-6 alpha_max, where the window amplitude
    is exp(-36), summed with an explicit phase matrix. ``kernel`` = 2 is
    the degenerate pair detected at one point; power 2 at rho = 0 is the
    transverse mode volume. The sum repeats in rho with period
    2 pi / (kernel d alpha), 536 / (kernel alpha_max) um."""
    span = 6.0 * window.alpha_max
    alpha = np.linspace(-span, span, 1024)
    w = np.full(1024, 2.0 * span / 1023)
    w[[0, -1]] *= 0.5
    kernel_matrix = np.exp(1j * kernel * np.outer(np.atleast_1d(rho), alpha))
    return kernel_matrix @ (w * window_eval(window, alpha) ** power)


def reduce_lost_photon(state):
    """Trace the lost photon out of a ``TriphotonTensor``, as a dense
    n^2 x n^2 ``DensityMatrix``.

    Each lost-photon bin k heralds the pair vector
    |chi_k> = sum_i A[i, k] |i>|j(i,k)>; the reduction is the mixture of
    their projectors over the n*n pair space. A column with several
    nonzero entries heralds an entangled vector; the diagonal
    degenerate-pair tensor heralds the product |k>|j(k,k)> from every
    column, so its reduction is a diagonal, separable mixture.
    """
    n = state.grid.n_bins
    partner = state.grid.partner_bins()
    rho = np.zeros((n * n, n * n), dtype=complex)
    for k in range(n):
        col = state.amplitudes[:, k]
        bins = partner[:, k]
        live = bins >= 0
        if not np.any(live):
            continue
        chi = np.zeros(n * n, dtype=complex)
        flat = np.arange(n)[live] * n + bins[live]
        np.add.at(chi, flat, col[live])
        rho += np.outer(chi, chi.conj())
    return DensityMatrix(rho, (n, n))


def purity(rho):
    """tr(rho^2): 1 for pure states, 1/d for the maximally mixed state."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))
