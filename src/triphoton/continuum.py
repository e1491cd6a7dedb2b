"""Closed-form Gaussian engine of the W temporal correlators
(``method="continuum"``).

With Gaussian filters the frequency integrals are Gaussian and are done
exactly; only the longitudinal envelope's parameter is integrated
numerically. The envelope is phi(x) = int_0^1 exp(-i x s) ds with
x = -(nu1 t12 + nu3 t32), so the W amplitude

    A(tau) = int d^2nu f1(nu1) f2(-nu1 - nu3) f3(nu3) phi(x) exp(i nu . tau)
           = int_0^1 ds int d^2nu G(nu) exp(i nu . T(s)),   T(s) = tau + s t,

with t = (t12, t32). G, the product of the filters, is a Gaussian with
precision M = diag(1/s1^2, 1/s3^2) + [[1, 1], [1, 1]] / s2^2, and centre
mu, found by completing the square. Its Fourier transform gives

    A(tau) ~ exp(i mu . tau) int_0^1 exp(i gamma s - Q(s) / 2) ds,

where Q(s) = T(s)^T M^-1 T(s) and gamma = mu . t. The phase
exp(i mu . tau) is common to every s, so it drops out of |A|^2. The pair
correlation traces photon 3 outside the modulus. For each node pair
(s, s') that is a 3-D Gaussian integral over (nu1, nu1', nu3), whose
exponent splits into a factor per node and a kernel of s - s', so the
pair correlation is a quadratic form E^T G E of a (K, K) kernel matrix G
in the K per-node factors E(tau).

The s integrals are K-node Gauss-Legendre sums. K follows from the
curvature of the s-Gaussian (``_order``). Every exponential is evaluated
as exp(-Q / 2) with Q >= 0, so no factor can overflow however long the
walk-off. Work is chunked over the output points, so no temporary holds
more than ``_CHUNK`` floats, and each output is one reduction over all
nodes. A surface or line point costs K exponentials, a pair point K
exponentials and a (K, K) matrix-vector product.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidArgumentError
from .spectra import FilterShape, FilterSpec, PhaseMatchConfig

# Floats per temporary: 8 MiB, below the chirp-z buffer of the trapezoid
# route at the default quadrature (n = 1024, 19.7 MB at m = 161).
_CHUNK = 1 << 20

# Ellipse parameters searched for the tightest quadrature error bound.
_RHO = np.geomspace(1.01, 1e4, 400)


@functools.lru_cache(maxsize=64)
def _legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """K-node Gauss-Legendre nodes and weights on [0, 1], by Golub-Welsch:
    the nodes are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence and the weights the squared first eigenvector components.
    Read-only, since every caller shares them."""
    j = np.arange(1, k)
    off = j / np.sqrt(4.0 * j * j - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    rule = (0.5 * (1.0 + x), v[0] ** 2)
    for a in rule:
        a.flags.writeable = False
    return rule


def _order(curvature: float, gamma: float) -> int:
    """Fewest Gauss-Legendre nodes that integrate exp(i gamma s - Q(s) / 2)
    over [0, 1] to rounding, for a quadratic Q >= 0 with Q'' = curvature.

    Off the real axis, at s = x + iy, |exp(-Q / 2)| <= exp(curvature y^2 / 2)
    and |exp(i gamma s)| <= exp(|gamma y|). On the Bernstein ellipse rho
    around [0, 1], |y| <= (rho - 1/rho) / 4, and the K-node error is at most
    (32/15) max|f| rho^-2K / (rho^2 - 1) (Trefethen, Approximation Theory
    and Approximation Practice, Thm 19.3, halved for [0, 1]). K is the
    smallest order whose bound, minimized over rho, falls below eps times
    min(1, sqrt(2 pi / curvature)), the integral of the s-Gaussian.
    """
    y = 0.25 * (_RHO - 1.0 / _RHO)
    log_bound = (0.5 * curvature * y * y + abs(gamma) * y
                 + np.log(32.0 / 15.0 / (_RHO * _RHO - 1.0)))
    scale = min(1.0, math.sqrt(2.0 * math.pi / curvature))
    need = (log_bound - math.log(np.finfo(float).eps * scale)) / (2.0 * np.log(_RHO))
    return max(2, math.ceil(float(need.min())))


def _gaussian(filters: tuple[FilterSpec, ...], rows) -> tuple[np.ndarray, np.ndarray]:
    """Covariance M^-1 and centre mu of prod_f f(r_f . nu), filter f read at
    the linear combination r_f of the integration variables."""
    for f in filters:
        if f.shape is not FilterShape.GAUSSIAN:
            raise InvalidArgumentError(
                f"the continuum engine needs Gaussian filters, got a {f.shape.value} one")
    r = np.array(rows, dtype=float)
    inv_var = np.array([1.0 / (f.sigma * f.sigma) for f in filters])
    centres = np.array([f.center_offset for f in filters])
    precision = r.T @ (inv_var[:, None] * r)
    return np.linalg.inv(precision), np.linalg.solve(precision, r.T @ (centres * inv_var))


def _exp_sum(n_rows: int, row_size: int, half_q, reduce) -> np.ndarray:
    """reduce(exp(-half_q(rows))) for every output row, the rows taken in
    chunks of at most ``_CHUNK`` exponentials, or one row where a row holds
    more; ``reduce`` maps the (rows, ...) exponentials to (rows, ...)."""
    step = max(1, _CHUNK // row_size)
    out = None
    for i in range(0, n_rows, step):
        e = half_q(slice(i, i + step))
        np.negative(e, out=e)
        np.exp(e, out=e)
        part = reduce(e)
        if out is None:
            out = np.empty((n_rows,) + part.shape[1:])
        out[i:i + step] = part
    return out


def _w3_terms(cfg: PhaseMatchConfig, filters: tuple[FilterSpec, ...], tau12: np.ndarray,
              tau32: np.ndarray) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The three-photon amplitude as sum_k w_k exp(i gamma s_k - Q(s_k) / 2):
    the parts (u1, u3, v3) of Q / 2 = (u1 + u3)^2 + v3, node index last, and
    the coefficients w_k exp(i gamma s_k) as (K, 2) real and imaginary parts.

    With C = M^-1, Q = C11 T1^2 + 2 C13 T1 T3 + C33 T3^2 is split into two
    squares: u1 + u3 = sqrt(C11 / 2) (T1 + (C13 / C11) T3) and
    v3 = (C33 - C13^2 / C11) T3^2 / 2.
    """
    cov, mu = _gaussian(filters, ((1.0, 0.0), (-1.0, -1.0), (0.0, 1.0)))
    t = np.array([cfg.t12, cfg.t32])
    gamma = float(mu @ t)
    s, w = _legendre(_order(float(t @ cov @ t), gamma))
    c = w * np.exp(1j * gamma * s)
    h = math.sqrt(0.5 * cov[0, 0])
    t3 = tau32[..., None] + s * cfg.t32
    parts = (h * (tau12[..., None] + s * cfg.t12), (h * cov[0, 1] / cov[0, 0]) * t3,
             (0.5 * (cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0])) * t3 * t3)
    # real and imaginary coefficients side by side: one real matmul gives
    # the amplitude as interleaved (..., 2) floats
    return parts, np.stack((c.real, c.imag), axis=-1)


def _half_q(u1: np.ndarray, u3: np.ndarray, v3: np.ndarray) -> np.ndarray:
    e = u1 + u3
    e *= e
    e += v3
    return e


def w_surface(cfg: PhaseMatchConfig, filters: tuple[FilterSpec, ...],
              tau12: np.ndarray, tau32: np.ndarray) -> np.ndarray:
    """The W amplitude over tau12 x tau32, up to a constant factor and a
    phase per point."""
    (u1, u3, v3), coef = _w3_terms(cfg, filters, tau12, tau32)
    amp = _exp_sum(len(tau12), u3.size, lambda rows: _half_q(u1[rows, None], u3, v3),
                   lambda e: e @ coef)
    return amp.view(complex)[..., 0]


def w_line(cfg: PhaseMatchConfig, filters: tuple[FilterSpec, ...],
           tau12: np.ndarray, tau32: np.ndarray) -> np.ndarray:
    """The W amplitude at the points (tau12[a], tau32[a]), up to a constant
    factor and a phase per point."""
    (u1, u3, v3), coef = _w3_terms(cfg, filters, tau12, tau32)
    amp = _exp_sum(len(tau12), u1.shape[1],
                   lambda rows: _half_q(u1[rows], u3[rows], v3[rows]), lambda e: e @ coef)
    return amp.view(complex)[..., 0]


def _pair_form(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec
               ) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, curvature) of the pair correlation's node-pair
    exponent (see ``w_pair``), from the covariance C and centre mu of the
    filters over (nu1, nu1', nu3), primed for the conjugate amplitude."""
    cov, mu = _gaussian((f1, f1, f2, f2),
                        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, -1.0), (0.0, -1.0, -1.0)))
    d = np.array([cfg.t12, 0.0, cfg.t32])
    curvature = float(d @ cov @ d)
    alpha = float(cov[0, 0] - cov[0, 1])
    # a square (see w_pair): only rounding can take it below zero
    beta = max(0.0, curvature - alpha * cfg.t12 ** 2)
    return alpha, beta, float(mu @ d), curvature


def w_pair(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec, tau: np.ndarray
           ) -> tuple[np.ndarray, int]:
    """The pair correlation sum_3 |A(tau)|^2 with photon 3 unfiltered, up to
    a constant factor, and K (K + 1) / 2, the number of distinct node pairs
    in the sum, which sets its rounding floor.

    The variables are (nu1, nu1', nu3), primed for the conjugate amplitude.
    With u_k = tau + s_k t12 and D = s_k - s_l, the exponent of node pair
    (s_k, s_l) has T = (u_k, -u_l, D t32), and the symmetry nu1 <-> nu1' of
    the covariance C splits it into a part per node and a part in D:

        Q / 2 = alpha (u_k^2 + u_l^2) / 2 + beta D^2 / 2,

    with alpha = C11 - C12 and beta = d^T C d - alpha t12^2 for
    d = dT/ds = (t12, 0, t32), and the phase gamma D with gamma = mu . d.
    So the pair correlation is E^T G E, with E_k = exp(-alpha u_k^2 / 2)
    and G_kl = w_k w_l cos(gamma D) exp(-beta D^2 / 2): K exponentials per
    delay and one product with the (K, K) kernel G, not one exponential per
    node pair. In closed form alpha = s1^2 s2^2 / (s1^2 + s2^2) and
    beta = (s1^2 t12 - (s1^2 + s2^2) t32)^2 / (2 (s1^2 + s2^2)), both
    >= 0 for any widths, offsets and walk-offs, so every factor of every
    term is at most 1 and none can overflow. Where an E_k underflows, every
    term it multiplies is smaller still.
    """
    alpha, beta, gamma, curvature = _pair_form(cfg, f1, f2)
    s, w = _legendre(_order(curvature, gamma))
    c = w * np.exp(1j * gamma * s)
    diff = np.subtract.outer(s, s)
    kernel = np.exp(-0.5 * beta * diff * diff)
    kernel *= np.outer(c, c.conj()).real
    root = math.sqrt(0.5 * alpha)

    def half_q(rows):
        e = np.add.outer(root * tau[rows], (root * cfg.t12) * s)
        e *= e
        return e

    vals = _exp_sum(len(tau), len(s), half_q,
                    lambda e: np.einsum("ij,ij->i", e @ kernel, e))
    return vals, len(s) * (len(s) + 1) // 2
