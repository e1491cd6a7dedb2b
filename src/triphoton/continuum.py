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
in the K per-node factors E(tau). Over the surface, Q(s) / 2 is a
quadratic in s whose expansion about a centre splits into a factor per
tau12, one per tau32 and one per node, so a group of nodes is a rank-K_g
product times one exponential per point.

The s integrals are K-node Gauss-Legendre sums. K follows from the
curvature of the s-Gaussian (``_order``). The line and the pair evaluate
every exponential as exp(-Q / 2) with Q >= 0; the surface's split factors
stay within exp(+-_SPLIT_BOUND). So no factor can overflow however long
the walk-off. Work is chunked over the output points, so no temporary
holds more than ``_CHUNK`` floats, and each output is one reduction over
all nodes. A line point costs K exponentials, a pair point K exponentials
and a (K, K) matrix-vector product, and a surface of m12 x m32 points
G m12 m32 + K (m12 + m32) exponentials, G the number of node groups (one
at the default config).
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

# Largest exponent of any factor the surface's node sum is split into (see
# w_surface). A factor exp(x) carries about |x| eps of relative rounding,
# so this bounds it by ~2e-14. A smaller bound needs more node groups, each
# m12 m32 exponentials: at 60 a 161^2 surface at sigma |t| = 400 took
# 520 ms against 225 ms at 100, slower than K exponentials per point.
_SPLIT_BOUND = 100.0

# Ellipse parameters searched for the tightest quadrature error bound.
_RHO = np.geomspace(1.01, 1e4, 400)

# (h, g, v, s, c) of the three-photon amplitude; see w_form
WForm = tuple[float, float, float, np.ndarray, np.ndarray]


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
    """reduce(exp(-half_q(rows)), rows) for every output row, the rows taken
    in chunks of at most ``_CHUNK`` exponentials, or one row where a row
    holds more; ``reduce`` maps the (rows, ...) exponentials to (rows, ...)."""
    step = max(1, _CHUNK // row_size)
    out = None
    for i in range(0, n_rows, step):
        rows = slice(i, i + step)
        e = half_q(rows)
        np.negative(e, out=e)
        np.exp(e, out=e)
        part = reduce(e, rows)
        if out is None:
            out = np.empty((n_rows,) + part.shape[1:])
        out[rows] = part
    return out


def w_form(cfg: PhaseMatchConfig, filters: tuple[FilterSpec, ...]) -> WForm:
    """The three-photon amplitude as sum_k c_k exp(-P(tau, s_k)): the
    exponent's coefficients (h, g, v), the nodes s_k and the coefficients
    c_k = w_k exp(i gamma s_k). The surface and the line both read it.

    With T = tau + s t and C = M^-1, Q = C11 T1^2 + 2 C13 T1 T3 + C33 T3^2
    is split into two squares, P = Q / 2 = (h T1 + g T3)^2 + v T3^2, with
    h = sqrt(C11 / 2), g = h C13 / C11 and v = (C33 - C13^2 / C11) / 2.
    """
    cov, mu = _gaussian(filters, ((1.0, 0.0), (-1.0, -1.0), (0.0, 1.0)))
    t = np.array([cfg.t12, cfg.t32])
    gamma = float(mu @ t)
    s, w = _legendre(_order(float(t @ cov @ t), gamma))
    h = math.sqrt(0.5 * cov[0, 0])
    return (h, h * cov[0, 1] / cov[0, 0], 0.5 * (cov[1, 1] - cov[0, 1] ** 2 / cov[0, 0]),
            s, w * np.exp(1j * gamma * s))


def _pairs(c: np.ndarray) -> np.ndarray:
    """Complex values as (..., 2) real and imaginary parts, so that a real
    matmul gives a complex result's parts side by side."""
    return np.stack((c.real, c.imag), axis=-1)


def _half_q(u1: np.ndarray, u3: np.ndarray, v3: np.ndarray) -> np.ndarray:
    e = u1 + u3
    e *= e
    e += v3
    return e


def _node_groups(s: np.ndarray, slope: float, spread: float, r: float) -> list[slice]:
    """The fewest runs of the sorted nodes ``s`` over each of which the
    surface's exponent splits within ``_SPLIT_BOUND`` (see ``w_surface``):
    w (|slope + 2 r c| + spread) + r w^2 <= _SPLIT_BOUND for a run of
    half-width w and centre c. A run that fits holds only sub-runs that
    fit, so taking each run as long as it fits gives the fewest."""
    groups = []
    i = 0
    while i < len(s):
        w = 0.5 * (s[i:] - s[i])
        fits = w * (np.abs(slope + r * (s[i:] + s[i])) + spread) + r * w * w <= _SPLIT_BOUND
        j = len(s) if fits.all() else i + int(np.argmin(fits))
        groups.append(slice(i, j))
        i = j
    return groups


def w_surface_parts(cfg: PhaseMatchConfig, form: WForm, tau12: np.ndarray,
                    tau32: np.ndarray) -> np.ndarray:
    """The W amplitude over tau12 x tau32 from its ``w_form``, up to a
    constant factor and a phase per point, as (m12, 2, m32) real and
    imaginary parts.

    P(tau, s) is quadratic in s. Around a centre c it reads

        P(tau, c + x) = P(tau, c) + x (L1 tau12 + L3 tau32 + 2 r c) + r x^2,

    with p = h t12 + g t32, r = p^2 + v t32^2, L1 = 2 h p and
    L3 = 2 (g p + v t32). Over a group of nodes with centre c the sum is
    then exp(-P(tau, c)) times sum_k c'_k a_k(tau12) b_k(tau32), with
    a_k = exp(-x_k L1 (tau12 - o1)), b_k = exp(-x_k L3 (tau32 - o3)) and
    the node-only rest folded into c'_k; o1 and o3 are the grids' centres.
    With the real and imaginary parts of c'_k folded into a_k, that is one
    real (2 m12, K_g) @ (K_g, m32) product and m12 m32 exponentials per
    group. The groups (``_node_groups``) keep every split exponent
    within +-_SPLIT_BOUND, and exp(-P(tau, c)) <= 1, so nothing overflows
    and a term underflows only below exp(-(745 - _SPLIT_BOUND)).
    """
    h, g, v, s, c = form
    p = h * cfg.t12 + g * cfg.t32
    r = p * p + v * cfg.t32 * cfg.t32
    l1 = 2.0 * h * p
    l3 = 2.0 * (g * p + v * cfg.t32)
    o1, o3 = (0.5 * (x.max() + x.min()) for x in (tau12, tau32))
    slope = l1 * o1 + l3 * o3
    spread = (abs(l1) * 0.5 * (tau12.max() - tau12.min())
              + abs(l3) * 0.5 * (tau32.max() - tau32.min()))
    groups = _node_groups(s, slope, spread, r)
    centres = np.array([0.5 * (s[k.start] + s[k.stop - 1]) for k in groups])
    factors = []
    for k, centre in zip(groups, centres):
        x = s[k] - centre
        coef = _pairs(c[k] * np.exp(-x * (slope + 2.0 * r * centre) - r * x * x))
        left = np.exp(np.multiply.outer(tau12 - o1, -l1 * x))[:, None] * coef.T
        factors.append((left, np.exp(np.multiply.outer(-l3 * x, tau32 - o3))))
    # the exponent at each group's centre
    u1 = h * (tau12[:, None] + centres * cfg.t12)
    t3 = tau32 + centres[:, None] * cfg.t32
    u3 = g * t3
    v3 = v * t3 * t3

    def reduce(e, rows):
        amp = None
        for j, (left, right) in enumerate(factors):
            part = (left[rows].reshape(-1, right.shape[0]) @ right).reshape(len(e), 2, -1)
            part *= e[:, None, j]
            if amp is None:
                amp = part
            else:
                amp += part
        return amp

    return _exp_sum(len(tau12), u3.size, lambda rows: _half_q(u1[rows, :, None], u3, v3),
                    reduce)


def w_surface(cfg: PhaseMatchConfig, filters: tuple[FilterSpec, ...],
              tau12: np.ndarray, tau32: np.ndarray) -> np.ndarray:
    """``w_surface_parts`` as an (m12, m32) complex array."""
    amp = w_surface_parts(cfg, w_form(cfg, filters), tau12, tau32)
    return np.ascontiguousarray(amp.transpose(0, 2, 1)).view(complex)[..., 0]


def w_line(cfg: PhaseMatchConfig, form: WForm, tau12: np.ndarray,
           tau32: np.ndarray) -> np.ndarray:
    """The W amplitude at the points (tau12[a], tau32[a]) from its
    ``w_form``, up to a constant factor and a phase per point: K
    exponentials per point."""
    h, g, v, s, c = form
    t3 = tau32[:, None] + s * cfg.t32
    u1 = h * (tau12[:, None] + s * cfg.t12)
    u3 = g * t3
    v3 = v * t3 * t3
    coef = _pairs(c)
    amp = _exp_sum(len(tau12), len(s), lambda rows: _half_q(u1[rows], u3[rows], v3[rows]),
                   lambda e, rows: e @ coef)
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
                    lambda e, rows: np.einsum("ij,ij->i", e @ kernel, e))
    return vals, len(s) * (len(s) + 1) // 2
