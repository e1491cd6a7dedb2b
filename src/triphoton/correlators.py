"""Second- and third-order correlation surfaces for both triphoton states.

The transverse correlators are closed forms: under the Gaussian
transverse window each curve is an exact Gaussian in the displacement,
and the degenerate-pair constant is the window's mode volume.

The temporal correlators are evaluated on user-supplied delay grids by
two interchangeable engines:

* ``method="fft"``: a chirp-z transform (Bluestein's algorithm on
  ``numpy.fft``, implemented here as ``czt``) that evaluates the
  discretized oscillatory integral on an arbitrary uniform output grid at
  FFT cost.
* ``method="quad"``: direct quadrature, an explicit phase matrix summed
  per output point. Slower, trivially auditable, and used as the oracle
  the fast path is checked against.

Both engines sum the identical trapezoid-weighted samples, so they must
agree to rounding error; a disagreement means one of them is wrong.

The W temporal correlators have a third engine, ``method="continuum"``
(``continuum.py``), for Gaussian filters only. It integrates the
frequencies exactly and the longitudinal envelope's parameter by
Gauss-Legendre, so it samples no frequency grid: its outputs do not
depend on the quadrature settings, which it reads only to reject the
same spans as the trapezoid engines. ``w_temporal_method`` picks it when
every filter a correlator reads is Gaussian and ``fft`` otherwise; the
trapezoid engines stay the rectangular-filter engines and its oracle.

The W-state temporal correlators share one stage: the joint spectral
amplitude, assembled from 1-D tables, transformed once over photon 1. On
fft the amplitude is assembled straight into the zero-padded chirp-z
buffer, weights and input chirp folded into photon 1's row factor. The
surface transforms it over photon 3, the conditional slice takes a
phase-weighted photon-3 sum, the pair correlation sums its modulus
squared over photon 3; ``w_temporal_panels`` returns all three from one
pass. The standalone pair correlation's fft path skips that stage: it
builds the amplitude into a zero-padded FFT buffer the same way and
transforms the photon-1 autocorrelation (Wiener-Khinchin), one row
whatever the grid, with an absolute rounding floor of ~n eps of the peak.

Delay kernels use exp(+i nu tau). With the negative group-delay
parameters used throughout, this places the correlation support on
positive delays, where coincidences are physically recorded; the number
of sign flips between the envelope phase and the delay kernel is what
matters, not either sign alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import continuum
from .errors import (
    AmbiguousWidthError,
    ConfigurationError,
    DegenerateInputError,
    InvalidArgumentError,
)
from .spectra import (
    TWO_PI,
    FilterShape,
    FilterSpec,
    PhaseMatchConfig,
    TransverseWindow,
    detuning_ghz,
    filter_eval,
    phi,
)

Method = Literal["fft", "quad"]
WMethod = Literal["fft", "quad", "continuum"]


@dataclass(frozen=True)
class Grid1D:
    """Uniform sample grid along one delay (ps) or displacement (um) axis."""

    start: float
    step: float
    count: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.start):
            raise InvalidArgumentError(f"grid start must be finite, got {self.start!r}")
        if not math.isfinite(self.step) or self.step <= 0.0:
            raise InvalidArgumentError(f"grid step must be positive, got {self.step!r}")
        if int(self.count) != self.count or self.count < 2:
            raise InvalidArgumentError(f"grid count must be an integer >= 2, got {self.count!r}")
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "count", int(self.count))

    def points(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @property
    def stop(self) -> float:
        return self.start + self.step * (self.count - 1)


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization of the frequency integrals.

    ``n_points`` samples span the symmetric interval
    [-nu_span, +nu_span] rad/ps with trapezoid weights. The span must
    cover both the filter passbands and the main lobe of the longitudinal
    envelope; ``validate_for`` enforces that before any correlator runs.
    """

    n_points: int
    nu_span: float

    def __post_init__(self) -> None:
        if int(self.n_points) != self.n_points or self.n_points < 2:
            raise InvalidArgumentError(f"n_points must be an integer >= 2, got {self.n_points!r}")
        if not math.isfinite(self.nu_span) or self.nu_span <= 0.0:
            raise InvalidArgumentError(f"nu_span must be positive, got {self.nu_span!r}")
        object.__setattr__(self, "n_points", int(self.n_points))
        object.__setattr__(self, "nu_span", float(self.nu_span))

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        nu = np.linspace(-self.nu_span, self.nu_span, self.n_points)
        d = nu[1] - nu[0]
        w = np.full(self.n_points, d)
        w[0] *= 0.5
        w[-1] *= 0.5
        return nu, w

    def validate_for(self, cfg: PhaseMatchConfig, filters) -> None:
        """Reject spans that cannot capture the integrand."""
        required = required_span(cfg, filters)
        if self.nu_span + 1e-12 < required:
            raise ConfigurationError(
                f"nu_span {self.nu_span} rad/ps is below the required coverage "
                f"{required:.6g} rad/ps for these filters and walk-off times"
            )


def required_span(cfg: PhaseMatchConfig, filters) -> float:
    """Smallest nu_span that captures the integrand.

    Gaussian filters need 6 sigma of coverage beyond their center offset.
    A rectangular filter only needs its center inside the span: a
    passband wider than the span degenerates to no filtering, which is
    the deliberate flat-filter limit. The longitudinal envelope needs 6
    of its main-lobe half-widths; an unfiltered run has no other spectral
    scale, so this bound is also its canonical span.
    """
    required = 6.0 * TWO_PI / max(abs(cfg.t12), abs(cfg.t32))
    for f in filters:
        if f.shape is FilterShape.GAUSSIAN:
            required = max(required, 6.0 * f.sigma + abs(f.center_offset))
        else:
            required = max(required, abs(f.center_offset))
    return required


@dataclass(frozen=True)
class CorrelationSurface:
    """Nonnegative correlation values sampled over one or two axes."""

    axes: tuple[Grid1D, ...]
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        axes = tuple(self.axes)
        if len(axes) not in (1, 2):
            raise InvalidArgumentError("a surface has one or two axes")
        values = np.asarray(self.values, dtype=float)
        expected = tuple(g.count for g in axes)
        if values.shape != expected:
            raise InvalidArgumentError(f"values shape {values.shape} does not match axes {expected}")
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("surface values must be finite")
        if np.any(values < 0.0):
            raise InvalidArgumentError("surface values must be nonnegative")
        if self.normalized and abs(float(values.max()) - 1.0) > 1e-12:
            raise InvalidArgumentError("normalized surface must have maximum 1")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", values)


def _check_method(method: str) -> None:
    if method not in ("fft", "quad"):
        raise InvalidArgumentError(f"method must be 'fft' or 'quad', got {method!r}")


def w_temporal_method(*filters: FilterSpec) -> WMethod:
    """The W temporal engine for the filters a correlator reads: the
    closed-form ``continuum`` when all are Gaussian, the chirp-z ``fft``
    otherwise."""
    return "continuum" if all(f.shape is FilterShape.GAUSSIAN for f in filters) else "fft"


def _fast_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, a length numpy's FFT handles quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power of two that lifts p35 to at least n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def czt(x: np.ndarray, m: int, w: complex, a: complex) -> np.ndarray:
    """Chirp-z transform X_k = sum_n x_n a^-n w^(n k), k = 0..m-1, along the last axis.

    Bluestein: n k = (n^2 + k^2 - (k - n)^2) / 2 turns the sum into a
    circular convolution with the chirp w^(-j^2/2), evaluated by FFT in one
    C-ordered, zero-padded (rows, L) buffer so that transposed inputs never
    reach the FFT as strided views.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    L, chirp_in, spectrum, chirp_out = _czt_plan(n, m, w, a)
    buf = np.zeros(x.shape[:-1] + (L,), dtype=complex)
    np.multiply(x, chirp_in, out=buf[..., :n])
    return _czt_finish(buf, spectrum, chirp_out)


def _czt_plan(n: int, m: int, w: complex, a: complex
              ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Bluestein set-up of ``czt``: the padded length L, the input chirp
    a^-k w^(k^2/2) (k < n), the kernel spectrum and the output chirp
    w^(k^2/2) (k < m). A caller that writes x times the input chirp into
    ``buf[..., :n]`` of a zeroed (..., L) buffer finishes with ``_czt_finish``."""
    L = _fast_len(n + m - 1)
    k = np.arange(max(m, n))
    wk2 = w ** (k**2 / 2)
    kernel = np.zeros(L, dtype=complex)
    kernel[:m] = 1.0 / wk2[:m]
    kernel[L - n + 1:] = 1.0 / wk2[n - 1:0:-1]
    return L, a ** -k[:n] * wk2[:n], np.fft.fft(kernel), wk2[:m]


def _czt_finish(buf: np.ndarray, spectrum: np.ndarray, chirp_out: np.ndarray) -> np.ndarray:
    """The circular convolution with the kernel, in place, then the output
    chirp on the first len(chirp_out) columns."""
    np.fft.fft(buf, axis=-1, out=buf)
    buf *= spectrum
    np.fft.ifft(buf, axis=-1, out=buf)
    return buf[..., :len(chirp_out)] * chirp_out


def _czt_factors(nu: np.ndarray, taus: np.ndarray) -> tuple[complex, complex, np.ndarray]:
    """(w, a, phase) with sum_n c_n exp(+i nu_n tau_k) = czt(c, m, w, a)_k phase_k."""
    w = np.exp(1j * (nu[1] - nu[0]) * (taus[1] - taus[0]))
    a = np.exp(-1j * (nu[1] - nu[0]) * taus[0])
    return w, a, np.exp(1j * nu[0] * taus)


def _transform_czt(c: np.ndarray, nu: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """sum_n c[..., n] * exp(+i nu_n tau_a) along the last axis, chirp-z path.

    Requires both grids uniform; the chirp-z factorization is exact for
    arbitrary start and step, no zero padding or resampling involved.
    """
    w, a, phase = _czt_factors(nu, taus)
    return czt(c, m=len(taus), w=w, a=a) * phase


def _transform_direct(c: np.ndarray, nu: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Same sum as the chirp-z path, via an explicit phase matrix."""
    kernel = np.exp(1j * np.outer(nu, taus))
    return c @ kernel


def _transform(c: np.ndarray, nu: np.ndarray, taus: np.ndarray, method: Method) -> np.ndarray:
    _check_method(method)
    if method == "fft":
        return _transform_czt(c, nu, taus)
    return _transform_direct(c, nu, taus)


def _total(density: np.ndarray, method: Method) -> float:
    """Sum of a real density: numpy's pairwise sum on ``fft``, a compensated
    serial sum on ``quad`` as an order-independent cross-check."""
    _check_method(method)
    if method == "quad":
        return math.fsum(density.tolist())
    return float(density.sum())


def _normalized(axes: tuple[Grid1D, ...], values: np.ndarray) -> CorrelationSurface:
    """``values`` over ``axes`` divided by their peak, validated once, after
    the division: dividing by a positive peak leaves a NaN or infinity
    non-finite and a negative value negative, so the checks fail where
    they would have failed on the raw values."""
    peak = float(values.max())
    if peak <= 0.0:
        raise DegenerateInputError("cannot normalize an all-zero surface")
    return CorrelationSurface(axes, values / peak, normalized=True)


def _intensity(grids: tuple[Grid1D, ...], amp: np.ndarray) -> CorrelationSurface:
    """|amp|^2 over ``grids``, normalized to its peak."""
    return _normalized(grids, amp.real**2 + amp.imag**2)


def _w_integrand(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec,
                 f3: FilterSpec | None, nu: np.ndarray) -> np.ndarray:
    """Joint spectral amplitude samples F[i, j] over (nu1_i, nu3_j); the
    undetected photon 2 sits at -(nu1 + nu3).

    ``nu`` must be uniform (``QuadratureSpec.nodes_weights`` and
    ``ModeGrid.centers`` are): f2 then depends on i + j alone and is read
    from 2n - 1 samples through a Hankel view. With x/2 = p_i + q_j, phi's
    phase is an outer product and sin(x/2) has rank 2 by angle addition,
    which loses relative accuracy as x -> 0: |x/2| < 0.1 takes np.sinc.
    """
    return _assemble(*_w_tables(cfg, f1, f2, f3, nu))


def _w_tables(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec, f3: FilterSpec | None,
              nu: np.ndarray) -> tuple[np.ndarray, tuple, tuple]:
    """The 1-D tables of ``_w_integrand``: f2 on the 2n - 1 anti-diagonals,
    and (a, p) for photon 1 and (b, q) for photon 3, with
    F[i, j] = a_i b_j f2[i + j] sin(p_i + q_j) / (p_i + q_j)."""
    f2_diag = filter_eval(f2, -np.concatenate((nu[0] + nu, nu[-1] + nu[1:])))
    p = -0.5 * cfg.t12 * nu
    q = -0.5 * cfg.t32 * nu
    b = np.exp(-1j * q) * (1.0 if f3 is None else filter_eval(f3, nu))
    return f2_diag, (filter_eval(f1, nu) * np.exp(-1j * p), p), (b, q)


def _assemble(f2_diag: np.ndarray, rows: tuple, cols: tuple, out: np.ndarray | None = None
              ) -> np.ndarray:
    """M[i, j] = a_i b_j f2_diag[i + j] sin(p_i + q_j) / (p_i + q_j) from
    rows = (a, p) and cols = (b, q). The formula is symmetric under swapping
    the two, so swapping them builds the transpose directly, into ``out``."""
    (a, p), (b, q) = rows, cols
    half = p[:, None] + q[None, :]
    env = np.column_stack((np.sin(p), np.cos(p))) @ np.vstack((np.cos(q), np.sin(q)))
    small = (half > -0.1) & (half < 0.1)
    np.divide(env, half, out=env, where=~small)
    env[small] = np.sinc(half[small] / np.pi)
    env *= np.lib.stride_tricks.sliding_window_view(f2_diag, len(q))   # [i, j] -> [i + j]
    M = np.multiply.outer(a, b, out=out)
    M *= env
    return M


def _w_photon1(cfg: PhaseMatchConfig, filters: tuple[FilterSpec, ...], quad: QuadratureSpec,
               grid: Grid1D, method: Method) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and the photon-1 transform every W temporal correlator
    reduces: inner[j, a] = sum_i w_i F(nu_i, nu_j) exp(+i nu_i tau12_a), F
    taken without arm 3.

    ``method="quad"`` builds w_i F(nu_i, nu_j) and applies the direct phase
    matrix. ``method="fft"`` folds the weights and the chirp-z input chirp
    into the photon-1 row factor of ``_assemble``, which writes the chirped
    integrand, photon 1 on the contiguous axis, straight into the zero-padded
    Bluestein buffer; the transform then finishes in place.
    """
    quad.validate_for(cfg, filters)
    _check_method(method)
    nu, w = quad.nodes_weights()
    if method == "quad":
        F = _w_integrand(cfg, filters[0], filters[1], None, nu)
        F *= w[:, None]
        return nu, w, _transform_direct(F.T, nu, grid.points())
    n = len(nu)
    cz_w, cz_a, phase = _czt_factors(nu, grid.points())
    L, chirp_in, spectrum, chirp_out = _czt_plan(n, grid.count, cz_w, cz_a)
    f2_diag, (a, p), cols3 = _w_tables(cfg, filters[0], filters[1], None, nu)
    buf = np.zeros((n, L), dtype=complex)
    _assemble(f2_diag, cols3, (w * a * chirp_in, p), out=buf[:, :n])
    return nu, w, _czt_finish(buf, spectrum, chirp_out) * phase


def _w_pair(w: np.ndarray, inner: np.ndarray, grid: Grid1D) -> CorrelationSurface:
    return _normalized((grid,), w @ (inner.real**2 + inner.imag**2))


def _w_surface(nu: np.ndarray, c3: np.ndarray, inner: np.ndarray,
               grids: tuple[Grid1D, Grid1D], method: Method) -> CorrelationSurface:
    return _intensity(grids, _transform((c3[:, None] * inner).T, nu, grids[1].points(), method))


def _w_conditional(cfg: PhaseMatchConfig, nu: np.ndarray, c3: np.ndarray, inner: np.ndarray,
                   grid: Grid1D) -> CorrelationSurface:
    tau32 = abs(cfg.t12) - grid.points()
    return _intensity((grid,), (c3[:, None] * inner * np.exp(1j * np.outer(nu, tau32))).sum(axis=0))


def _continuum_surface(cfg: PhaseMatchConfig, form: continuum.WForm,
                       grids: tuple[Grid1D, Grid1D]) -> CorrelationSurface:
    # |amp|^2 straight from the real and imaginary parts
    amp = continuum.w_surface_parts(cfg, form, grids[0].points(), grids[1].points())
    return _normalized(grids, amp[:, 0] ** 2 + amp[:, 1] ** 2)


def _continuum_conditional(cfg: PhaseMatchConfig, form: continuum.WForm,
                           grid: Grid1D) -> CorrelationSurface:
    tau12 = grid.points()
    return _intensity((grid,), continuum.w_line(cfg, form, tau12, abs(cfg.t12) - tau12))


def _continuum_pair(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec,
                    grid: Grid1D) -> CorrelationSurface:
    vals, terms = continuum.w_pair(cfg, f1, f2, grid.points())
    return _normalized((grid,), _clip_rounding(vals, terms))


def g2_w_temporal(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec,
                  quad: QuadratureSpec, grid: Grid1D, *,
                  method: WMethod = "fft") -> CorrelationSurface:
    """Two-photon temporal correlation of the three-mode state.

    The third photon is undetected: its frequency is integrated
    incoherently (outside the modulus), which is what keeps a finite
    correlation width after the loss.

    ``method="quad"`` transforms photon 1 onto the grid with the direct
    phase matrix and sums |inner|^2 over photon 3. ``method="fft"`` uses
    Wiener-Khinchin instead: with c_ij = w_i F(nu_i, nu_j) on uniform nodes,
    sum_j w_j |sum_i c_ij e^{i nu_i tau}|^2 = sum_d R_d e^{i d dnu tau}, where
    R_d = sum_j w_j sum_i c_{i+d,j} conj(c_ij) is the photon-1
    autocorrelation summed over photon 3. One zero-padded FFT over photon 1
    and one inverse FFT give R; one chirp-z of its n lags d >= 0 (R is
    Hermitian) gives the curve, so the grid adds one row of work, not n.
    Its error is an absolute floor of ~n eps of the peak, so a grid that
    sees only the curve's tail is rejected (``DegenerateInputError``).
    ``method="continuum"`` (Gaussian filters only) sums the closed-form
    Gaussian integrals over pairs of envelope nodes as one (K, K) kernel
    quadratic form per delay (``continuum.w_pair``).
    """
    if method == "continuum":
        quad.validate_for(cfg, (f1, f2))
        return _continuum_pair(cfg, f1, f2, grid)
    if method == "quad":
        nu, w, inner = _w_photon1(cfg, (f1, f2), quad, grid, method)
        return _w_pair(w, inner, grid)
    _check_method(method)
    quad.validate_for(cfg, (f1, f2))
    nu, w = quad.nodes_weights()
    n = len(nu)
    L = _fast_len(2 * n - 1)
    f2_diag, (a, p), cols3 = _w_tables(cfg, f1, f2, None, nu)
    # photon 1 on the contiguous axis: buf[j, i] = c_ij, zero-padded to L
    buf = np.zeros((n, L), dtype=complex)
    _assemble(f2_diag, cols3, (w * a, p), out=buf[:, :n])
    np.fft.fft(buf, axis=-1, out=buf)
    sq = buf.view(float)
    sq *= sq
    power = w @ sq                                   # interleaved re^2, im^2
    R = np.fft.ifft(power[0::2] + power[1::2])
    # R[-d] = conj(R[d]): the curve is 2 Re sum_{d >= 0} R_d e^{i d dnu tau} - R_0.
    # The step is taken without the cancellation of nu[1] - nu[0], the grid's
    # start and step as given: lag phases reach (n - 1) dnu tau.
    dnu = (nu[-1] - nu[0]) / (n - 1)
    amp = czt(R[:n], grid.count, np.exp(1j * dnu * grid.step), np.exp(-1j * dnu * grid.start))
    vals = 2.0 * amp.real - R[0].real
    return _normalized((grid,), _clip_rounding(vals, n))


# The autocorrelation route's error is absolute: a rounding floor of order
# n eps of the peak, not a fraction of each value. The most negative value
# seen with the peak on the grid is -4.6 n eps (n = 128, a grid several
# periods 2 pi / dnu long), -1.6 n eps for n >= 257 and -0.5 n eps for n >= 512.
_ROUNDING_FLOOR = 16.0


def _clip_rounding(vals: np.ndarray, n: int) -> np.ndarray:
    """Zero the values that rounding alone made negative, those no lower
    than -_ROUNDING_FLOOR * n * eps of the peak on the grid. Anything lower
    means the grid holds only the curve's rounding-level tail."""
    floor = _ROUNDING_FLOOR * n * np.finfo(float).eps * vals.max()
    if not vals.min() >= -floor:
        raise DegenerateInputError(
            f"pair correlation reaches {vals.min():.3e} on this grid, below the rounding "
            f"floor -{floor:.3e} ({_ROUNDING_FLOOR:g} n eps of the peak {vals.max():.3e}); "
            "the grid holds only the curve's rounding-level tail")
    vals[vals < 0.0] = 0.0
    return vals


def g3_w_temporal(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec, f3: FilterSpec,
                  quad: QuadratureSpec, grids: tuple[Grid1D, Grid1D], *,
                  method: WMethod = "fft") -> CorrelationSurface:
    """Three-fold temporal correlation surface of the three-mode state.

    Values are indexed [a, b] with a on the photon-1 delay axis and b on
    the photon-3 delay axis.
    """
    if method == "continuum":
        quad.validate_for(cfg, (f1, f2, f3))
        return _continuum_surface(cfg, continuum.w_form(cfg, (f1, f2, f3)), grids)
    nu, w, inner = _w_photon1(cfg, (f1, f2, f3), quad, grids[0], method)
    return _w_surface(nu, w * filter_eval(f3, nu), inner, grids, method)


def g3_w_conditional(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec, f3: FilterSpec,
                     quad: QuadratureSpec, grid: Grid1D, *,
                     method: WMethod = "fft") -> CorrelationSurface:
    """Three-fold correlation along the line tau32 = -tau12 + |t12|.

    Each point is a fresh evaluation of the double integral on the line;
    nothing is interpolated from a 2-D surface, so width measurements on
    this slice carry no resampling error.
    """
    if method == "continuum":
        quad.validate_for(cfg, (f1, f2, f3))
        return _continuum_conditional(cfg, continuum.w_form(cfg, (f1, f2, f3)), grid)
    nu, w, inner = _w_photon1(cfg, (f1, f2, f3), quad, grid, method)
    return _w_conditional(cfg, nu, w * filter_eval(f3, nu), inner, grid)


def w_temporal_panels(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec, f3: FilterSpec,
                      quad: QuadratureSpec, grids: tuple[Grid1D, Grid1D], *,
                      method: WMethod = "fft") -> tuple[CorrelationSurface, ...]:
    """The three W temporal correlators of Fig. 1: ``(surface, conditional,
    pair)``, the surface over ``grids`` and both curves on ``grids[0]``.
    On ``fft`` and ``quad`` they come from one integrand and one photon-1
    transform; on ``continuum`` the surface and the slice share one
    ``continuum.w_form``, and all three one span check. The surface and the
    slice equal what ``g3_w_temporal`` and ``g3_w_conditional`` return; the
    pair equals ``g2_w_temporal`` on ``quad`` and ``continuum``, and agrees
    with its fft route to rounding.
    """
    if method == "continuum":
        # the span check for all three filters covers the pair's two
        quad.validate_for(cfg, (f1, f2, f3))
        form = continuum.w_form(cfg, (f1, f2, f3))
        return (_continuum_surface(cfg, form, grids),
                _continuum_conditional(cfg, form, grids[0]),
                _continuum_pair(cfg, f1, f2, grids[0]))
    nu, w, inner = _w_photon1(cfg, (f1, f2, f3), quad, grids[0], method)
    c3 = w * filter_eval(f3, nu)
    return (_w_surface(nu, c3, inner, grids, method),
            _w_conditional(cfg, nu, c3, inner, grids[0]),
            _w_pair(w, inner, grids[0]))


def g2_ghz_temporal(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec,
                    quad: QuadratureSpec, *, method: Method = "fft") -> float:
    """Two-photon temporal correlation of the degenerate-pair state.

    Tracing one degenerate photon pins the surviving pair to a definite
    joint mode, so the result carries no delay dependence at all; the
    value is a single positive number.
    """
    quad.validate_for(cfg, (f1, f2))
    nu, w = quad.nodes_weights()
    g = filter_eval(f1, nu) * filter_eval(f2, nu) * phi(detuning_ghz(nu, cfg))
    return _total(w * (g.real**2 + g.imag**2), method)


def g3_ghz_temporal(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec,
                    quad: QuadratureSpec, grid: Grid1D, *,
                    method: Method = "fft") -> CorrelationSurface:
    """Three-fold temporal correlation of the degenerate-pair state.

    The degenerate pair is detected together, so the delay enters the
    kernel twice (exp(+2i nu tau)); the curve is a factor 2 narrower than
    the same integrand transformed with a single-photon kernel.
    """
    quad.validate_for(cfg, (f1, f2))
    nu, w = quad.nodes_weights()
    g = filter_eval(f1, nu) ** 2 * filter_eval(f2, nu) * phi(detuning_ghz(nu, cfg))
    return _intensity((grid,), _transform(w * g, 2.0 * nu, grid.points(), method))


def _gaussian_curve(grid: Grid1D, k: float) -> np.ndarray:
    """exp(-k rho^2) over ``grid`` divided by its largest sample, which is
    then exactly 1: a grid far from rho = 0 keeps its tail, not underflow."""
    r2 = grid.points() ** 2
    return np.exp(-k * (r2 - r2.min()))


def g2_w_spatial(window: TransverseWindow, grid: Grid1D, *,
                 method: Method = "fft") -> CorrelationSurface:
    """Two-photon transverse correlation of the three-mode state,
    exp(-a^2 rho^2 / 2) with a = alpha_max.

    The undetected photon contributes an incoherent constant, which the
    peak normalization divides out, and the detected pair the squared
    Fourier transform of the Gaussian window; the width is set entirely by
    the transverse-mode bandwidth. The grid is the displacement between
    detectors 1 and 2 along one transverse axis. Every transverse
    correlator is this kind of closed form on both methods; ``method`` is
    kept because perfbench's tracer re-runs each correlator on ``quad``.
    """
    _check_method(method)
    a = window.alpha_max
    return CorrelationSurface((grid,), _gaussian_curve(grid, 0.5 * a * a), normalized=True)


def g3_w_spatial(window: TransverseWindow, grids: tuple[Grid1D, Grid1D], *,
                 method: Method = "fft") -> CorrelationSurface:
    """Three-fold transverse correlation surface of the three-mode state:
    the outer product of the two axes' ``g2_w_spatial`` curves, each
    normalized first so that no product passes through subnormals."""
    _check_method(method)
    a = window.alpha_max
    curves = (_gaussian_curve(g, 0.5 * a * a) for g in grids)
    return CorrelationSurface(grids, np.outer(*curves), normalized=True)


def g3_ghz_spatial(window: TransverseWindow, grid: Grid1D, *,
                   method: Method = "fft") -> CorrelationSurface:
    """Three-fold transverse correlation of the degenerate-pair state,
    exp(-2 a^2 rho^2) with a = alpha_max.

    The pair is detected at one point, so the displacement kernel carries
    a factor 2 and the curve is half as wide as the single-window
    reference at the same transverse bandwidth.
    """
    _check_method(method)
    a = window.alpha_max
    return CorrelationSurface((grid,), _gaussian_curve(grid, 2.0 * a * a), normalized=True)


def g2_ghz_spatial(window: TransverseWindow, *, method: Method = "fft") -> float:
    """Displacement-independent transverse constant of the degenerate-pair
    state after one photon of the pair is lost: the windowed transverse
    mode volume, the integral of the squared window, alpha_max sqrt(pi / 2)."""
    _check_method(method)
    return window.alpha_max * math.sqrt(0.5 * math.pi)


def normalize_to_peak(surface: CorrelationSurface) -> CorrelationSurface:
    """Divide by the maximum value and set the normalized flag. Idempotent."""
    return _normalized(surface.axes, surface.values)


def fwhm(surface: CorrelationSurface) -> float:
    """Full width at half maximum of a normalized 1-D curve.

    Crossings of the 0.5 level are located by linear interpolation. The
    curve must exceed the level on a single connected interior run;
    anything else (no crossing, a half-max region touching the grid edge,
    several runs) raises AmbiguousWidthError carrying every crossing found;
    its message gives the count and at most the first and last three.
    """
    if len(surface.axes) != 1:
        raise InvalidArgumentError("fwhm is defined for 1-D surfaces only")
    if not surface.normalized:
        raise InvalidArgumentError("fwhm requires a peak-normalized surface")
    x = surface.axes[0].points()
    v = surface.values
    above = v >= 0.5
    i = np.flatnonzero(above[:-1] != above[1:])
    t = (0.5 - v[i]) / (v[i + 1] - v[i])
    crossings = (x[i] + t * (x[i + 1] - x[i])).tolist()
    if len(crossings) != 2 or above[0] or above[-1]:
        shown = [repr(c) for c in crossings]
        if len(shown) > 6:
            shown[3:-3] = ["..."]
        raise AmbiguousWidthError(
            f"no unique half-maximum pair: found {len(crossings)} crossing(s)"
            + (f" at [{', '.join(shown)}]" if crossings else ""),
            crossings,
        )
    return crossings[1] - crossings[0]
