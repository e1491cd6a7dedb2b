"""Second- and third-order correlation surfaces for both triphoton states.

Every correlator is evaluated on user-supplied delay or displacement
grids by two interchangeable engines:

* ``method="fft"``: a chirp-z transform (Bluestein's algorithm on
  ``numpy.fft``, implemented here as ``czt``) that evaluates the
  discretized oscillatory integral on an arbitrary uniform output grid at
  FFT cost.
* ``method="quad"``: direct quadrature, an explicit phase matrix summed
  per output point. Slower, trivially auditable, and used as the oracle
  the fast path is checked against.

Both engines sum the identical trapezoid-weighted samples, so they must
agree to rounding error; a disagreement means one of them is wrong.

Delay kernels use exp(+i nu tau). With the negative group-delay
parameters used throughout, this places the correlation support on
positive delays, where coincidences are physically recorded; the number
of sign flips between the envelope phase and the delay kernel is what
matters, not either sign alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

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
    detuning_w,
    filter_eval,
    phi,
    window_eval,
)

Method = Literal["fft", "quad"]


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

    n_points: int = 1024
    nu_span: float = 3.0

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

    @property
    def grid(self) -> Grid1D:
        if len(self.axes) != 1:
            raise InvalidArgumentError("grid is only defined for 1-D surfaces")
        return self.axes[0]


def _check_method(method: str) -> None:
    if method not in ("fft", "quad"):
        raise InvalidArgumentError(f"method must be 'fft' or 'quad', got {method!r}")


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


def czt(x: np.ndarray, m: int, w: complex, a: complex, axis: int = -1) -> np.ndarray:
    """Chirp-z transform X_k = sum_n x_n a^-n w^(n k), k = 0..m-1, along ``axis``.

    Bluestein: n k = (n^2 + k^2 - (k - n)^2) / 2 turns the sum into a
    circular convolution with the chirp w^(-j^2/2), evaluated by FFT in one
    C-ordered, zero-padded (rows, L) buffer so that transposed inputs never
    reach the FFT as strided views.
    """
    x = np.moveaxis(np.asarray(x), axis, -1)
    n = x.shape[-1]
    L = _fast_len(n + m - 1)
    k = np.arange(max(m, n))
    wk2 = w ** (k**2 / 2)
    kernel = np.zeros(L, dtype=complex)
    kernel[:m] = 1.0 / wk2[:m]
    kernel[L - n + 1:] = 1.0 / wk2[n - 1:0:-1]
    buf = np.zeros(x.shape[:-1] + (L,), dtype=complex)
    np.multiply(x, a ** -k[:n] * wk2[:n], out=buf[..., :n])
    np.fft.fft(buf, axis=-1, out=buf)
    buf *= np.fft.fft(kernel)
    np.fft.ifft(buf, axis=-1, out=buf)
    return np.moveaxis(buf[..., :m] * wk2[:m], -1, axis)


def _transform_czt(c: np.ndarray, nu: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """sum_n c[..., n] * exp(+i nu_n tau_a) along the last axis, chirp-z path.

    Requires both grids uniform; the chirp-z factorization is exact for
    arbitrary start and step, no zero padding or resampling involved.
    """
    dnu = nu[1] - nu[0]
    tau0 = taus[0]
    dtau = taus[1] - taus[0]
    w = np.exp(1j * dnu * dtau)
    a = np.exp(-1j * dnu * tau0)
    out = czt(c, m=len(taus), w=w, a=a, axis=-1)
    out = out * np.exp(1j * nu[0] * taus)
    return out


def _transform_direct(c: np.ndarray, nu: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Same sum as the chirp-z path, via an explicit phase matrix."""
    kernel = np.exp(1j * np.outer(nu, taus))
    return c @ kernel


def _transform(c: np.ndarray, nu: np.ndarray, taus: np.ndarray, method: Method) -> np.ndarray:
    if method == "fft":
        return _transform_czt(c, nu, taus)
    return _transform_direct(c, nu, taus)


def _w_integrand(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec,
                 f3: FilterSpec | None, nu: np.ndarray) -> np.ndarray:
    """Joint spectral amplitude samples F[i, j] over (nu1_i, nu3_j); the
    undetected photon 2 sits at -(nu1 + nu3)."""
    nu1 = nu[:, None]
    nu3 = nu[None, :]
    F = (filter_eval(f1, nu)[:, None]
         * filter_eval(f2, -nu1 - nu3)
         * phi(detuning_w(nu1, nu3, cfg)))
    if f3 is not None:
        F = F * filter_eval(f3, nu)[None, :]
    return F


def g2_w_temporal(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec,
                  quad: QuadratureSpec, grid: Grid1D, *,
                  method: Method = "fft") -> CorrelationSurface:
    """Two-photon temporal correlation of the three-mode state.

    The third photon is undetected: its frequency is integrated
    incoherently (outside the modulus), which is what keeps a finite
    correlation width after the loss.
    """
    _check_method(method)
    quad.validate_for(cfg, (f1, f2))
    nu, w = quad.nodes_weights()
    F = _w_integrand(cfg, f1, f2, None, nu)
    # transform over nu1 (axis 0) per nu3 sample, then trapezoid over nu3
    inner = _transform((w[:, None] * F).T, nu, grid.points(), method)
    vals = w @ (inner.real**2 + inner.imag**2)
    return normalize_to_peak(CorrelationSurface((grid,), vals))


def g3_w_temporal(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec, f3: FilterSpec,
                  quad: QuadratureSpec, grids: tuple[Grid1D, Grid1D], *,
                  method: Method = "fft") -> CorrelationSurface:
    """Three-fold temporal correlation surface of the three-mode state.

    Values are indexed [a, b] with a on the photon-1 delay axis and b on
    the photon-3 delay axis.
    """
    _check_method(method)
    quad.validate_for(cfg, (f1, f2, f3))
    g12, g32 = grids
    nu, w = quad.nodes_weights()
    F = _w_integrand(cfg, f1, f2, f3, nu) * w[:, None] * w[None, :]
    # nu3 axis -> tau32, then nu1 axis -> tau12
    half = _transform(F, nu, g32.points(), method)           # (n1, m32)
    amp = _transform(half.T, nu, g12.points(), method).T     # (m12, m32)
    vals = amp.real**2 + amp.imag**2
    return normalize_to_peak(CorrelationSurface((g12, g32), vals))


def g3_w_conditional(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec, f3: FilterSpec,
                     quad: QuadratureSpec, grid: Grid1D, *,
                     method: Method = "fft") -> CorrelationSurface:
    """Three-fold correlation along the line tau32 = -tau12 + |t12|.

    Each point is a fresh evaluation of the double integral on the line;
    nothing is interpolated from a 2-D surface, so width measurements on
    this slice carry no resampling error.
    """
    _check_method(method)
    quad.validate_for(cfg, (f1, f2, f3))
    nu, w = quad.nodes_weights()
    u = grid.points()
    tau32 = -u + abs(cfg.t12)
    F = _w_integrand(cfg, f1, f2, f3, nu) * w[:, None] * w[None, :]
    phase3 = np.exp(1j * np.outer(nu, tau32))            # (n3, m)
    half = _transform(F.T, nu, u, method)                # (n3, m) transform over nu1
    amp = (half * phase3).sum(axis=0)
    vals = amp.real**2 + amp.imag**2
    return normalize_to_peak(CorrelationSurface((grid,), vals))


def g2_ghz_temporal(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec,
                    quad: QuadratureSpec, *, method: Method = "fft") -> float:
    """Two-photon temporal correlation of the degenerate-pair state.

    Tracing one degenerate photon pins the surviving pair to a definite
    joint mode, so the result carries no delay dependence at all; the
    value is a single positive number. The quad path accumulates with a
    compensated serial sum as an order-independent cross-check.
    """
    _check_method(method)
    quad.validate_for(cfg, (f1, f2))
    nu, w = quad.nodes_weights()
    g = filter_eval(f1, nu) * filter_eval(f2, nu) * phi(detuning_ghz(nu, cfg))
    density = w * (g.real**2 + g.imag**2)
    if method == "quad":
        return math.fsum(density.tolist())
    return float(density.sum())


def g3_ghz_temporal(cfg: PhaseMatchConfig, f1: FilterSpec, f2: FilterSpec,
                    quad: QuadratureSpec, grid: Grid1D, *,
                    method: Method = "fft") -> CorrelationSurface:
    """Three-fold temporal correlation of the degenerate-pair state.

    The degenerate pair is detected together, so the delay enters the
    kernel twice (exp(+2i nu tau)); the curve is a factor 2 narrower than
    the same integrand transformed with a single-photon kernel.
    """
    _check_method(method)
    quad.validate_for(cfg, (f1, f2))
    nu, w = quad.nodes_weights()
    g = filter_eval(f1, nu) ** 2 * filter_eval(f2, nu) * phi(detuning_ghz(nu, cfg))
    amp = _transform(w * g, 2.0 * nu, grid.points(), method)
    vals = amp.real**2 + amp.imag**2
    return normalize_to_peak(CorrelationSurface((grid,), vals))


def _alpha_nodes_weights(window: TransverseWindow, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    # 6 window half-widths put the amplitude at exp(-36); nothing survives beyond
    return QuadratureSpec(n_points, 6.0 * window.alpha_max).nodes_weights()


def g2_w_spatial(window: TransverseWindow, grid: Grid1D, *, n_points: int = 1024,
                 method: Method = "fft") -> CorrelationSurface:
    """Two-photon transverse correlation of the three-mode state.

    The undetected photon contributes an incoherent constant, the
    detected pair a windowed Fourier kernel; the width is set entirely by
    the transverse-mode bandwidth. The grid is the displacement between
    detectors 1 and 2 along one transverse axis.
    """
    _check_method(method)
    alpha, w = _alpha_nodes_weights(window, n_points)
    W = window_eval(window, alpha)
    const3 = float(np.sum(w * W**2))
    inner = _transform(w * W, alpha, grid.points(), method)
    vals = const3 * (inner.real**2 + inner.imag**2)
    return normalize_to_peak(CorrelationSurface((grid,), vals))


def g3_w_spatial(window: TransverseWindow, grids: tuple[Grid1D, Grid1D], *, n_points: int = 1024,
                 method: Method = "fft") -> CorrelationSurface:
    """Three-fold transverse correlation surface of the three-mode state."""
    _check_method(method)
    g12, g32 = grids
    alpha, w = _alpha_nodes_weights(window, n_points)
    W = window_eval(window, alpha)
    c = w * W
    a1 = _transform(c, alpha, g12.points(), method)
    a3 = _transform(c, alpha, g32.points(), method)
    amp = np.outer(a1, a3)
    vals = amp.real**2 + amp.imag**2
    return normalize_to_peak(CorrelationSurface((g12, g32), vals))


def g3_ghz_spatial(window: TransverseWindow, grid: Grid1D, *, n_points: int = 1024,
                   method: Method = "fft") -> CorrelationSurface:
    """Three-fold transverse correlation of the degenerate-pair state.

    The pair is detected at one point, so the displacement kernel carries
    a factor 2 and the curve is half as wide as the single-window
    reference at the same transverse bandwidth.
    """
    _check_method(method)
    alpha, w = _alpha_nodes_weights(window, n_points)
    W = window_eval(window, alpha)
    c = w * W
    amp = _transform(c, 2.0 * alpha, grid.points(), method)
    vals = amp.real**2 + amp.imag**2
    return normalize_to_peak(CorrelationSurface((grid,), vals))


def g2_ghz_spatial(window: TransverseWindow, *, n_points: int = 1024,
                   method: Method = "fft") -> float:
    """Displacement-independent transverse constant of the degenerate-pair
    state after one photon of the pair is lost: the windowed transverse
    mode volume."""
    _check_method(method)
    alpha, w = _alpha_nodes_weights(window, n_points)
    W = window_eval(window, alpha)
    density = w * W**2
    if method == "quad":
        return math.fsum(density.tolist())
    return float(density.sum())


def normalize_to_peak(surface: CorrelationSurface) -> CorrelationSurface:
    """Divide by the maximum value and set the normalized flag. Idempotent."""
    peak = float(surface.values.max())
    if peak <= 0.0:
        raise DegenerateInputError("cannot normalize an all-zero surface")
    return replace(surface, values=surface.values / peak, normalized=True)


def fwhm(surface: CorrelationSurface) -> float:
    """Full width at half maximum of a normalized 1-D curve.

    Crossings of the 0.5 level are located by linear interpolation. The
    curve must exceed the level on a single connected interior run;
    anything else (no crossing, a half-max region touching the grid edge,
    several runs) raises AmbiguousWidthError listing every crossing found.
    """
    if len(surface.axes) != 1:
        raise InvalidArgumentError("fwhm is defined for 1-D surfaces only")
    if not surface.normalized:
        raise InvalidArgumentError("fwhm requires a peak-normalized surface")
    x = surface.axes[0].points()
    v = surface.values
    above = v >= 0.5
    crossings: list[float] = []
    for i in range(len(v) - 1):
        if above[i] != above[i + 1]:
            t = (0.5 - v[i]) / (v[i + 1] - v[i])
            crossings.append(float(x[i] + t * (x[i + 1] - x[i])))
    if len(crossings) != 2 or above[0] or above[-1]:
        raise AmbiguousWidthError(
            f"no unique half-maximum pair: found {len(crossings)} crossing(s)"
            + (f" at {crossings}" if crossings else ""),
            crossings,
        )
    return crossings[1] - crossings[0]
