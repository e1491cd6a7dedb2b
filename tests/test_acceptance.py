"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import json
import time

import numpy as np
import pytest

from triphoton import (
    DensityMatrix,
    FilterSpec,
    Grid1D,
    ModeGrid,
    PhaseMatchConfig,
    QuadratureSpec,
    TransverseWindow,
    build_ghz_discrete,
    build_w_discrete,
    detuning_ghz,
    fidelity,
    filter_eval,
    fwhm,
    g2_ghz_spatial,
    g2_ghz_temporal,
    g2_w_spatial,
    g2_w_temporal,
    g3_ghz_spatial,
    g3_ghz_temporal,
    g3_w_conditional,
    g3_w_spatial,
    g3_w_temporal,
    make_ghz,
    make_w,
    negativity,
    normalize_to_peak,
    parse_config,
    partial_trace,
    phi,
    reduce_lost_photon,
    serialize_config,
)
from triphoton.correlators import required_span
from triphoton.cli import main

CFG = PhaseMatchConfig(-20.0, -20.0)
GAUSS = FilterSpec("gaussian", 0.4)
FLAT = FilterSpec("rectangular", 1e6)

# Conditional-to-pair width ratio at the reference settings (walk-off
# -20 ps, Gaussian 0.4 rad/ps filters, 1024-point span-3.0 quadrature,
# [0, 40] ps grid at 0.25 ps). Frozen from the direct-quadrature oracle.
WIDTH_RATIO = 0.1707226012729478


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_exact_qubit_fixtures():
    start = time.perf_counter()
    ghz12 = partial_trace(make_ghz().density(), (0, 1))
    expected_ghz = np.zeros((4, 4), dtype=complex)
    expected_ghz[0, 0] = expected_ghz[3, 3] = 0.5
    ghz_ok = np.abs(ghz12.matrix - expected_ghz).max() <= 1e-12

    w12 = partial_trace(make_w().density(), (0, 1))
    expected_w = np.zeros((4, 4), dtype=complex)
    expected_w[0, 0] = 1.0 / 3.0
    for r in (1, 2):
        for c in (1, 2):
            expected_w[r, c] = 1.0 / 3.0
    w_ok = np.abs(w12.matrix - expected_w).max() <= 1e-12

    neg_ghz = negativity(ghz12, (0,))
    neg_w = negativity(w12, (0,))
    elapsed = time.perf_counter() - start
    ok = ghz_ok and w_ok and neg_ghz <= 1e-10 and neg_w > 0.0 and elapsed < 1.0
    _report(1, ok, f"traced fixtures exact, negativities {neg_ghz:.1e}/{neg_w:.4f}, "
                   f"{elapsed * 1e3:.0f} ms")


def test_criterion_2_pair_correlation_constancy():
    quad = QuadratureSpec(1024, 3.0)
    taus = Grid1D(0.0, 0.25, 161).points()
    nu, w = quad.nodes_weights()
    # delay-resolved pair G2: the lost pair photon's frequency is traced
    # outside the modulus, and it fixes the detected photons' frequencies
    # too, so the delay enters each traced amplitude as a pure phase
    g = filter_eval(GAUSS, nu) * filter_eval(GAUSS, nu) * phi(detuning_ghz(nu, CFG))
    amp = g * np.exp(1j * np.outer(taus, nu))
    curve = (w * (amp.real**2 + amp.imag**2)).sum(axis=1)
    variation = (curve.max() - curve.min()) / curve.max()
    values = [g2_ghz_temporal(CFG, GAUSS, GAUSS, quad, method=m) for m in ("fft", "quad")]
    deviation = max(float(np.abs(curve - v).max()) / v for v in values)
    ok = min(values) > 0.0 and variation < 1e-12 and deviation < 1e-12
    _report(2, ok, f"161-point curve relative variation {variation:.1e}, "
                   f"deviation from the scalar {deviation:.1e}")


def test_criterion_3_width_ordering_and_frozen_ratio():
    start = time.perf_counter()
    quad = QuadratureSpec(1024, 3.0)
    grid = Grid1D(0.0, 0.25, 161)
    conditional = g3_w_conditional(CFG, GAUSS, GAUSS, GAUSS, quad, grid)
    pair = g2_w_temporal(CFG, GAUSS, GAUSS, quad, grid)
    fc, fg = fwhm(conditional), fwhm(pair)
    ratio = fc / fg
    elapsed = time.perf_counter() - start
    ok = (0.0 < fc < fg and np.isfinite(fc) and np.isfinite(fg)
          and abs(ratio - WIDTH_RATIO) <= 1e-3 * WIDTH_RATIO
          and elapsed < 30.0)
    _report(3, ok, f"fwhm {fc:.4f} < {fg:.4f} ps, ratio {ratio:.6f} "
                   f"(frozen {WIDTH_RATIO:.6f}), {elapsed:.1f} s")


def test_criterion_4_flat_filter_support_extent():
    # an unfiltered run has no spectral scale beyond the longitudinal
    # envelope, so the canonical span is the smallest the coverage rule
    # allows; the conditional slice then stays above 1e-3 of its peak
    # over one walk-off time
    span = required_span(CFG, (FLAT, FLAT, FLAT))
    quad = QuadratureSpec(1024, span)
    grid = Grid1D(0.0, 0.05, 801)
    cond = g3_w_conditional(CFG, FLAT, FLAT, FLAT, quad, grid)
    xs = grid.points()
    idx = np.where(cond.values > 1e-3)[0]
    extent = xs[idx[-1]] - xs[idx[0]]
    ok = abs(extent - 20.0) <= 0.05 * 20.0
    _report(4, ok, f"support extent {extent:.2f} ps vs |t12| = 20 ps (span {span:.4f})")


def test_criterion_5_engine_equivalence_on_every_correlator():
    start = time.perf_counter()
    quad = QuadratureSpec(512, 3.0)
    win = TransverseWindow(1.0)
    gt = Grid1D(0.0, 40.0 / 63, 64)
    gs = Grid1D(-6.0, 12.0 / 63, 64)

    cases = {
        "g2_w_temporal": lambda m: g2_w_temporal(CFG, GAUSS, GAUSS, quad, gt, method=m).values,
        "g3_w_temporal": lambda m: g3_w_temporal(CFG, GAUSS, GAUSS, GAUSS, quad,
                                                 (gt, gt), method=m).values,
        "g3_w_conditional": lambda m: g3_w_conditional(CFG, GAUSS, GAUSS, GAUSS, quad,
                                                       gt, method=m).values,
        "g3_ghz_temporal": lambda m: g3_ghz_temporal(CFG, GAUSS, GAUSS, quad, gt,
                                                     method=m).values,
        "g2_w_spatial": lambda m: g2_w_spatial(win, gs, n_points=512, method=m).values,
        "g3_w_spatial": lambda m: g3_w_spatial(win, (gs, gs), n_points=512, method=m).values,
        "g3_ghz_spatial": lambda m: g3_ghz_spatial(win, gs, n_points=512, method=m).values,
    }
    worst = 0.0
    for name, evaluate in cases.items():
        fast, slow = evaluate("fft"), evaluate("quad")
        worst = max(worst, float(np.abs(fast - slow).max()))
    scalar_pairs = (
        (g2_ghz_temporal(CFG, GAUSS, GAUSS, quad, method="fft"),
         g2_ghz_temporal(CFG, GAUSS, GAUSS, quad, method="quad")),
        (g2_ghz_spatial(win, method="fft"), g2_ghz_spatial(win, method="quad")),
    )
    for fast, slow in scalar_pairs:
        worst = max(worst, abs(fast - slow) / abs(slow))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(5, ok, f"worst normalized deviation {worst:.2e}, {elapsed:.1f} s")


def test_criterion_6_mode_space_separability():
    start = time.perf_counter()
    details = []
    ok = True
    for n in (4, 8, 12):
        grid = ModeGrid(n, -1.2, 1.2)
        w_red = reduce_lost_photon(build_w_discrete(CFG, (GAUSS, GAUSS, GAUSS), grid))
        ghz_red = reduce_lost_photon(build_ghz_discrete(CFG, (GAUSS, GAUSS), grid))
        w_neg = negativity(w_red, (0,))
        ghz_neg = negativity(ghz_red, (0,))
        off = ghz_red.matrix - np.diag(np.diag(ghz_red.matrix))
        offmax = float(np.abs(off).max())
        ok = ok and ghz_neg < 1e-10 and offmax < 1e-14 and w_neg > 1e-6
        details.append(f"n={n}: w {w_neg:.2e}, ghz {ghz_neg:.1e}, off {offmax:.1e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(6, ok, "; ".join(details) + f", {elapsed:.1f} s")


def test_criterion_7_spatial_factor_of_two():
    win = TransverseWindow(1.0)
    grid = Grid1D(-4.0, 0.005, 1601)
    pair_width = fwhm(g3_ghz_spatial(win, grid))
    reference_width = fwhm(g2_w_spatial(win, grid))
    ratio = pair_width / reference_width
    ok = abs(ratio - 0.5) <= 0.01 * 0.5
    _report(7, ok, f"fwhm ratio {ratio:.6f} vs 0.5")


def test_criterion_8_property_suites(tmp_path):
    checks = []

    # envelope bound, zeros, conjugacy
    x = np.linspace(-50.0, 50.0, 10001)
    checks.append(bool(np.all(np.abs(phi(x)) <= 1.0 + 1e-14)))
    roots = 2.0 * np.pi * np.arange(1, 8)
    checks.append(bool(np.abs(phi(roots)).max() < 1e-12))
    rng = np.random.default_rng(8)
    sample = rng.uniform(-30, 30, 100)
    checks.append(bool(np.abs(phi(-sample) - np.conj(phi(sample))).max() < 1e-14))

    # density-matrix invariants under randomized mixing and reduction
    for _ in range(5):
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = a @ a.conj().T
        rho = DensityMatrix(m / np.trace(m), (2, 2, 2))
        red = partial_trace(rho, (0, 2))
        checks.append(abs(complex(np.trace(red.matrix)) - 1.0) <= 1e-12)
        checks.append(float(np.abs(red.matrix - red.matrix.conj().T).max()) <= 1e-12)
        checks.append(float(np.linalg.eigvalsh(red.matrix).min()) >= -1e-10)

    # normalization idempotence
    quad = QuadratureSpec(256, 3.0)
    surf = g2_w_temporal(CFG, GAUSS, GAUSS, quad, Grid1D(0.0, 0.5, 81))
    again = normalize_to_peak(surf)
    checks.append(bool(np.array_equal(surf.values, again.values)))

    # config round-trip
    cfg = parse_config('{"quadrature": {"n_points": 256}}')
    checks.append(parse_config(serialize_config(cfg)) == cfg)

    # byte-identical reruns of the same command
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "quadrature": {"n_points": 256, "nu_span_rad_per_ps": 3.0},
        "grids": {"tau12_ps": {"start": 0.0, "step": 0.5, "count": 81},
                  "tau32_ps": {"start": 0.0, "step": 0.5, "count": 81}},
    }), encoding="utf-8")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = main(["correlate", "--config", str(cfg_path), "--out", str(out1),
                "--state", "ghz12", "--domain", "time", "--order", "3"])
    rc2 = main(["correlate", "--config", str(cfg_path), "--out", str(out2),
                "--state", "ghz12", "--domain", "time", "--order", "3"])
    same = ((out1 / "correlate_ghz12_time_g3.csv").read_bytes()
            == (out2 / "correlate_ghz12_time_g3.csv").read_bytes())
    checks.append(rc1 == 0 and rc2 == 0 and same)

    ok = all(checks)
    _report(8, ok, f"{len(checks)} property checks, all green" if ok
            else f"failures at positions {[i for i, c in enumerate(checks) if not c]}")
