"""Spans around the public functions of each triphoton module.

The program is not edited. ``Tracer.install`` replaces public names where
their callers look them up (``correlators.phi``, ``correlators.czt``,
``modes.reduce_w_trace3``, ...) with wrappers that time the call and add
computed counts; ``uninstall`` puts the originals back, so untimed runs
execute the program exactly as shipped. A name that a later version of
the program no longer has is skipped and its metrics read 0.

Self time of a span is its duration minus the time of the spans it
encloses. Work the tracer does for itself (re-evaluating each correlator
call with ``method="quad"``) runs after the command, outside every span.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

import numpy as np

CORRELATORS = ("g2_w_temporal", "g3_w_temporal", "g3_w_conditional", "g2_ghz_temporal",
               "g3_ghz_temporal", "g2_w_spatial", "g3_w_spatial", "g3_ghz_spatial",
               "g2_ghz_spatial")
MODES = ("build_w_discrete", "build_ghz_discrete", "reduce_w_trace3",
         "reduce_ghz_trace_one_degenerate", "purity")


def _dim(rho) -> int:
    return int(np.prod(rho.dims))


def _max_rel_dev(fast, oracle) -> float:
    """Largest deviation between two results, relative to the oracle's peak."""
    if isinstance(oracle, float):
        return abs(fast - oracle) / abs(oracle)
    a, b = fast.values, oracle.values
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class Tracer:
    """Per-name self time, call counts and computed counts for one run."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.fft_quad_maxrel = 0.0
        self.dim_max = 0
        self._stack: list[list[float]] = []
        self._pending: list[tuple] = []
        self._active = False
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            frame = [0.0]  # time spent in enclosed spans
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[name] += dt - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name, after=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, fn, after))

    def install(self, cli, correlators, modes, qubits) -> None:
        """Wrap every traced name of the given triphoton modules. The
        ``spectra`` functions are wrapped in the modules that call them."""
        count = self.counts

        def points(key, pos):
            def after(args, kwargs, result):
                count[key] += np.size(args[pos])
            return after

        for owner in (correlators, modes):
            self._patch(owner, "phi", "spectra.phi", points("spectra.phi.points", 0))
            self._patch(owner, "filter_eval", "spectra.filter_eval",
                        points("spectra.filter_eval.points", 1))

        def czt_points(args, kwargs, result):
            # (input length) x (output length) per transformed row: the
            # multiply-adds of the direct sum the chirp-z replaces
            m = kwargs["m"] if "m" in kwargs else args[1]
            count["correlators.czt.points"] += np.size(args[0]) * int(m)

        self._patch(correlators, "czt", "correlators.czt", czt_points)

        for fname in CORRELATORS:
            fn = getattr(correlators, fname, None)
            if fn is not None:
                self._patch(correlators, fname, f"correlators.{fname}",
                            self._quad_check(fn))
        self._patch(correlators, "fwhm", "correlators.fwhm")

        def rho_bytes(args, kwargs, result):
            count["modes.rho_bytes"] += result.matrix.nbytes

        for fname in MODES:
            after = rho_bytes if fname.startswith("reduce_") else None
            self._patch(modes, fname, f"modes.{fname}", after)

        def d3(factor):
            def after(args, kwargs, result):
                d = _dim(args[0])
                count["qubits.eig_work_d3"] += factor * d ** 3
                if factor == 1:
                    self.dim_max = max(self.dim_max, d)
            return after

        def construct_d3(args, kwargs, result):
            count["qubits.eig_work_d3"] += _dim(args[0]) ** 3

        self._patch(qubits.DensityMatrix, "__post_init__", "qubits.DensityMatrix", construct_d3)
        self._patch(qubits, "negativity", "qubits.negativity", d3(1))
        self._patch(qubits, "fidelity", "qubits.fidelity", d3(2))
        for fname in ("partial_transpose", "partial_trace"):
            self._patch(qubits, fname, f"qubits.{fname}")

        self._patch(cli, "write_surface_csv", "cli.write_surface_csv")
        self._patch(cli, "write_curve_csv", "cli.write_curve_csv")

    def _quad_check(self, fn):
        """Queue a re-evaluation of a correlator call on the direct-quadrature
        engine; ``run_command`` runs the queue after the command's span."""
        def after(args, kwargs, result):
            if kwargs.get("method", "fft") == "fft":
                self._pending.append((fn, args, kwargs, result))
        return after

    def _check_engines(self) -> None:
        """Keep the largest relative deviation of the fft engine from quad."""
        while self._pending:
            fn, args, kwargs, result = self._pending.pop()
            dev = _max_rel_dev(result, fn(*args, **{**kwargs, "method": "quad"}))
            # a NaN would be lost by max(); report it as an infinite deviation
            self.fft_quad_maxrel = max(self.fft_quad_maxrel,
                                       dev if math.isfinite(dev) else math.inf)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # ---------------------------------------------------------- commands

    def run_command(self, call):
        """Run ``call()`` as the root ``cli`` span and return its result and
        wall time. The engine cross-check runs after the span, untimed."""
        frame = [0.0]
        self._stack.append(frame)
        self._active = True
        t0 = time.perf_counter()
        try:
            result = call()
        finally:
            dt = time.perf_counter() - t0
            self._active = False
            self._stack.pop()
        self.self_s["cli"] += dt - frame[0]
        self.calls["cli"] += 1
        self._check_engines()
        return result, dt
