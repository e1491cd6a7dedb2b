"""One workload's worker process: runs commands through ``triphoton.cli.main``.

Usage: python perfbench/worker.py PLAN.json RESULT.json

A single client issues commands back to back (a closed loop). Each command
reads a config file and writes its outputs into an emptied directory; the
outputs are checked after the command's timer has stopped. The plan and
the result are JSON files written by ``run.py``.
"""

from __future__ import annotations

import ctypes
import glob
import importlib.metadata
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads as wl


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None if no OpenBLAS is found."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


class Client:
    """Issues one command at a time and checks what it wrote."""

    def __init__(self, plan: dict, cli) -> None:
        self.cli = cli
        self.pool = wl.load_reference()["workloads"][plan["workload"]]
        work = Path(plan["work_dir"])
        self.cfg_dir = work / "cfg"
        self.out_dir = work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bytes_written = 0

    def run(self, cmd: dict, tracer=None) -> float:
        """Run one command; return its wall time in seconds."""
        cfg = wl.write_config(self.pool, cmd["entry"], self.cfg_dir)
        argv = wl.argv_for(cmd["kind"], str(cfg), str(self.out_dir))
        wl.clear(self.out_dir)
        if tracer is None:
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            seconds = time.perf_counter() - t0
        else:
            code, seconds = tracer.run_command(lambda: self.cli.main(argv))
        problems = [] if code == 0 else [f"{cmd['kind']}: exit code {code}"]
        found, nbytes = wl.check(cmd["kind"], self.out_dir,
                                 self.pool[cmd["entry"]]["expected"][cmd["kind"]])
        self.bytes_written = nbytes
        self.attempted += 1
        if problems or found:
            self.failed += 1
            self.problems.extend(f"entry {cmd['entry']}: {p}" for p in problems + found)
        return seconds


def timed(plan: dict, client: Client) -> dict:
    """Warm runs of the set-up command, then whole cycles until
    ``seconds`` of command time and ``min_samples`` commands have been
    measured."""
    setup_cmd = plan["setup_command"]
    client.run(setup_cmd)  # first in-process call: lazy set-up, not warm
    warm = [client.run(setup_cmd) for _ in range(plan["warm_runs"])]
    samples: list[float] = []
    cycles = plan["cycles"]
    c = 0
    while sum(samples) < plan["seconds"] or len(samples) < plan["min_samples"]:
        samples.extend(client.run(cmd) for cmd in cycles[c % len(cycles)])
        c += 1
    return {"warm_setup_command_s": warm, "samples": samples, "cycles": c}


def traced(plan: dict, client: Client, modules) -> dict:
    """Each command runs untraced and traced (alternating which goes
    first), over whole cycles until ``seconds`` have been measured."""
    from tracing import CORRELATORS, MODES, Tracer

    tracer = Tracer()
    client.run(plan["setup_command"])  # lazy set-up, untimed
    plain: list[float] = []
    spans: list[float] = []
    nbytes = 0
    cycles = plan["cycles"]
    c = 0
    while sum(plain) + sum(spans) < plan["seconds"]:
        for cmd in cycles[c % len(cycles)]:
            for traced_pass in ((False, True) if len(plain) % 2 == 0 else (True, False)):
                if traced_pass:
                    tracer.install(*modules)
                    try:
                        spans.append(client.run(cmd, tracer))
                    finally:
                        tracer.uninstall()
                    nbytes += client.bytes_written
                else:
                    plain.append(client.run(cmd))
        c += 1

    n = len(spans)

    def ms(name: str) -> float:
        return 1e3 * tracer.self_s.get(name, 0.0) / n

    def per_cmd(value: float) -> float:
        return value / n

    m: dict[str, tuple[float, str]] = {
        "cli.self_ms": (ms("cli"), "ms"),
        "cli.write_surface_csv.ms": (ms("cli.write_surface_csv"), "ms"),
        "cli.write_curve_csv.ms": (ms("cli.write_curve_csv"), "ms"),
        "cli.bytes_written": (per_cmd(nbytes), "bytes"),
    }
    for name in ("phi", "filter_eval"):
        m[f"spectra.{name}.ms"] = (ms(f"spectra.{name}"), "ms")
        m[f"spectra.{name}.points"] = (per_cmd(tracer.counts[f"spectra.{name}.points"]), "count")
    m["spectra.phi.calls"] = (per_cmd(tracer.calls["spectra.phi"]), "count")
    corr_self = 0.0
    for name in CORRELATORS + ("fwhm",):
        m[f"correlators.{name}.ms"] = (ms(f"correlators.{name}"), "ms")
        m[f"correlators.{name}.calls"] = (per_cmd(tracer.calls[f"correlators.{name}"]), "count")
        corr_self += m[f"correlators.{name}.ms"][0]
    m["correlators.self_ms"] = (corr_self, "ms")
    m["correlators.czt.ms"] = (ms("correlators.czt"), "ms")
    m["correlators.czt.calls"] = (per_cmd(tracer.calls["correlators.czt"]), "count")
    m["correlators.czt.points"] = (per_cmd(tracer.counts["correlators.czt.points"]), "count")
    m["correlators.fft_quad_maxrel"] = (tracer.fft_quad_maxrel, "ratio")
    for name in MODES:
        m[f"modes.{name}.ms"] = (ms(f"modes.{name}"), "ms")
    m["modes.rho_bytes"] = (per_cmd(tracer.counts["modes.rho_bytes"]), "bytes")
    m["qubits.DensityMatrix.ms"] = (ms("qubits.DensityMatrix"), "ms")
    m["qubits.DensityMatrix.calls"] = (per_cmd(tracer.calls["qubits.DensityMatrix"]), "count")
    for name in ("negativity", "partial_transpose", "partial_trace", "fidelity"):
        m[f"qubits.{name}.ms"] = (ms(f"qubits.{name}"), "ms")
    m["qubits.negativity.dim_max"] = (tracer.dim_max, "count")
    m["qubits.eig_work_d3"] = (per_cmd(tracer.counts["qubits.eig_work_d3"]), "count")
    m["trace.overhead_ratio"] = (statistics.median(spans) / statistics.median(plain), "ratio")
    return {"metrics": m, "traced_commands": n, "cycles": c}


def main(argv: list[str]) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    from triphoton import cli, correlators, modes, qubits

    import numpy

    client = Client(plan, cli)
    if plan["trace"]:
        result = traced(plan, client, (cli, correlators, modes, qubits))
    else:
        result = timed(plan, client)
    result.update({
        "attempted": client.attempted,
        "failed": client.failed,
        "problems": client.problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {"numpy": numpy.__version__, "scipy": _version("scipy"),
                "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
                "blas_threads": blas_threads()},
    })
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
