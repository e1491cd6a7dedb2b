"""triphoton benchmark: CLI set-up and command latency, end to end and per layer.

Usage (from the repository root):
    python3 perfbench/run.py --workload figure1 --seed 1 --seconds 25 --trace 0

Workloads: figure1, modes-large, correlate-fine (see perfbench/README.md).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run instead. Lines before it record the environment
and how each figure was taken.

``triphoton`` is run from ``src`` (``python -m triphoton.cli`` with
``src`` on ``PYTHONPATH``); nothing needs to be installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0        # whole run, set-up included
SETUP_RUNS = 3          # fresh processes (and warm repeats) per set-up figure
# The timed loop also runs until it has this many samples, so cmd_s_tail
# (ten samples beyond it) is at least p69.7. On modes-large that is 11
# cycles, which keeps the tail among the n=33 commands whatever the speed.
MIN_SAMPLES = 33
IMPORT_NAMES = {"triphoton": "setup.import.triphoton_s",
                "scipy.signal": "setup.import.scipy_signal_s",
                "numpy": "setup.import.numpy_s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    """Environment of every process the benchmark starts: ``src`` on the
    path and the BLAS thread count capped at the cores this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    nproc = len(os.sched_getaffinity(0))
    asked = env.get("OPENBLAS_NUM_THREADS", "")
    threads = int(asked) if asked.isdigit() and int(asked) > 0 else nproc
    env["OPENBLAS_NUM_THREADS"] = str(min(threads, nproc))
    return env


def machine() -> dict:
    """CPU, cores and caches of the machine the run measured."""
    info: dict = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (
                    (index / "size").read_text().strip())
        info["caches_per_instance"] = caches
    except OSError:
        pass
    return info


def deadline_left(started: float) -> float:
    left = BUDGET_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError(f"run exceeded its {BUDGET_S:.0f} s budget")
    return left


def fresh_command(argv: list[str], env: dict, started: float) -> tuple[float, int]:
    """Wall time and exit code of one command in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "triphoton.cli", *argv], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=deadline_left(started))
    return time.perf_counter() - t0, proc.returncode


def import_times(env: dict, started: float) -> dict[str, float]:
    """Cumulative import time in seconds of each module in IMPORT_NAMES,
    from ``python -X importtime`` in a fresh interpreter (0 if not imported)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import triphoton.cli"],
                          cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=deadline_left(started))
    if proc.returncode != 0:
        raise BenchError(f"importing triphoton.cli failed:\n{proc.stderr[-2000:]}")
    out = {name: 0.0 for name in IMPORT_NAMES}
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() in out:
            out[fields[2].strip()] = int(fields[1]) / 1e6
    return out


def run_worker(plan: dict, work: Path, env: dict, started: float) -> dict:
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                           str(result_path)], cwd=ROOT, env=env, stderr=subprocess.PIPE,
                          stdout=subprocess.DEVNULL, text=True, timeout=deadline_left(started))
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    sample with exactly ten larger ones, and its percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "triphoton" / "cli.py").is_file():
        print(f"perfbench: no triphoton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = wl.load_reference()
    cycles = wl.cycles(args.workload, args.seed, reference)
    pool = reference["workloads"][args.workload]
    setup_cmd = cycles[0][0]  # cycle 0 only supplies the set-up command
    env = child_env()
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = {"root": str(ROOT), "workload": args.workload, "work_dir": str(work),
                "trace": bool(args.trace), "seconds": args.seconds, "warm_runs": SETUP_RUNS,
                "min_samples": MIN_SAMPLES,
                "setup_command": setup_cmd, "cycles": cycles[1:]}
        attempted = failed = 0
        problems: list[str] = []
        if args.trace:
            imports = [import_times(env, started) for _ in range(SETUP_RUNS)]
        else:
            fresh = []
            cfg = wl.write_config(pool, setup_cmd["entry"], work / "cfg")
            out_dir = work / "out"
            for _ in range(SETUP_RUNS):
                wl.clear(out_dir)
                seconds, code = fresh_command(
                    wl.argv_for(setup_cmd["kind"], str(cfg), str(out_dir)), env, started)
                found, _ = wl.check(setup_cmd["kind"], out_dir,
                                    pool[setup_cmd["entry"]]["expected"][setup_cmd["kind"]])
                if code != 0:
                    found.insert(0, f"fresh {setup_cmd['kind']}: exit code {code}")
                attempted += 1
                failed += bool(found)
                problems += found
                fresh.append(seconds)
        result = run_worker(plan, work, env, started)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted += result["attempted"]
    failed += result["failed"]
    problems += result["problems"]
    env_record = {**machine(), **result["env"],
                  "OPENBLAS_NUM_THREADS": int(env["OPENBLAS_NUM_THREADS"])}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env_record, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["metrics"].items()}
        for module, key in IMPORT_NAMES.items():
            metrics[key] = {"value": statistics.median(i[module] for i in imports), "unit": "s"}
        print(f"traced {result['traced_commands']} commands in {result['cycles']} cycles, "
              "each also run untraced; computed counts (from array shapes and file sizes): "
              "spectra.phi.points, correlators.czt.points, modes.rho_bytes, "
              "qubits.eig_work_d3, cli.bytes_written")
    else:
        samples = result["samples"]
        tail_s, tail_pct = tail(samples)
        setup_s = statistics.median(fresh) - statistics.median(result["warm_setup_command_s"])
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "cmd_s_p50": {"value": statistics.median(samples), "unit": "s"},
            "cmd_s_tail": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"cmd_s_tail is p{tail_pct:.1f} of {len(samples)} samples "
              f"({result['cycles']} cycles); set-up command {setup_cmd['kind']} "
              f"fresh {[round(s, 4) for s in fresh]} s")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} commands failed)")
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
