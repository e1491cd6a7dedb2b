"""Record the input pools and reference outputs in ``reference.json``.

Usage: python3 perfbench/record_reference.py   (from the repository root)

Draws every workload's pool of configurations from a fixed seed, runs each
command once through ``triphoton.cli.main`` and stores the values the
benchmark later checks against. Run it only to redefine the reference:
the point of the file is that it holds the outputs of the commit that
recorded it. Takes about ten minutes on 2 cores.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from triphoton import cli  # noqa: E402

POOL_SEED = 20090313
POOL_SIZE = {"figure1": 256, "modes-large": 64, "correlate-fine": 256}  # modes: per bin count

FINE_GRIDS = {
    "tau12_ps": {"start": 0.0, "step": 0.0125, "count": 2561},
    "rho12_um": {"start": -8.0, "step": 0.0078125, "count": 2049},
}


def _walk_off(rng: random.Random) -> dict:
    return {"t12_ps": round(rng.uniform(-22.0, -18.0), 6),
            "t32_ps": round(rng.uniform(-22.0, -18.0), 6)}


def _filters(rng: random.Random) -> list:
    sigma = round(rng.uniform(0.36, 0.44), 6)
    return [{"sigma_rad_per_ps": sigma} for _ in range(3)]


def pools() -> dict:
    rng = random.Random(POOL_SEED)
    figure1 = [{"phase_match": _walk_off(rng), "filters": _filters(rng)}
               for _ in range(POOL_SIZE["figure1"])]
    modes = [{"phase_match": _walk_off(rng), "mode_grid": {"n_bins": n}}
             for n in wl.MODES_BINS for _ in range(POOL_SIZE["modes-large"])]
    fine = [{"phase_match": _walk_off(rng), "filters": _filters(rng),
             "transverse": {"alpha_max_rad_per_um": round(rng.uniform(0.9, 1.1), 6)},
             "grids": FINE_GRIDS}
            for _ in range(POOL_SIZE["correlate-fine"])]
    return {"figure1": figure1, "modes-large": modes, "correlate-fine": fine}


def kinds(workload: str) -> tuple[str, ...]:
    return {"figure1": ("figure1",), "modes-large": ("modes",),
            "correlate-fine": wl.CORRELATE_KINDS}[workload]


def main() -> int:
    out = {"pool_seed": POOL_SEED, "rtol": wl.RTOL, "atol": wl.ATOL, "workloads": {}}
    scratch = HERE.parent / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        work = Path(tmp)
        cfg_path, out_dir = work / "cfg.json", work / "out"
        for workload, configs in pools().items():
            entries = []
            for i, config in enumerate(configs):
                cfg_path.write_text(json.dumps(config), encoding="utf-8")
                expected = {}
                for kind in kinds(workload):
                    wl.clear(out_dir)
                    code = cli.main(wl.argv_for(kind, str(cfg_path), str(out_dir)))
                    obs, problems, _ = wl.observe(kind, out_dir)
                    if code != 0 or problems:
                        raise SystemExit(f"{workload} entry {i} {kind}: exit {code}, {problems}")
                    expected[kind] = obs
                entries.append({"config": config, "expected": expected})
                print(f"{workload} {i + 1}/{len(configs)}", file=sys.stderr)
            out["workloads"][workload] = entries
    write(out)
    return 0


def write(out: dict) -> None:
    """One pool entry per line, so a re-recording diffs entry by entry."""
    lines = [json.dumps({k: v for k, v in out.items() if k != "workloads"}, sort_keys=True)[:-1]
             + ', "workloads": {']
    for w, (name, entries) in enumerate(out["workloads"].items()):
        lines.append(json.dumps(name) + ": [")
        lines += [json.dumps(e, sort_keys=True) + ("," if i < len(entries) - 1 else "")
                  for i, e in enumerate(entries)]
        lines.append("]" + ("," if w < len(out["workloads"]) - 1 else ""))
    lines.append("}}")
    wl.REFERENCE_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
