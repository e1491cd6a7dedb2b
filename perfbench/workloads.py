"""Workload definitions, command sequences and output checks.

A workload is a stream of CLI commands. Every command's configuration is
taken from a fixed pool recorded in ``reference.json`` together with the
values the commands produced at the commit that defined the benchmark. A
run's seed only chooses the order in which pool entries are used, so the
same seed always gives the same inputs and every input has a reference to
check against.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("figure1", "modes-large", "correlate-fine")

# correlate-fine commands: the four 1-D curves and the two order-2 scalars.
CORRELATE_KINDS = (
    "correlate/w111/time/2",
    "correlate/ghz12/time/3",
    "correlate/w111/space/2",
    "correlate/ghz12/space/3",
    "correlate/ghz12/time/2",
    "correlate/ghz12/space/2",
)
HEAVY, *LIGHT = CORRELATE_KINDS
MODES_BINS = (17, 25, 33)

# Reference comparison: |observed - expected| <= ATOL + RTOL * |expected|.
# Rounding-level changes (a different transform engine, a structured
# integrand, a block-diagonal eigensolve) move these values by ~1e-14
# relative; any change to the physics or the discretization moves them by
# far more than RTOL.
RTOL = 1e-9
ATOL = 1e-12


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def argv_for(kind: str, config_path: str, out_dir: str) -> list[str]:
    """CLI arguments of one command kind."""
    common = ["--config", config_path, "--out", out_dir]
    if kind in ("figure1", "modes"):
        return [kind] + common
    _, state, domain, order = kind.split("/")
    return ["correlate"] + common + ["--state", state, "--domain", domain, "--order", order]


def cycles(workload: str, seed: int, reference: dict) -> list[list[dict]]:
    """The seed's command sequence, as whole cycles.

    Each command is ``{"kind", "entry"}`` where ``entry`` indexes the
    workload's pool. Pool entries are used without repetition until the
    pool is exhausted, so no two commands of one kind share inputs unless
    a run outlasts its pool.
    """
    rng = random.Random(f"{workload}:{seed}")
    pool = reference["workloads"][workload]
    if workload == "figure1":
        order = list(range(len(pool)))
        rng.shuffle(order)
        return [[{"kind": "figure1", "entry": i}] for i in order]
    if workload == "correlate-fine":
        # Six configs per cycle: w111/time/2 runs on each, and the five
        # lighter commands run on the first, one after each w111/time/2.
        # w111/time/2 is then 6 of 11 samples, so cmd_s_p50 is one of them
        # rather than a ~10 ms light command, whose time swings by 2x with
        # the load on a shared host.
        order = list(range(len(pool)))
        rng.shuffle(order)
        out = []
        for c in range(len(order) // 6):
            entries = order[6 * c:6 * c + 6]
            cycle = [{"kind": HEAVY, "entry": entries[0]}]
            for kind, entry in zip(LIGHT, entries[1:]):
                cycle += [{"kind": kind, "entry": entries[0]}, {"kind": HEAVY, "entry": entry}]
            out.append(cycle)
        return out
    if workload == "modes-large":
        by_bins = {n: [i for i, e in enumerate(pool) if e["config"]["mode_grid"]["n_bins"] == n]
                   for n in MODES_BINS}
        for entries in by_bins.values():
            rng.shuffle(entries)
        out = []
        for c in range(min(len(v) for v in by_bins.values())):
            bins = list(MODES_BINS)
            rng.shuffle(bins)
            out.append([{"kind": "modes", "entry": by_bins[n][c]} for n in bins])
        return out
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- outputs

def _csv(path: Path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _moments(table) -> dict:
    """Row count and value moments of a curve (x, v) or surface (x, y, v).

    The moments weight by |x| so that every term is nonnegative: on a
    symmetric curve a signed first moment is pure rounding noise.
    """
    v = table[:, -1]
    out = {"rows": int(table.shape[0]), "sum": float(v.sum()),
           "m_x": float((v * np.abs(table[:, 0])).sum()), "max": float(v.max())}
    if table.shape[1] == 3:
        out["m_y"] = float((v * np.abs(table[:, 1])).sum())
    return out


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def observe(kind: str, out_dir: Path) -> tuple[dict, list[str], int]:
    """Values a command left in ``out_dir``, the invariant violations found
    in them, and the bytes of its CSV files. The byte count leaves out JSON
    files, whose length varies with the digits of the values they carry,
    so that it depends on grid shapes alone."""
    problems: list[str] = []
    data_files: list[Path] = []
    obs: dict = {}
    if kind == "figure1":
        summary = _read_json(out_dir / "figure1_summary.json")
        m = summary["metrics"]
        for key in ("fwhm_conditional_ps", "fwhm_g2_ps",
                    "peak_conditional_tau12_ps", "peak_g2_tau12_ps"):
            obs[key] = m[key]
        obs["peak_surface_tau12_ps"], obs["peak_surface_tau32_ps"] = m["peak_surface_tau_ps"]
        if m["width_ordering_ok"] is not True:
            problems.append("figure1: width_ordering_ok is not true")
        for name in ("fig1a_g3_w_temporal", "fig1b_g3_w_conditional", "fig1c_g2_w_temporal"):
            path = out_dir / f"{name}.csv"
            data_files.append(path)
            obs.update({f"{name}.{k}": v for k, v in _moments(_csv(path)).items()})
    elif kind == "modes":
        report = _read_json(out_dir / "modes_report.json")
        ghz, w, q = report["ghz12"], report["w111"], report["qubit_checks"]
        obs.update({"ghz12.negativity": ghz["negativity"], "ghz12.purity": ghz["purity"],
                    "ghz12.max_offdiagonal": ghz["max_offdiagonal"],
                    "w111.negativity": w["negativity"], "w111.purity": w["purity"],
                    "qubit.w_traced_negativity": q["w_traced_negativity"],
                    "qubit.ghz_traced_fidelity": q["ghz_traced_fidelity_vs_even_mixture"]})
        if report["pass"] is not True:
            problems.append("modes: report pass is not true")
        if abs(ghz["negativity"]) > ATOL:
            problems.append(f"modes: GHZ negativity {ghz['negativity']!r} is not 0")
        if not w["negativity"] > 0.0:
            problems.append(f"modes: W negativity {w['negativity']!r} is not > 0")
    else:
        _, state, domain, order = kind.split("/")
        stem = f"correlate_{state}_{domain}_g{order}"
        summary = _read_json(out_dir / f"{stem}_summary.json")
        if order == "2" and state == "ghz12":
            path = out_dir / f"{stem}.json"
            data_files.append(path)
            value = _read_json(path)["value"]
            obs["value"] = value
            if not (math.isfinite(value) and value > 0.0):
                problems.append(f"{kind}: scalar {value!r} is not positive")
        else:
            path = out_dir / f"{stem}.csv"
            data_files.append(path)
            moments = _moments(_csv(path))
            obs.update(moments)
            width = summary["metrics"]["fwhm"]
            obs["fwhm"] = width
            if abs(moments["max"] - 1.0) > ATOL:
                problems.append(f"{kind}: curve peak {moments['max']!r} is not 1")
            if not math.isfinite(width):
                problems.append(f"{kind}: fwhm {width!r} is not finite")
    listed = {Path(p).name for p in summary["outputs"]} if kind != "modes" else set()
    missing = {p.name for p in data_files} - listed
    if missing:
        problems.append(f"{kind}: summary does not list {sorted(missing)}")
    return obs, problems, sum(p.stat().st_size for p in data_files if p.suffix == ".csv")


def compare(kind: str, observed: dict, expected: dict) -> list[str]:
    """Differences from the recorded reference beyond the tolerance."""
    problems = []
    for key, want in expected.items():
        got = observed.get(key)
        if got is None:
            problems.append(f"{kind}: {key} missing")
        elif key.endswith("rows"):
            if got != want:
                problems.append(f"{kind}: {key} {got} != {want}")
        elif not abs(got - want) <= ATOL + RTOL * abs(want):
            problems.append(f"{kind}: {key} {got!r} differs from reference {want!r}")
    return problems


def check(kind: str, out_dir: Path, expected: dict) -> tuple[list[str], int]:
    """All problems with one command's outputs, and its data bytes."""
    try:
        obs, problems, nbytes = observe(kind, out_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
        return [f"{kind}: outputs missing or unreadable: {err!r}"], 0
    return problems + compare(kind, obs, expected), nbytes


def clear(out_dir: Path) -> None:
    """Empty ``out_dir`` so a missing output cannot pass as a stale one."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in out_dir.iterdir():
        path.unlink()


def write_config(pool: list, entry: int, cfg_dir: Path) -> Path:
    """Config file of one pool entry (written once per run)."""
    path = cfg_dir / f"{entry}.json"
    if not path.exists():
        cfg_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(pool[entry]["config"], indent=2) + "\n", encoding="utf-8")
    return path
