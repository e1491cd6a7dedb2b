"""Command-line front end.

Subcommands: ``figure1`` reproduces the reference three-panel comparison,
``correlate`` dispatches any single correlator, ``modes`` runs the
discrete loss-of-one-photon analysis, ``sweep`` tabulates summary metrics
over one parameter. All numeric CSV output uses %.12e and newline line
endings so reruns are byte identical.

Exit codes: 0 success, 1 I/O failure, 2 usage or schema error,
3 numerical or degenerate-input error, 4 physics property violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import correlators as corr
from . import modes as mspace
from . import qubits
from .config import ExperimentConfig, config_to_dict, parse_config
from .correlators import CorrelationSurface
from .errors import (
    EXIT_OK,
    PropertyViolationError,
    TriphotonError,
    UsageError,
)

DEFAULT_CONFIG_PATH = "triphoton.json"
SWEEPABLE = ("filter_sigma", "t12_ps", "alpha_max", "n_bins")


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _load_config(path_arg: str | None) -> ExperimentConfig:
    if path_arg is None:
        path = Path(DEFAULT_CONFIG_PATH)
        if not path.exists():
            return parse_config("{}")
    else:
        path = Path(path_arg)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
    return parse_config(path.read_bytes())


def _out_dir(cfg: ExperimentConfig, out_arg: str | None) -> Path:
    out = Path(out_arg) if out_arg is not None else Path(cfg.output.dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OSError(f"cannot create output directory {out}: {err}") from err
    if not out.is_dir():
        raise NotADirectoryError(f"output path is not a directory: {out}")
    return out


def _write_text(path: Path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise OSError(f"cannot write {path}: {err}") from err


def write_curve_csv(path: Path, axis_name: str, value_name: str,
                    surface: CorrelationSurface, mask_negative_axis: bool = False) -> None:
    xs = surface.grid.points()
    vs = surface.values
    if mask_negative_axis:
        keep = xs >= 0.0
        xs, vs = xs[keep], vs[keep]
    lines = [f"{axis_name},{value_name}"]
    lines += [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xs, vs)]
    _write_text(path, "\n".join(lines) + "\n")


def write_surface_csv(path: Path, axis_names: tuple[str, str], value_name: str,
                      surface: CorrelationSurface, mask_negative_axis: bool = False) -> None:
    xs = surface.axes[0].points()
    ys = surface.axes[1].points()
    vals = surface.values
    lines = [f"{axis_names[0]},{axis_names[1]},{value_name}"]
    for a, x in enumerate(xs):
        if mask_negative_axis and x < 0.0:
            continue
        for b, y in enumerate(ys):
            if mask_negative_axis and y < 0.0:
                continue
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(vals[a, b])}")
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _peak_location(surface: CorrelationSurface) -> list[float]:
    flat = int(np.argmax(surface.values))
    idx = np.unravel_index(flat, surface.values.shape)
    return [float(g.points()[i]) for g, i in zip(surface.axes, idx)]


def _summary(command: str, cfg: ExperimentConfig, outputs: list[str],
             metrics: dict[str, Any], started: float) -> dict[str, Any]:
    wall_ms = (time.perf_counter() - started) * 1e3
    for key, value in metrics.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise TriphotonError(f"summary metric {key} is not finite")
    return {
        "command": command,
        "config": config_to_dict(cfg),
        "metrics": metrics,
        "outputs": sorted(outputs),
        "wall_ms": wall_ms,
    }


def _filters3(cfg: ExperimentConfig):
    if len(cfg.filters) < 3:
        raise UsageError("this command needs 3 filters, config provides "
                         f"{len(cfg.filters)}")
    return cfg.filters[0], cfg.filters[1], cfg.filters[2]


def cmd_figure1(cfg: ExperimentConfig, out_dir: Path, physical_mask: bool = True) -> dict[str, Any]:
    """Three-panel reference comparison: the full two-delay surface, the
    conditional slice across it, and the pair correlation."""
    started = time.perf_counter()
    f1, f2, f3 = _filters3(cfg)
    g12 = cfg.grid("tau12_ps")
    g32 = cfg.grid("tau32_ps")

    surface = corr.g3_w_temporal(cfg.phase_match, f1, f2, f3, cfg.quadrature, (g12, g32))
    conditional = corr.g3_w_conditional(cfg.phase_match, f1, f2, f3, cfg.quadrature, g12)
    pair = corr.g2_w_temporal(cfg.phase_match, f1, f2, cfg.quadrature, g12)

    paths = {
        "a": out_dir / "fig1a_g3_w_temporal.csv",
        "b": out_dir / "fig1b_g3_w_conditional.csv",
        "c": out_dir / "fig1c_g2_w_temporal.csv",
    }
    write_surface_csv(paths["a"], ("tau12_ps", "tau32_ps"), "g3", surface, physical_mask)
    write_curve_csv(paths["b"], "tau12_ps", "g3", conditional, physical_mask)
    write_curve_csv(paths["c"], "tau12_ps", "g2", pair, physical_mask)

    fwhm_b = corr.fwhm(conditional)
    fwhm_c = corr.fwhm(pair)
    metrics = {
        "conditional_line_tau32_ps": f"-tau12 + {abs(cfg.phase_match.t12)}",
        "fwhm_conditional_ps": fwhm_b,
        "fwhm_g2_ps": fwhm_c,
        "peak_conditional_tau12_ps": _peak_location(conditional)[0],
        "peak_g2_tau12_ps": _peak_location(pair)[0],
        "peak_surface_tau_ps": _peak_location(surface),
        "physical_mask": physical_mask,
        "width_ordering_ok": bool(fwhm_b < fwhm_c),
    }
    summary = _summary("figure1", cfg, [str(p) for p in paths.values()], metrics, started)
    _write_json(out_dir / "figure1_summary.json", summary)
    return summary


# (state, domain, order) -> (evaluate(cfg), layout). The layout is either the
# axis names of the CSV (one for a curve, two for a surface) or, for a
# scalar, the constancy flag written beside its value. Each evaluate looks
# its correlator up in ``corr`` when called, so a wrapped module attribute
# is the one that runs.
_CORRELATIONS = {
    ("w111", "time", 2): (
        lambda c: corr.g2_w_temporal(c.phase_match, c.filters[0], c.filters[1],
                                     c.quadrature, c.grid("tau12_ps")),
        ("tau12_ps",)),
    ("w111", "time", 3): (
        lambda c: corr.g3_w_temporal(c.phase_match, *_filters3(c), c.quadrature,
                                     (c.grid("tau12_ps"), c.grid("tau32_ps"))),
        ("tau12_ps", "tau32_ps")),
    ("w111", "space", 2): (
        lambda c: corr.g2_w_spatial(c.transverse, c.grid("rho12_um")),
        ("rho12_um",)),
    ("w111", "space", 3): (
        lambda c: corr.g3_w_spatial(c.transverse, (c.grid("rho12_um"), c.grid("rho32_um"))),
        ("rho12_um", "rho32_um")),
    ("ghz12", "time", 2): (
        lambda c: corr.g2_ghz_temporal(c.phase_match, c.filters[0], c.filters[1],
                                       c.quadrature),
        "delay_independent"),
    ("ghz12", "time", 3): (
        lambda c: corr.g3_ghz_temporal(c.phase_match, c.filters[0], c.filters[1],
                                       c.quadrature, c.grid("tau12_ps")),
        ("tau12_ps",)),
    ("ghz12", "space", 2): (
        lambda c: corr.g2_ghz_spatial(c.transverse),
        "displacement_independent"),
    ("ghz12", "space", 3): (
        lambda c: corr.g3_ghz_spatial(c.transverse, c.grid("rho12_um")),
        ("rho12_um",)),
}


def cmd_correlate(cfg: ExperimentConfig, out_dir: Path, state: str, domain: str,
                  order: int, physical_mask: bool = False) -> dict[str, Any]:
    """Evaluate one correlator and serialize it.

    A scalar goes to JSON with its constancy flag, a curve or surface to
    CSV; ``physical_mask`` drops negative delays, never displacements.
    """
    started = time.perf_counter()
    try:
        evaluate, layout = _CORRELATIONS[(state, domain, order)]
    except KeyError:
        raise UsageError(
            f"unsupported combination {(state, domain, order)}; valid: "
            + ", ".join(f"{s}/{d}/{o}" for s, d, o in _CORRELATIONS)) from None
    stem = f"correlate_{state}_{domain}_g{order}"
    result = evaluate(cfg)
    if isinstance(layout, str):
        path = out_dir / f"{stem}.json"
        metrics = {"value": result, layout: True}
        _write_json(path, metrics)
    else:
        path = out_dir / f"{stem}.csv"
        mask = physical_mask and domain == "time"
        if len(layout) == 1:
            write_curve_csv(path, layout[0], f"g{order}", result, mask)
            metrics = {"fwhm": corr.fwhm(result), "peak_location": _peak_location(result)}
        else:
            write_surface_csv(path, layout, f"g{order}", result, mask)
            metrics = {"peak_location": _peak_location(result)}

    summary = _summary("correlate", cfg, [str(path)], metrics, started)
    _write_json(out_dir / f"{stem}_summary.json", summary)
    return summary


def _qubit_checks() -> dict[str, Any]:
    ghz = qubits.make_ghz().density()
    w = qubits.make_w().density()
    ghz12 = qubits.partial_trace(ghz, (0, 1))
    w12 = qubits.partial_trace(w, (0, 1))
    even = np.zeros((4, 4), dtype=complex)
    even[0, 0] = even[3, 3] = 0.5
    ghz_neg = qubits.negativity(ghz12, (0,))
    w_neg = qubits.negativity(w12, (0,))
    fid = qubits.fidelity(ghz12, qubits.DensityMatrix(even, (2, 2)))
    return {
        "ghz_traced_fidelity_vs_even_mixture": fid,
        "ghz_traced_negativity": ghz_neg,
        "w_traced_negativity": w_neg,
        "pass": bool(ghz_neg <= 1e-10 and w_neg > 1e-6 and abs(fid - 1.0) <= 1e-9),
    }


def _sector_stats(red: mspace.SectorDensity) -> dict[str, int]:
    """Non-empty conservation sectors and the most pair states one populates."""
    sizes = red.block_sizes()
    return {"max_block": int(sizes.max()), "sectors": int(np.count_nonzero(sizes))}


def cmd_modes(cfg: ExperimentConfig, out_dir: Path) -> dict[str, Any]:
    """Discrete loss-of-one-photon report for both states.

    Fails (exit 4) if the degenerate-pair reduction shows entanglement,
    if the three-mode reduction shows none, or if the exact qubit
    fixtures break.
    """
    started = time.perf_counter()
    grid = cfg.mode_grid
    f1, f2, f3 = _filters3(cfg)

    w_red = mspace.pair_sectors(mspace.build_w_discrete(cfg.phase_match, (f1, f2, f3), grid))
    w_neg = w_red.negativity()
    ghz_red = mspace.pair_sectors(mspace.build_ghz_discrete(cfg.phase_match, (f1, f2), grid))
    ghz_neg = ghz_red.negativity()
    ghz_offdiag = ghz_red.max_offdiagonal()

    checks = _qubit_checks()
    w_ok = w_neg > 1e-6
    ghz_ok = ghz_neg <= 1e-10 and ghz_offdiag < 1e-14
    report = {
        "ghz12": {
            "diagonal": bool(ghz_offdiag < 1e-14),
            "max_offdiagonal": ghz_offdiag,
            "negativity": ghz_neg,
            "purity": ghz_red.purity(),
            "separable_after_loss": ghz_ok,
            **_sector_stats(ghz_red),
        },
        "mode_grid": {"n_bins": grid.n_bins, "nu_min_rad_per_ps": grid.nu_min,
                      "nu_max_rad_per_ps": grid.nu_max},
        "pass": bool(w_ok and ghz_ok and checks["pass"]),
        "qubit_checks": checks,
        "w111": {
            "entangled_after_loss": bool(w_ok),
            "negativity": w_neg,
            "purity": w_red.purity(),
            **_sector_stats(w_red),
        },
    }
    summary = _summary("modes", cfg, [], report, started)
    report["wall_ms"] = summary["wall_ms"]
    _write_json(out_dir / "modes_report.json", report)
    if not report["pass"]:
        raise PropertyViolationError(
            "loss-of-one-photon signature failed: "
            f"w_negativity={w_neg:.3e}, ghz_negativity={ghz_neg:.3e}")
    return report


def _config_with_param(cfg_dict: dict[str, Any], param: str, value: float) -> ExperimentConfig:
    doc = json.loads(json.dumps(cfg_dict))  # deep copy
    if param == "filter_sigma":
        for f in doc["filters"]:
            f["sigma_rad_per_ps"] = value
    elif param == "t12_ps":
        doc["phase_match"]["t12_ps"] = value
    elif param == "alpha_max":
        doc["transverse"]["alpha_max_rad_per_um"] = value
    elif param == "n_bins":
        if not float(value).is_integer():
            raise UsageError(f"n_bins sweep values must be integers, got {value}")
        doc["mode_grid"]["n_bins"] = int(value)
    row = parse_config(json.dumps(doc))
    # widen the integration span when the swept value pushes past it
    needed = corr.required_span(row.phase_match, row.filters)
    if row.quadrature.nu_span < needed:
        doc["quadrature"]["nu_span_rad_per_ps"] = needed
        row = parse_config(json.dumps(doc))
    return row


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, param: str, values: Sequence[float]) -> dict[str, Any]:
    """One summary-metric row per parameter value, in the order given."""
    started = time.perf_counter()
    if param not in SWEEPABLE:
        raise UsageError(f"parameter {param!r} is not sweepable; choose one of {', '.join(SWEEPABLE)}")
    if not values:
        raise UsageError("sweep needs at least one value")
    base = config_to_dict(cfg)
    header = ("param,value,g2_w_fwhm_ps,g3_w_conditional_fwhm_ps,"
              "g3_ghz_spatial_fwhm_um,w_negativity,ghz_negativity")
    lines = [header]
    widths_inputs = widths = None
    for value in values:
        row_cfg = _config_with_param(base, param, value)
        f1, f2, f3 = _filters3(row_cfg)
        g12 = row_cfg.grid("tau12_ps")
        rho12 = row_cfg.grid("rho12_um")
        # the widths depend on these alone; an n_bins sweep reuses them
        inputs = (row_cfg.phase_match, row_cfg.filters, row_cfg.quadrature,
                  row_cfg.transverse, g12, rho12)
        if inputs != widths_inputs:
            pair = corr.g2_w_temporal(row_cfg.phase_match, f1, f2, row_cfg.quadrature, g12)
            conditional = corr.g3_w_conditional(row_cfg.phase_match, f1, f2, f3,
                                                row_cfg.quadrature, g12)
            spatial = corr.g3_ghz_spatial(row_cfg.transverse, rho12)
            widths = [_fmt(corr.fwhm(pair)), _fmt(corr.fwhm(conditional)),
                      _fmt(corr.fwhm(spatial))]
            widths_inputs = inputs
        w_red = mspace.pair_sectors(
            mspace.build_w_discrete(row_cfg.phase_match, (f1, f2, f3), row_cfg.mode_grid))
        ghz_red = mspace.pair_sectors(
            mspace.build_ghz_discrete(row_cfg.phase_match, (f1, f2), row_cfg.mode_grid))
        lines.append(",".join([
            param, _fmt(float(value)), *widths,
            _fmt(w_red.negativity()), _fmt(ghz_red.negativity()),
        ]))
    path = out_dir / f"sweep_{param}.csv"
    _write_text(path, "\n".join(lines) + "\n")
    summary = _summary("sweep", cfg, [str(path)],
                       {"param": param, "rows": len(values)}, started)
    _write_json(out_dir / f"sweep_{param}_summary.json", summary)
    return summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="triphoton",
                                     description="Triphoton correlation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None,
                       help=f"JSON config path (default ./{DEFAULT_CONFIG_PATH} if present)")
        p.add_argument("--out", default=None, help="output directory (default from config)")

    p_fig = sub.add_parser("figure1", help="reproduce the three-panel temporal comparison")
    add_common(p_fig)
    p_fig.add_argument("--physical-mask", action=argparse.BooleanOptionalAction, default=True,
                       help="drop negative delays from the written files")

    p_cor = sub.add_parser("correlate", help="evaluate one correlation function")
    add_common(p_cor)
    states, domains, orders = (list(dict.fromkeys(axis)) for axis in zip(*_CORRELATIONS))
    p_cor.add_argument("--state", required=True, choices=states)
    p_cor.add_argument("--domain", required=True, choices=domains)
    p_cor.add_argument("--order", required=True, type=int, choices=orders)
    p_cor.add_argument("--physical-mask", action=argparse.BooleanOptionalAction, default=False)

    p_modes = sub.add_parser("modes", help="discrete loss-of-one-photon analysis")
    add_common(p_modes)

    p_sweep = sub.add_parser("sweep", help="summary metrics over one parameter")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEPABLE)
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numeric values")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _load_config(args.config)
        out_dir = _out_dir(cfg, args.out)
        if args.command == "figure1":
            cmd_figure1(cfg, out_dir, physical_mask=args.physical_mask)
        elif args.command == "correlate":
            cmd_correlate(cfg, out_dir, args.state, args.domain, args.order,
                          physical_mask=args.physical_mask)
        elif args.command == "modes":
            cmd_modes(cfg, out_dir)
        elif args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip() != ""]
            except ValueError:
                raise UsageError(f"--values must be comma-separated numbers, got {args.values!r}")
            cmd_sweep(cfg, out_dir, args.param, values)
        return EXIT_OK
    except TriphotonError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
