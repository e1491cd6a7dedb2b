"""Experiment configuration: JSON schema, defaults, parsing, serialization.

Every dimensioned quantity carries its unit in the key name (t12_ps,
sigma_rad_per_ps, alpha_max_rad_per_um) because unit ambiguity is the
main hazard in reproducing the reference figure. Unknown keys are
rejected by name rather than ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .correlators import Grid1D, QuadratureSpec
from .errors import InvalidArgumentError, SchemaError
from .modes import ModeGrid
from .spectra import FilterSpec, PhaseMatchConfig, TransverseWindow

# Reference defaults: equal negative walk-off of 20 ps on both arms and
# identical Gaussian filters of 0.4 rad/ps on every detector.
_DEFAULTS: dict[str, Any] = {
    "phase_match": {"t12_ps": -20.0, "t32_ps": -20.0},
    "filters": [
        {"shape": "gaussian", "sigma_rad_per_ps": 0.4, "center_offset_rad_per_ps": 0.0},
        {"shape": "gaussian", "sigma_rad_per_ps": 0.4, "center_offset_rad_per_ps": 0.0},
        {"shape": "gaussian", "sigma_rad_per_ps": 0.4, "center_offset_rad_per_ps": 0.0},
    ],
    "quadrature": {"n_points": 1024, "nu_span_rad_per_ps": 3.0},
    "grids": {
        "tau12_ps": {"start": 0.0, "step": 0.25, "count": 161},
        "tau32_ps": {"start": 0.0, "step": 0.25, "count": 161},
        "rho12_um": {"start": -8.0, "step": 0.0625, "count": 257},
        "rho32_um": {"start": -8.0, "step": 0.0625, "count": 257},
    },
    "transverse": {"alpha_max_rad_per_um": 1.0},
    "mode_grid": {"n_bins": 8, "nu_min_rad_per_ps": -1.2, "nu_max_rad_per_ps": 1.2},
    "output": {"dir": "."},
}


@dataclass(frozen=True)
class OutputSpec:
    dir: str = "."


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated aggregate of everything a command needs."""

    phase_match: PhaseMatchConfig
    filters: tuple[FilterSpec, ...]
    quadrature: QuadratureSpec
    grids: Mapping[str, Grid1D]
    transverse: TransverseWindow
    mode_grid: ModeGrid
    output: OutputSpec

    def grid(self, name: str) -> Grid1D:
        try:
            return self.grids[name]
        except KeyError:
            raise SchemaError(f"grids.{name}: referenced grid is not defined") from None


def default_config() -> ExperimentConfig:
    return parse_config("{}")


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(obj: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"{where}.{key}: unknown key (allowed: {', '.join(allowed)})")


def _number(obj: dict, key: str, where: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}.{key}: expected a number, got {value!r}")
    return float(value)


def _integer(obj: dict, key: str, where: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _merged(user: dict, defaults: dict, where: str) -> dict:
    _check_keys(user, tuple(defaults.keys()), where)
    out = dict(defaults)
    out.update(user)
    return out


def _parse_filter(obj, where: str) -> FilterSpec:
    obj = _require_mapping(obj, where)
    merged = _merged(obj, _DEFAULTS["filters"][0], where)
    shape = merged["shape"]
    if shape not in ("gaussian", "rectangular"):
        raise SchemaError(f"{where}.shape: expected 'gaussian' or 'rectangular', got {shape!r}")
    fields: dict[str, float] = {}
    # adding one key at a time names the key a failure belongs to
    for field, key in (("sigma", "sigma_rad_per_ps"), ("center_offset", "center_offset_rad_per_ps")):
        fields[field] = _number(merged, key, where)
        try:
            spec = FilterSpec(shape=shape, **fields)
        except InvalidArgumentError as err:
            raise SchemaError(f"{where}.{key}: {err}") from err
    return spec


def _parse_grid(obj, where: str) -> Grid1D:
    obj = _require_mapping(obj, where)
    _check_keys(obj, ("start", "step", "count"), where)
    for key in ("start", "step", "count"):
        if key not in obj:
            raise SchemaError(f"{where}.{key}: required key is missing")
    try:
        return Grid1D(start=_number(obj, "start", where),
                      step=_number(obj, "step", where),
                      count=_integer(obj, "count", where))
    except InvalidArgumentError as err:
        raise SchemaError(f"{where}: {err}") from err


def parse_config(text: str | bytes) -> ExperimentConfig:
    """Parse a UTF-8 JSON document, applying reference defaults.

    An empty document ``{}`` yields the full default configuration.
    Violations raise SchemaError naming the offending key.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError(f"not valid JSON: {err}") from err
    doc = _require_mapping(doc, "config")
    _check_keys(doc, tuple(_DEFAULTS.keys()), "config")

    pm = _merged(_require_mapping(doc.get("phase_match", {}), "phase_match"),
                 _DEFAULTS["phase_match"], "phase_match")
    try:
        phase_match = PhaseMatchConfig(t12=_number(pm, "t12_ps", "phase_match"),
                                       t32=_number(pm, "t32_ps", "phase_match"))
    except InvalidArgumentError as err:
        raise SchemaError(f"phase_match.t12_ps/t32_ps: {err}") from err

    raw_filters = doc.get("filters", _DEFAULTS["filters"])
    if not isinstance(raw_filters, list) or not raw_filters:
        raise SchemaError("filters: expected a non-empty list")
    if len(raw_filters) not in (2, 3):
        raise SchemaError(f"filters: expected 2 or 3 entries, got {len(raw_filters)}")
    filters = tuple(_parse_filter(f, f"filters[{i}]") for i, f in enumerate(raw_filters))

    q = _merged(_require_mapping(doc.get("quadrature", {}), "quadrature"),
                _DEFAULTS["quadrature"], "quadrature")
    try:
        quadrature = QuadratureSpec(n_points=_integer(q, "n_points", "quadrature"),
                                    nu_span=_number(q, "nu_span_rad_per_ps", "quadrature"))
    except InvalidArgumentError as err:
        raise SchemaError(f"quadrature: {err}") from err

    raw_grids = _require_mapping(doc.get("grids", {}), "grids")
    _check_keys(raw_grids, tuple(_DEFAULTS["grids"]), "grids")
    grids = {name: _parse_grid(raw_grids.get(name, g), f"grids.{name}")
             for name, g in _DEFAULTS["grids"].items()}

    tv = _merged(_require_mapping(doc.get("transverse", {}), "transverse"),
                 _DEFAULTS["transverse"], "transverse")
    try:
        transverse = TransverseWindow(alpha_max=_number(tv, "alpha_max_rad_per_um", "transverse"))
    except InvalidArgumentError as err:
        raise SchemaError(f"transverse: {err}") from err

    mg = _merged(_require_mapping(doc.get("mode_grid", {}), "mode_grid"),
                 _DEFAULTS["mode_grid"], "mode_grid")
    try:
        mode_grid = ModeGrid(n_bins=_integer(mg, "n_bins", "mode_grid"),
                             nu_min=_number(mg, "nu_min_rad_per_ps", "mode_grid"),
                             nu_max=_number(mg, "nu_max_rad_per_ps", "mode_grid"))
    except InvalidArgumentError as err:
        raise SchemaError(f"mode_grid: {err}") from err

    out = _merged(_require_mapping(doc.get("output", {}), "output"),
                  _DEFAULTS["output"], "output")
    if not isinstance(out["dir"], str):
        raise SchemaError(f"output.dir: expected a string, got {out['dir']!r}")

    return ExperimentConfig(phase_match=phase_match, filters=filters, quadrature=quadrature,
                            grids=grids, transverse=transverse, mode_grid=mode_grid,
                            output=OutputSpec(dir=out["dir"]))


def config_to_dict(cfg: ExperimentConfig) -> dict[str, Any]:
    return {
        "phase_match": {"t12_ps": cfg.phase_match.t12, "t32_ps": cfg.phase_match.t32},
        "filters": [
            {"shape": f.shape.value,
             "sigma_rad_per_ps": f.sigma,
             "center_offset_rad_per_ps": f.center_offset}
            for f in cfg.filters
        ],
        "quadrature": {"n_points": cfg.quadrature.n_points,
                       "nu_span_rad_per_ps": cfg.quadrature.nu_span},
        "grids": {name: {"start": g.start, "step": g.step, "count": g.count}
                  for name, g in sorted(cfg.grids.items())},
        "transverse": {"alpha_max_rad_per_um": cfg.transverse.alpha_max},
        "mode_grid": {"n_bins": cfg.mode_grid.n_bins,
                      "nu_min_rad_per_ps": cfg.mode_grid.nu_min,
                      "nu_max_rad_per_ps": cfg.mode_grid.nu_max},
        "output": {"dir": cfg.output.dir},
    }


def serialize_config(cfg: ExperimentConfig) -> str:
    """JSON document that parse_config maps back to an equal config."""
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"
