"""Configuration schema and end-to-end command-line behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triphoton
import triphoton.correlators
from triphoton import SchemaError, parse_config, serialize_config
from triphoton.cli import main

# small quadrature and grids keep the CLI tests quick
FAST_CONFIG = {
    "quadrature": {"n_points": 256, "nu_span_rad_per_ps": 3.0},
    "grids": {
        "tau12_ps": {"start": 0.0, "step": 0.5, "count": 81},
        "tau32_ps": {"start": 0.0, "step": 0.5, "count": 81},
        "rho12_um": {"start": -6.0, "step": 0.125, "count": 97},
        "rho32_um": {"start": -6.0, "step": 0.125, "count": 97},
    },
    "mode_grid": {"n_bins": 6, "nu_min_rad_per_ps": -1.2, "nu_max_rad_per_ps": 1.2},
}


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "triphoton.json"
    path.write_text(json.dumps(FAST_CONFIG), encoding="utf-8")
    return path


def count_calls(monkeypatch, name):
    """Wrap ``triphoton.correlators.<name>`` and return its call counter."""
    calls = []
    original = getattr(triphoton.correlators, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(triphoton.correlators, name, counting)
    return calls


def test_cli_import_loads_no_scipy():
    # importing scipy.signal took longer than a typical command takes to run
    src = str(Path(triphoton.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    probe = ("import sys, triphoton.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_empty_document_gives_reference_defaults():
    cfg = parse_config("{}")
    assert cfg.phase_match.t12 == -20.0
    assert cfg.phase_match.t32 == -20.0
    assert len(cfg.filters) == 3
    assert all(f.shape.value == "gaussian" and f.sigma == 0.4 for f in cfg.filters)
    assert cfg.quadrature.n_points == 1024
    assert cfg.quadrature.nu_span == 3.0
    grid = cfg.grid("tau12_ps")
    assert (grid.start, grid.step, grid.count) == (0.0, 0.25, 161)
    assert cfg.mode_grid.n_bins == 8
    assert cfg.transverse.alpha_max == 1.0


def test_unknown_key_named():
    with pytest.raises(SchemaError, match="t12"):
        parse_config('{"phase_match": {"t12": -20.0}}')
    with pytest.raises(SchemaError, match="pump_power"):
        parse_config('{"pump_power": 1.0}')
    # output.format was never read and is no longer part of the schema
    with pytest.raises(SchemaError, match="format"):
        parse_config('{"output": {"format": "csv"}}')
    # transverse.dims changed no output and is no longer part of the schema
    with pytest.raises(SchemaError, match="transverse.dims"):
        parse_config('{"transverse": {"dims": 1}}')
    # a misspelt grid name would otherwise be ignored and echoed in summaries
    with pytest.raises(SchemaError, match="grids.tau12: unknown key"):
        parse_config('{"grids": {"tau12": {"start": 0.0, "step": 0.5, "count": 81}}}')


def test_invariant_violations_rejected():
    with pytest.raises(SchemaError, match="t12_ps"):
        parse_config('{"phase_match": {"t12_ps": 0.0}}')
    with pytest.raises(SchemaError, match=r"filters\[0\]\.sigma_rad_per_ps: filter sigma"):
        parse_config('{"filters": [{"sigma_rad_per_ps": -1.0}, {}]}')
    with pytest.raises(SchemaError,
                       match=r"filters\[1\]\.center_offset_rad_per_ps: filter center_offset"):
        parse_config('{"filters": [{}, {"center_offset_rad_per_ps": Infinity}]}')
    with pytest.raises(SchemaError):
        parse_config('{"filters": []}')
    with pytest.raises(SchemaError):
        parse_config("not json")
    with pytest.raises(SchemaError, match="count"):
        parse_config('{"grids": {"tau12_ps": {"start": 0.0, "step": 0.5}}}')


def test_config_round_trip():
    doc = json.dumps(FAST_CONFIG)
    cfg = parse_config(doc)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    # default config round-trips too
    base = parse_config("{}")
    assert parse_config(serialize_config(base)) == base


def test_figure1_outputs_and_width_ordering(tmp_path, fast_config):
    out = tmp_path / "run"
    rc = main(["figure1", "--config", str(fast_config), "--out", str(out)])
    assert rc == 0
    for name in ("fig1a_g3_w_temporal.csv", "fig1b_g3_w_conditional.csv",
                 "fig1c_g2_w_temporal.csv", "figure1_summary.json"):
        assert (out / name).exists()
    summary = json.loads((out / "figure1_summary.json").read_text())
    assert summary["metrics"]["width_ordering_ok"] is True
    assert summary["metrics"]["fwhm_conditional_ps"] < summary["metrics"]["fwhm_g2_ps"]
    header = (out / "fig1a_g3_w_temporal.csv").read_text().splitlines()[0]
    assert header == "tau12_ps,tau32_ps,g3"
    header_c = (out / "fig1c_g2_w_temporal.csv").read_text().splitlines()[0]
    assert header_c == "tau12_ps,g2"


def test_figure1_rerun_byte_identical(tmp_path, fast_config):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["figure1", "--config", str(fast_config), "--out", str(out1)]) == 0
    assert main(["figure1", "--config", str(fast_config), "--out", str(out2)]) == 0
    for name in ("fig1a_g3_w_temporal.csv", "fig1b_g3_w_conditional.csv",
                 "fig1c_g2_w_temporal.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_physical_mask_drops_negative_delays(tmp_path):
    doc = json.loads(json.dumps(FAST_CONFIG))
    doc["grids"]["tau12_ps"] = {"start": -10.0, "step": 0.5, "count": 81}
    doc["grids"]["tau32_ps"] = {"start": -10.0, "step": 0.5, "count": 81}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    masked = tmp_path / "masked"
    bare = tmp_path / "bare"
    assert main(["figure1", "--config", str(path), "--out", str(masked)]) == 0
    assert main(["figure1", "--config", str(path), "--out", str(bare),
                 "--no-physical-mask"]) == 0
    masked_rows = (masked / "fig1c_g2_w_temporal.csv").read_text().splitlines()[1:]
    bare_rows = (bare / "fig1c_g2_w_temporal.csv").read_text().splitlines()[1:]
    assert len(masked_rows) < len(bare_rows)
    assert all(float(r.split(",")[0]) >= 0.0 for r in masked_rows)
    assert any(float(r.split(",")[0]) < 0.0 for r in bare_rows)


@pytest.mark.parametrize("state,domain,order,suffix", [
    ("w111", "time", 2, ".csv"),
    ("w111", "time", 3, ".csv"),
    ("w111", "space", 2, ".csv"),
    ("w111", "space", 3, ".csv"),
    ("ghz12", "time", 2, ".json"),
    ("ghz12", "time", 3, ".csv"),
    ("ghz12", "space", 2, ".json"),
    ("ghz12", "space", 3, ".csv"),
])
def test_correlate_combinations(tmp_path, fast_config, state, domain, order, suffix):
    out = tmp_path / "c"
    rc = main(["correlate", "--config", str(fast_config), "--out", str(out),
               "--state", state, "--domain", domain, "--order", str(order)])
    assert rc == 0
    stem = f"correlate_{state}_{domain}_g{order}"
    assert (out / f"{stem}{suffix}").exists()
    summary = json.loads((out / f"{stem}_summary.json").read_text())
    assert summary["outputs"] == [str(out / f"{stem}{suffix}")]
    metrics = summary["metrics"]
    if suffix == ".json":
        flag = "delay_independent" if domain == "time" else "displacement_independent"
        assert metrics == json.loads((out / f"{stem}.json").read_text())
        assert set(metrics) == {"value", flag} and metrics[flag] is True
    elif order == 3 and state == "w111":
        # two-axis surface: a peak location per axis, no width
        assert set(metrics) == {"peak_location"} and len(metrics["peak_location"]) == 2
    else:
        assert set(metrics) == {"fwhm", "peak_location"} and len(metrics["peak_location"]) == 1
        assert metrics["fwhm"] > 0.0


def test_correlate_physical_mask_drops_negative_delays_only(tmp_path):
    doc = json.loads(json.dumps(FAST_CONFIG))
    doc["grids"]["tau12_ps"] = {"start": -10.0, "step": 0.5, "count": 81}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    def first_axis(domain, mask):
        out = tmp_path / f"{domain}-{mask}"
        assert main(["correlate", "--config", str(path), "--out", str(out),
                     "--state", "ghz12", "--domain", domain, "--order", "3",
                     f"--{mask}"]) == 0
        rows = (out / f"correlate_ghz12_{domain}_g3.csv").read_text().splitlines()[1:]
        return [float(r.split(",")[0]) for r in rows]

    delays = first_axis("time", "physical-mask")
    assert min(delays) == 0.0 and len(delays) == 61
    assert min(first_axis("time", "no-physical-mask")) == -10.0
    # displacements have no physical sign: the mask leaves them alone
    assert first_axis("space", "physical-mask") == first_axis("space", "no-physical-mask")
    assert min(first_axis("space", "physical-mask")) == -6.0


def test_correlate_looks_up_correlators_at_call_time(tmp_path, fast_config, monkeypatch):
    # wrappers installed on triphoton.correlators after import must see the call
    calls = count_calls(monkeypatch, "g3_ghz_spatial")
    assert main(["correlate", "--config", str(fast_config), "--out", str(tmp_path / "c"),
                 "--state", "ghz12", "--domain", "space", "--order", "3"]) == 0
    assert calls == ["g3_ghz_spatial"]


def test_correlate_ghz_time_2_reports_constancy(tmp_path, fast_config):
    out = tmp_path / "c"
    assert main(["correlate", "--config", str(fast_config), "--out", str(out),
                 "--state", "ghz12", "--domain", "time", "--order", "2"]) == 0
    payload = json.loads((out / "correlate_ghz12_time_g2.json").read_text())
    assert payload["delay_independent"] is True
    assert payload["value"] > 0.0


def test_correlate_matches_figure1_surface(tmp_path, fast_config):
    out = tmp_path / "c"
    assert main(["figure1", "--config", str(fast_config), "--out", str(out)]) == 0
    assert main(["correlate", "--config", str(fast_config), "--out", str(out),
                 "--state", "w111", "--domain", "time", "--order", "3",
                 "--physical-mask"]) == 0
    a = (out / "fig1a_g3_w_temporal.csv").read_text().splitlines()[1:]
    b = (out / "correlate_w111_time_g3.csv").read_text().splitlines()[1:]
    assert a == b


def test_correlate_bad_flag_usage_error(tmp_path, fast_config):
    rc = main(["correlate", "--config", str(fast_config), "--state", "w111",
               "--domain", "time", "--order", "5"])
    assert rc == 2


def test_modes_report(tmp_path, fast_config):
    out = tmp_path / "m"
    rc = main(["modes", "--config", str(fast_config), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "modes_report.json").read_text())
    assert report["pass"] is True
    assert report["ghz12"]["negativity"] <= 1e-10
    assert report["ghz12"]["max_offdiagonal"] < 1e-14
    assert report["w111"]["negativity"] > 1e-6
    # 6 bins: W photon-3 bins each herald one sector, GHZ pair bins 0..5
    # reach the grid for 3 of them, one populated state per sector
    assert (report["w111"]["sectors"], report["w111"]["max_block"]) == (6, 6)
    assert (report["ghz12"]["sectors"], report["ghz12"]["max_block"]) == (3, 1)
    checks = report["qubit_checks"]
    assert checks["ghz_traced_fidelity_vs_even_mixture"] == pytest.approx(1.0, abs=1e-9)
    assert checks["ghz_traced_negativity"] <= 1e-10
    assert checks["w_traced_negativity"] > 1e-6


def test_modes_minimal_grid_fast(tmp_path):
    doc = json.loads(json.dumps(FAST_CONFIG))
    # two bins only resolve the signature when the span hugs the filters
    doc["mode_grid"] = {"n_bins": 2, "nu_min_rad_per_ps": -0.4, "nu_max_rad_per_ps": 0.4}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    import time
    start = time.perf_counter()
    assert main(["modes", "--config", str(path), "--out", str(tmp_path / "m")]) == 0
    assert time.perf_counter() - start < 1.0


def test_sweep_filter_sigma_narrows_conditional(tmp_path, fast_config, monkeypatch):
    calls = count_calls(monkeypatch, "g2_w_temporal")
    out = tmp_path / "s"
    rc = main(["sweep", "--config", str(fast_config), "--out", str(out),
               "--param", "filter_sigma", "--values", "0.2,0.4,0.8"])
    assert rc == 0
    assert len(calls) == 3
    rows = (out / "sweep_filter_sigma.csv").read_text().splitlines()
    assert rows[0].startswith("param,value,")
    pair_widths = [float(r.split(",")[2]) for r in rows[1:]]
    widths = [float(r.split(",")[3]) for r in rows[1:]]
    assert widths[0] > widths[1] > widths[2]
    # width ordering survives at every filter setting
    assert all(c < g for c, g in zip(widths, pair_widths))


def test_sweep_alpha_max_narrows_spatial(tmp_path, fast_config):
    out = tmp_path / "s"
    rc = main(["sweep", "--config", str(fast_config), "--out", str(out),
               "--param", "alpha_max", "--values", "0.5,1,2"])
    assert rc == 0
    rows = (out / "sweep_alpha_max.csv").read_text().splitlines()[1:]
    widths = [float(r.split(",")[4]) for r in rows]
    assert widths[0] > widths[1] > widths[2]


def test_sweep_n_bins(tmp_path, fast_config, monkeypatch):
    calls = count_calls(monkeypatch, "g2_w_temporal")
    out = tmp_path / "s"
    rc = main(["sweep", "--config", str(fast_config), "--out", str(out),
               "--param", "n_bins", "--values", "4,8"])
    assert rc == 0
    rows = (out / "sweep_n_bins.csv").read_text().splitlines()[1:]
    negs = [float(r.split(",")[5]) for r in rows]
    assert all(n > 1e-6 for n in negs)
    # the mode grid does not enter the correlators: one pass serves every row
    assert len(calls) == 1
    assert len({tuple(r.split(",")[2:5]) for r in rows}) == 1


def test_sweep_usage_errors(tmp_path, fast_config):
    assert main(["sweep", "--config", str(fast_config), "--out", str(tmp_path),
                 "--param", "filter_sigma", "--values", ""]) == 2
    assert main(["sweep", "--config", str(fast_config), "--out", str(tmp_path),
                 "--param", "pump_power", "--values", "1,2"]) == 2
    assert main(["sweep", "--config", str(fast_config), "--out", str(tmp_path),
                 "--param", "filter_sigma", "--values", "a,b"]) == 2
    for value in ("nan", "inf"):
        assert main(["sweep", "--config", str(fast_config), "--out", str(tmp_path),
                     "--param", "n_bins", "--values", value]) == 2


def test_missing_explicit_config_is_usage_error(tmp_path):
    assert main(["figure1", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_schema_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"phase_match": {"t12_ps": 0.0}}', encoding="utf-8")
    assert main(["modes", "--config", str(path), "--out", str(tmp_path)]) == 2
    path.write_bytes(b"\xff\xfe{}")  # not UTF-8
    assert main(["modes", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_output_path_collision_is_io_error(tmp_path, fast_config, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    rc = main(["modes", "--config", str(fast_config), "--out", str(blocker)])
    assert rc == 1
    assert str(blocker) in capsys.readouterr().err


def test_modes_property_violation_exit_code(tmp_path, capsys):
    # two bins over a wide span leave the surviving pair entanglement
    # filter-suppressed below threshold; the command must report that
    # as a property violation rather than succeed
    doc = json.loads(json.dumps(FAST_CONFIG))
    doc["mode_grid"] = {"n_bins": 2, "nu_min_rad_per_ps": -1.2, "nu_max_rad_per_ps": 1.2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["modes", "--config", str(path), "--out", str(tmp_path / "m")])
    assert rc == 4
    assert "w_negativity" in capsys.readouterr().err
    report = json.loads((tmp_path / "m" / "modes_report.json").read_text())
    assert report["pass"] is False


def test_numerical_error_exit_code(tmp_path):
    # a span too small for the filters must map to the numerical exit code
    doc = json.loads(json.dumps(FAST_CONFIG))
    doc["quadrature"]["nu_span_rad_per_ps"] = 1.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["figure1", "--config", str(path), "--out", str(tmp_path / "x")])
    assert rc == 3


def test_csv_uses_full_precision(tmp_path, fast_config):
    out = tmp_path / "p"
    assert main(["correlate", "--config", str(fast_config), "--out", str(out),
                 "--state", "ghz12", "--domain", "time", "--order", "3"]) == 0
    row = (out / "correlate_ghz12_time_g3.csv").read_text().splitlines()[1]
    x, v = row.split(",")
    assert "e" in x and "e" in v
    assert len(x.split("e")[0].split(".")[1]) == 12
