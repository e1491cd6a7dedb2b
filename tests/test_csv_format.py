"""The vectorized ``%.12e`` CSV formatter against Python's own formatting."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from triphoton import cli, csvtext, parse_config
from triphoton import correlators as corr
from triphoton.correlators import CorrelationSurface, Grid1D

FIGURE1_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def vectorized(values) -> bytes:
    records, padded = csvtext._fields(np.asarray(values, dtype=float), "\n")
    text = records.tobytes()
    return text.translate(None, b"\0") if padded else text


def per_cell(values) -> bytes:
    return "".join("%.12e\n" % v for v in np.ravel(values).tolist()).encode()


def assert_formats_like_python(values):
    got, want = vectorized(values), per_cell(values)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} cells differ, first: {bad[:3]}")


def rows_text(axes, vals) -> bytes:
    return b"".join(bytes(block) for block in csvtext.csv_rows(axes, np.asarray(vals)))


def per_row(axes, vals) -> bytes:
    vals = np.asarray(vals).reshape([len(a) for a in axes])
    if len(axes) == 1:
        return "".join(f"{a:.12e},{v:.12e}\n" for a, v in zip(axes[0], vals)).encode()
    return "".join(f"{a:.12e},{b:.12e},{v:.12e}\n" for a, row in zip(axes[0], vals)
                   for b, v in zip(axes[1], row)).encode()


def count_fallback(monkeypatch) -> list[int]:
    """Wrap ``csvtext._e12_fallback``; the list gets the size of each call."""
    sizes = []
    fallback = csvtext._e12_fallback

    def counting(x):
        sizes.append(x.size)
        return fallback(x)

    monkeypatch.setattr(csvtext, "_e12_fallback", counting)
    return sizes


def oracle_values() -> np.ndarray:
    rng = np.random.default_rng(20260)
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    exps = rng.integers(-300, 300, 30_000)
    # (k + 0.5)·10^(e−12) sits on a rounding tie of the 13-digit mantissa
    ties = (rng.integers(10 ** 12, 10 ** 13, exps.size) + 0.5) * 10.0 ** (exps - 12)
    # (k + 0.5)·10^j for j <= 5 is often an exact tie; Python rounds it to even
    exact_ties = (rng.integers(10 ** 12, 10 ** 13, 20_000) + 0.5) * 10.0 ** rng.integers(0, 6, 20_000)
    # 9.9999999999995·10^e and its neighbours round up into the next decade
    decade = np.array([float(f"9.9999999999995e{j}") for j in range(-300, 300)])
    special = [0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.797e308, np.finfo(float).max, 9.9999999999995e-1, 9.99999999999949e-1]
    subnormals = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64).view(np.float64)
    bits = rng.integers(0, 2 ** 64, 750_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([special, powers, decade, ties, exact_ties, subnormals])
    with np.errstate(over="ignore"):  # the largest float's upper neighbour is inf
        values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values, [-0.0], bits])


def test_formatter_matches_python_on_a_million_values():
    values = oracle_values()
    assert values.size >= 1_000_000
    for chunk in np.array_split(values, 8):
        assert_formats_like_python(chunk)


def test_formatter_handles_non_finite_and_empty_input():
    assert_formats_like_python([np.nan, np.inf, -np.inf, -np.nan, 0.0, -0.0])
    assert vectorized(np.empty(0)) == b""


def test_power_table_is_exact():
    # the rounding bound at csvtext._TIE_MARGIN assumes, for every scale
    # 10**k: |10**k - hi| <= ulp(hi)/2, |10**k - hi - lo| <= ulp(lo)/2, and
    # hi split into two halves of at most 26 significant bits
    hi, hi_hi, hi_lo, lo = (t.tolist() for t in csvtext._e12_tables()[:4])
    scales = range(-csvtext._E_SCALED, csvtext._E_SCALED + 1)
    assert len(hi) == len(scales)

    def within_half_ulp(num, den, x):
        # |num/den - x| <= ulp(x)/2, in integers
        xn, xd = x.as_integer_ratio()
        un, ud = math.ulp(x).as_integer_ratio()
        return 2 * abs(num * xd - xn * den) * ud <= un * den * xd

    def bits(x):
        n = abs(x.as_integer_ratio()[0])
        return (n >> ((n & -n).bit_length() - 1)).bit_length() if n else 0

    for j, e in enumerate(scales):
        k = 12 - e
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        assert within_half_ulp(num, den, hi[j]), k
        hn, hd = hi[j].as_integer_ratio()
        assert within_half_ulp(num * hd - hn * den, den * hd, lo[j]), k  # 10**k - hi
        assert hi_hi[j] + hi_lo[j] == hi[j] and bits(hi_hi[j]) <= 26 and bits(hi_lo[j]) <= 26, k


def test_forced_fallback_gives_identical_bytes(tmp_path, monkeypatch):
    grids = (Grid1D(-2.0, 0.25, 17), Grid1D(0.0, 0.5, 9))
    values = np.exp(-np.random.default_rng(3).uniform(0.0, 700.0, (17, 9)))
    values[0, :3] = 0.0
    surface = CorrelationSurface(grids, values)
    cli.write_surface_csv(tmp_path / "fast.csv", ("x", "y"), "v", surface)

    monkeypatch.setattr(csvtext, "_TIE_MARGIN", 1.0)
    formatted = count_fallback(monkeypatch)
    cli.write_surface_csv(tmp_path / "slow.csv", ("x", "y"), "v", surface)
    assert sum(formatted) == 17 + 9 + values.size
    assert (tmp_path / "slow.csv").read_bytes() == (tmp_path / "fast.csv").read_bytes()


def tie_values() -> np.ndarray:
    """Values on and next to a rounding tie of the 13-digit mantissa."""
    rng = np.random.default_rng(27)
    exps = rng.integers(-300, 300, 20_000)
    ties = (rng.integers(10 ** 12, 10 ** 13, exps.size) + 0.5) * 10.0 ** (exps - 12)
    exact = (rng.integers(10 ** 12, 10 ** 13, 5_000) + 0.5) * 10.0 ** rng.integers(0, 6, 5_000)
    values = np.concatenate([ties, exact])
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def test_forced_exact_rounding_gives_identical_bytes(tmp_path, monkeypatch):
    # with the screen's error bound at 1 no cell passes the screen, so every
    # cell takes Dekker's product: the bytes must not move, on the default
    # figure1 panels and on rounding ties
    cfg = parse_config("{}")
    f1, f2, f3 = cfg.filters[:3]
    grids = (cfg.grid("tau12_ps"), cfg.grid("tau32_ps"))
    panels = corr.w_temporal_panels(cfg.phase_match, f1, f2, f3, cfg.quadrature, grids,
                                    method=corr.w_temporal_method(f1, f2, f3))
    names = [("tau12_ps", "tau32_ps"), ("tau12_ps",), ("tau12_ps",)]

    def written(tag):
        for j, (panel, axes) in enumerate(zip(panels, names)):
            cli.write_surface_csv(tmp_path / f"{tag}{j}.csv", axes, "g", panel, True)
        return [(tmp_path / f"{tag}{j}.csv").read_bytes() for j in range(3)]

    ties = tie_values()
    screened, screened_ties = written("screened"), vectorized(ties)
    exact = []
    real = csvtext._exact_parts
    monkeypatch.setattr(csvtext, "_exact_parts", lambda x: exact.append(x.size) or real(x))
    monkeypatch.setattr(csvtext, "_SCREEN_ERROR", 1.0)
    formatted = count_fallback(monkeypatch)
    assert written("forced") == screened
    kept = [[g.points() >= 0.0 for g in p.axes] for p in panels]
    cells = sum(sum(map(np.count_nonzero, k)) + p.values[np.ix_(*k)].size
                for p, k in zip(panels, kept))
    assert sum(exact) == cells
    assert sum(formatted) == 0
    assert vectorized(ties) == screened_ties == per_cell(ties)
    assert sum(exact) == cells + ties.size


def test_a_file_reuses_one_row_buffer(tmp_path):
    # a 161 x 161 surface is 7 blocks of 25 rows x 161 cells, 57 bytes a row:
    # one 229 kB buffer and each block's float temporaries, at most twelve
    # arrays of 4025 values; a second buffer, held by the writer while the
    # next block is built into a fresh one, goes over
    grid = Grid1D(0.0, 0.25, 161)
    surface = CorrelationSurface((grid, grid),
                                 np.random.default_rng(5).uniform(0.0, 1.0, (161, 161)))
    cli.write_surface_csv(tmp_path / "warm.csv", ("x", "y"), "v", surface)
    tracemalloc.start()
    try:
        cli.write_surface_csv(tmp_path / "s.csv", ("x", "y"), "v", surface)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = 25 * 161
    assert peak < cells * 57 + 12 * 8 * cells


def test_records_are_padded_only_where_some_cells_leave_a_slot_empty():
    assert not csvtext._fields(-np.arange(1.0, 5.0), ",")[1]  # a sign in every record
    assert not csvtext._fields(np.array([1e-100, 1e200]), ",")[1]  # three exponent digits
    assert csvtext._fields(np.array([-1.0, 1.0]), ",")[1]
    assert csvtext._fields(np.array([1e-100, 1.0]), ",")[1]
    assert csvtext._fields(np.array([1.0, np.nan]), ",")[1]


@pytest.mark.parametrize("entry", [None, 0, 85, 170, 255])
def test_figure1_surfaces_need_no_python_formatting(tmp_path, monkeypatch, entry):
    # the default config and a few figure1 pool entries: a slide back to
    # per-cell Python formatting, or to padded records for the surface,
    # shows up here (the conditional slice reaches 1e-126 at the default
    # config, so its exponents mix two and three digits)
    doc = {} if entry is None else (
        json.loads(FIGURE1_POOL.read_text())["workloads"]["figure1"][entry]["config"])
    cfg = parse_config(json.dumps(doc))
    f1, f2, f3 = cfg.filters[:3]
    grids = (cfg.grid("tau12_ps"), cfg.grid("tau32_ps"))
    panels = corr.w_temporal_panels(cfg.phase_match, f1, f2, f3, cfg.quadrature, grids,
                                    method=corr.w_temporal_method(f1, f2, f3))
    formatted = count_fallback(monkeypatch)
    for panel, names in zip(panels, [("tau12_ps", "tau32_ps"), ("tau12_ps",), ("tau12_ps",)]):
        cli.write_surface_csv(tmp_path / "p.csv", names, "g", panel, True)
    surface = panels[0]
    keep = [g.points() >= 0.0 for g in surface.axes]
    for column in [g.points()[k] for g, k in zip(surface.axes, keep)] + [
            surface.values[np.ix_(*keep)]]:
        assert not csvtext._fields(column, ",")[1]
    assert panels[0].values.size == 161 * 161
    assert sum(formatted) == 0


@pytest.mark.parametrize("axes,vals", [
    # mixed-sign axes: every row's axis fields are padded
    ((np.linspace(-2.0, 2.0, 9), np.linspace(-1.0, 3.0, 5)),
     np.random.default_rng(7).uniform(0.0, 1.0, (9, 5))),
    # an all-negative axis takes a sign slot without padding
    ((np.linspace(-5.0, -3.0, 4), np.linspace(1.0, 2.0, 3)), np.full((4, 3), 0.5)),
    # values where only some cells have three-digit exponents, and -0.0
    ((np.arange(6.0),), np.array([1e-5, 3.5e-150, -0.0, 2.0, 1e-99, 7e100])),
    # non-finite values
    ((np.arange(4.0), np.arange(3.0)),
     np.array([[np.nan, 1.0, np.inf], [-np.inf, 0.0, -0.0], [-np.nan, 2.5, 1e-300],
               [3.0, -4.0, 5e-324]])),
    # a curve of two blocks: the first uniform, the second padded
    ((np.arange(5000.0),), np.concatenate([np.full(4096, 0.25), np.geomspace(1e-120, 1.0, 904)])),
    # empty input
    ((np.empty(0),), np.empty(0)),
    ((np.arange(3.0), np.empty(0)), np.empty((3, 0))),
    # a surface of three blocks whose later values need a sign and then a
    # hundreds slot, so the row grows and the second axis is laid again
    ((np.arange(60.0), np.linspace(-1.0, 1.0, 200)),
     np.concatenate([np.full((20, 200), 0.25), -np.full((20, 200), 0.5),
                     np.geomspace(1e-150, 1.0, 4000).reshape(20, 200)])),
])
def test_padded_and_uniform_blocks_match_python(axes, vals):
    assert rows_text(list(axes), vals) == per_row(axes, vals)


def test_mixed_sign_surface_writes_like_python(tmp_path):
    grids = (Grid1D(-2.0, 0.25, 17), Grid1D(-1.0, 0.5, 9))
    values = np.random.default_rng(11).uniform(0.0, 1.0, (17, 9)) ** 40
    values[3, 4] = -0.0
    cli.write_surface_csv(tmp_path / "m.csv", ("x", "y"), "v", CorrelationSurface(grids, values))
    points = [g.points() for g in grids]
    assert (tmp_path / "m.csv").read_bytes() == b"x,y,v\n" + per_row(points, values)


@pytest.mark.parametrize("axes", [
    (Grid1D(-3.0, 1.0, 3),),
    (Grid1D(-3.0, 1.0, 3), Grid1D(0.0, 1.0, 4)),
    (Grid1D(0.0, 1.0, 4), Grid1D(-3.0, 1.0, 3)),
])
def test_masking_every_point_leaves_the_header(tmp_path, axes):
    surface = CorrelationSurface(axes, np.ones(tuple(g.count for g in axes)))
    names = ("tau12_ps", "tau32_ps")[:len(axes)]
    cli.write_surface_csv(tmp_path / "m.csv", names, "g", surface, mask_negative_axis=True)
    assert (tmp_path / "m.csv").read_bytes() == (",".join(names) + ",g\n").encode()


def test_surface_blocks_are_written_as_they_are_built(tmp_path, monkeypatch):
    # a 161 x 161 surface is 7 blocks of rows; each is written before the
    # next is built, so the file's text is never held whole
    events = []
    rows, write = csvtext.csv_rows, cli._write_text

    def built(*args):
        for block in rows(*args):
            events.append("built")
            yield block

    def written(path, parts):
        def logged():
            for part in parts:
                yield part
                events.append("written")
        write(path, logged())

    monkeypatch.setattr(csvtext, "csv_rows", built)
    monkeypatch.setattr(cli, "_write_text", written)
    grid = Grid1D(0.0, 0.25, 161)
    values = np.random.default_rng(5).uniform(0.0, 1.0, (161, 161))
    cli.write_surface_csv(tmp_path / "s.csv", ("x", "y"), "v",
                          CorrelationSurface((grid, grid), values))
    assert events == ["written"] + ["built", "written"] * 7
    text = (tmp_path / "s.csv").read_bytes()
    assert text == b"x,y,v\n" + per_row([grid.points(), grid.points()], values)
