"""The vectorized ``%.12e`` CSV formatter against Python's own formatting."""

import numpy as np
import pytest

from triphoton import cli, parse_config
from triphoton import correlators as corr
from triphoton.correlators import CorrelationSurface, Grid1D


def vectorized(values) -> bytes:
    return cli._e12_fields(np.asarray(values, dtype=float), "\n").tobytes().translate(None, b"\0")


def per_cell(values) -> bytes:
    return "".join("%.12e\n" % v for v in np.ravel(values).tolist()).encode()


def assert_formats_like_python(values):
    got, want = vectorized(values), per_cell(values)
    if got != want:
        bad = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(bad)} cells differ, first: {bad[:3]}")


def count_fallback(monkeypatch) -> list[int]:
    """Wrap ``cli._e12_fallback``; the list gets the size of each call."""
    sizes = []
    fallback = cli._e12_fallback

    def counting(x):
        sizes.append(x.size)
        return fallback(x)

    monkeypatch.setattr(cli, "_e12_fallback", counting)
    return sizes


def oracle_values() -> np.ndarray:
    rng = np.random.default_rng(20260)
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    exps = rng.integers(-300, 300, 30_000)
    # (k + 0.5)·10^(e−12) sits on a rounding tie of the 13-digit mantissa
    ties = (rng.integers(10 ** 12, 10 ** 13, exps.size) + 0.5) * 10.0 ** (exps - 12)
    # 9.9999999999995·10^e and its neighbours round up into the next decade
    decade = np.array([float(f"9.9999999999995e{j}") for j in range(-300, 300)])
    special = [0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.797e308, np.finfo(float).max, 9.9999999999995e-1, 9.99999999999949e-1]
    subnormals = rng.integers(1, 2 ** 52, 20_000, dtype=np.uint64).view(np.float64)
    bits = rng.integers(0, 2 ** 64, 750_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([special, powers, decade, ties, subnormals])
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


def test_forced_fallback_gives_identical_bytes(tmp_path, monkeypatch):
    grids = (Grid1D(-2.0, 0.25, 17), Grid1D(0.0, 0.5, 9))
    values = np.exp(-np.random.default_rng(3).uniform(0.0, 700.0, (17, 9)))
    values[0, :3] = 0.0
    surface = CorrelationSurface(grids, values)
    cli.write_surface_csv(tmp_path / "fast.csv", ("x", "y"), "v", surface)

    monkeypatch.setattr(cli, "_TIE_MARGIN", 1.0)
    formatted = count_fallback(monkeypatch)
    cli.write_surface_csv(tmp_path / "slow.csv", ("x", "y"), "v", surface)
    assert sum(formatted) == 17 + 9 + values.size
    assert (tmp_path / "slow.csv").read_bytes() == (tmp_path / "fast.csv").read_bytes()


def test_default_figure1_surface_rarely_falls_back(tmp_path, monkeypatch):
    # a slide back to per-cell Python formatting shows up here
    cfg = parse_config("{}")
    f1, f2, f3 = cfg.filters[:3]
    grids = (cfg.grid("tau12_ps"), cfg.grid("tau32_ps"))
    surface, _, _ = corr.w_temporal_panels(cfg.phase_match, f1, f2, f3, cfg.quadrature, grids,
                                           method=corr.w_temporal_method(f1, f2, f3))
    formatted = count_fallback(monkeypatch)
    cli.write_surface_csv(tmp_path / "a.csv", ("tau12_ps", "tau32_ps"), "g3", surface, True)
    assert surface.values.size == 161 * 161
    assert sum(formatted) <= 0.05 * surface.values.size


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
    rows, write = cli._csv_rows, cli._write_text

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

    monkeypatch.setattr(cli, "_csv_rows", built)
    monkeypatch.setattr(cli, "_write_text", written)
    grid = Grid1D(0.0, 0.25, 161)
    values = np.random.default_rng(5).uniform(0.0, 1.0, (161, 161))
    cli.write_surface_csv(tmp_path / "s.csv", ("x", "y"), "v",
                          CorrelationSurface((grid, grid), values))
    assert events == ["written"] + ["built", "written"] * 7
    text = (tmp_path / "s.csv").read_bytes()
    assert text == b"x,y,v\n" + "".join(
        f"{a:.12e},{b:.12e},{v:.12e}\n" for a, row in zip(grid.points(), values)
        for b, v in zip(grid.points(), row)).encode()
