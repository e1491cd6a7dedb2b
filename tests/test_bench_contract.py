"""The benchmark's contract with the program, checked without running it.

``perfbench`` drives ``cli.main`` and checks every command's outputs
against ``perfbench/reference.json``; its traced run wraps public names
and re-evaluates each correlator call with ``method="quad"``. These tests
run one pool entry of every command kind both ways, so a change that
breaks an import, a name, an output or the engine agreement the
benchmark relies on fails here. The ``modes`` command also runs on the
first pool entry of each bin count, because each count gives the
conservation rule a different partner offset, and ``figure1`` on the
pool entries with the smallest and largest walk-off times, the ends of
the range over which the chirp-z phases and the integrand's envelope
move. Nothing under ``perfbench/`` is edited.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from triphoton import cli, continuum, correlators, modes, qubits
from triphoton.config import parse_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wl = _load("workloads")
tracing = _load("tracing")
REFERENCE = wl.load_reference()
# one pool entry of every command kind the reference records
CASES = [(workload, kind) for workload, pool in REFERENCE["workloads"].items()
         for kind in pool[0]["expected"]]
# first modes-large pool entry of every bin count
MODES_ENTRIES = {}
for i, entry in enumerate(REFERENCE["workloads"]["modes-large"]):
    MODES_ENTRIES.setdefault(entry["config"]["mode_grid"]["n_bins"], i)
# figure1 pool entries with the smallest and largest t12_ps and t32_ps
FIGURE1_POOL = REFERENCE["workloads"]["figure1"]
FIGURE1_ENTRIES = sorted({pick(range(len(FIGURE1_POOL)),
                               key=lambda i: FIGURE1_POOL[i]["config"]["phase_match"][t])
                          for pick in (min, max) for t in ("t12_ps", "t32_ps")})


def _csv_count(kind):
    """CSVs a command kind writes: figure1's three panels, one per curve or
    surface, none for modes or a scalar correlator."""
    if kind == "figure1":
        return 3
    scalar = kind in ("correlate/ghz12/time/2", "correlate/ghz12/space/2")
    return 0 if kind == "modes" or scalar else 1


def _run(workload, kind, tmp_path, tracer=None, entry=0):
    pool = REFERENCE["workloads"][workload]
    cfg = wl.write_config(pool, entry, tmp_path / "cfg")
    out = tmp_path / "out"
    wl.clear(out)
    argv = wl.argv_for(kind, str(cfg), str(out))
    if tracer is None:
        code = cli.main(argv)
    else:
        tracer.install(cli, correlators, modes, qubits)
        try:
            code, _ = tracer.run_command(lambda: cli.main(argv))
        finally:
            tracer.uninstall()
    assert code == 0
    problems, nbytes = wl.check(kind, out, pool[entry]["expected"][kind])
    assert problems == []
    if tracer is not None:
        # every CSV goes through the one writer the benchmark times
        assert tracer.calls["cli.write_surface_csv"] == _csv_count(kind)
    return nbytes


def test_reference_covers_every_command_kind():
    kinds = {kind for _, kind in CASES}
    assert kinds == {"figure1", "modes", *wl.CORRELATE_KINDS}


@pytest.mark.parametrize("workload, kind", CASES)
def test_command_matches_reference(workload, kind, tmp_path):
    _run(workload, kind, tmp_path)


@pytest.mark.parametrize("n_bins", wl.MODES_BINS)
def test_modes_matches_reference_at_every_bin_count(n_bins, tmp_path):
    _run("modes-large", "modes", tmp_path, entry=MODES_ENTRIES[n_bins])


@pytest.mark.parametrize("entry", FIGURE1_ENTRIES)
def test_figure1_matches_reference_across_walk_off(entry, tmp_path):
    _run("figure1", "figure1", tmp_path, entry=entry)


def test_figure1_pool_surfaces_sum_their_nodes_in_one_group(monkeypatch):
    # every figure1 entry runs the continuum engine, and its surface is one
    # rank-K product, one exponential per point, as at the default config
    groups = []
    real = continuum._node_groups
    monkeypatch.setattr(continuum, "_node_groups",
                        lambda *args: groups.append(real(*args)) or groups[-1])
    for entry in FIGURE1_POOL:
        cfg = parse_config(json.dumps(entry["config"]))
        filters = cli._filters3(cfg)
        assert correlators.w_temporal_method(*filters) == "continuum"
        continuum.w_surface(cfg.phase_match, filters, cfg.grid("tau12_ps").points(),
                            cfg.grid("tau32_ps").points())
    assert len(groups) == len(FIGURE1_POOL) == 256
    assert all(len(g) == 1 for g in groups)


@pytest.mark.parametrize("kind", wl.CORRELATE_KINDS)
def test_traced_command_passes_engine_check(kind, tmp_path):
    tracer = tracing.Tracer()
    _run("correlate-fine", kind, tmp_path, tracer)
    assert tracer.fft_quad_maxrel < 1e-9
    assert sum(tracer.calls[f"correlators.{name}"] for name in tracing.CORRELATORS) == 1


def test_traced_figure1_writes_its_panels(tmp_path):
    _run("figure1", "figure1", tmp_path, tracing.Tracer())


def test_traced_modes_command_builds_each_state_once(tmp_path):
    tracer = tracing.Tracer()
    _run("modes-large", "modes", tmp_path, tracer)
    assert tracer.calls["modes.build_w_discrete"] == 1
    assert tracer.calls["modes.build_ghz_discrete"] == 1
    assert tracer.calls["qubits.DensityMatrix"] > 0
