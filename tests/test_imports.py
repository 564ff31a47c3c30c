"""scipy's submodules load only in the runs that call them.

Each test starts a fresh interpreter, since the test process itself has
long since imported scipy.linalg and scipy.optimize.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from nhlattice.cli import main

ROOT = Path(__file__).resolve().parents[1]
FIGS = sorted((ROOT / "configs" / "figs").glob("*.json"))
LAZY = ("scipy.linalg", "scipy.optimize")

# Runs a list of [command, config path] through nhlattice.cli.main in one
# process and prints, as JSON, the exit codes and which of LAZY are loaded.
PROBE = """
import contextlib, io, json, sys
import nhlattice.cli as cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for command, path in json.loads(sys.argv[1]):
        codes.append(cli.main([command, path]))
print(json.dumps({"codes": codes, "loaded": [m for m in sys.argv[2:] if m in sys.modules]}))
"""


def probe(commands, workers=1):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", NHLATTICE_WORKERS=str(workers),
               PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(commands), *LAZY],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def small_copy(tmp_path, name, grid=None, **params):
    """The bundled config ``name`` with ``params`` (and ``grid``) overridden,
    writing under tmp_path."""
    cfg = json.loads((ROOT / "configs" / "figs" / f"{name}.json").read_text())
    cfg["output_dir"] = str(tmp_path / "out" / name)
    cfg["params"] = {**cfg.get("params", {}), **params}
    if grid is not None:
        cfg["grid"] = grid
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_and_non_fit_runs_load_no_scipy_submodule(tmp_path):
    runs = [
        small_copy(tmp_path, "fig1b"),  # spectrum sweep
        small_copy(tmp_path, "fig2a", z_max=8.0, dz=0.1),  # propagate sweep, expm
        small_copy(tmp_path, "fig2c_bulk_I", z_max=8.0, dz=0.1),  # momentum
        small_copy(tmp_path, "symmetry_bdi", k_samples=8),
        small_copy(tmp_path, "winding_diagram", k_grid_size=16),
    ]
    result = probe([["validate", str(p)] for p in FIGS] + [["run", p] for p in runs])
    assert result == {"codes": [0] * (len(FIGS) + len(runs)), "loaded": []}
    assert len(list((tmp_path / "out").rglob("manifest.json"))) == 2 + 6 + 1 + 1 + 1


def test_fit_sweep_imports_least_squares_from_pool_threads(tmp_path, monkeypatch):
    # three pool threads reach the first scipy.optimize import together; a
    # serial run of the same sweep in this process gives the same files
    grid = [{"path": "lattice.spacing_d", "values": [1.8, 1.6, 1.4]}]
    pooled = small_copy(tmp_path, "fig4b", grid, z_max=30.0, dz=0.05)
    assert probe([["run", pooled]], workers=3) == {"codes": [0], "loaded": list(LAZY)}
    cfg = json.loads(Path(pooled).read_text())
    cfg["output_dir"] += "_serial"
    serial = tmp_path / "serial.json"
    serial.write_text(json.dumps(cfg))
    monkeypatch.setenv("NHLATTICE_WORKERS", "1")
    assert main(["run", str(serial)]) == 0

    def tree(out):
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file() and "manifest" not in p.name}

    out = tmp_path / "out"
    assert tree(out / "fig4b") == tree(out / "fig4b_serial")
    assert len(list((out / "fig4b").rglob("fit.json"))) == 3
