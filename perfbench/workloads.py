"""The benchmark's workloads: lists of configs run through ``nhlattice run``.

Each item is ``{"name", "config", "known_fault"}``. ``known_fault`` names a
program fault that makes the item's outputs fail their checks on every pass;
the item is then counted as failed instead of incorrect.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# The bundled configs whose time goes mostly to curve fits (fig4b: 10
# oscillation fits; fig3c, figs2: decay fits), and the rest of the bundled
# set. Together they are the 13 configs under configs/figs.
FITS = ("fig4b", "fig3c", "figs2")
MAPS = (
    "calibration_builtin", "fig1b", "fig2a", "fig2c_bulk_I", "fig2c_edge_II",
    "fig2c_edge_III", "fig3d", "fig4c", "symmetry_bdi", "winding_diagram",
)
WORKLOADS = ("fits", "maps", "large-chain")

# ep-sweep._scaled_interface rebuilds each domain as a symmetric
# trivial(g)/topological(g) pattern and drops g0 and g1, so with these
# domains the tracked pair is not a spectrum of the configured lattice.
SCALED_INTERFACE_FAULT = (
    "spectral._scaled_interface drops g0/g1 of asymmetric domains"
)


def _bundled(root: Path, name: str) -> dict:
    path = root / "configs" / "figs" / f"{name}.json"
    if not path.is_file():
        raise FileNotFoundError(f"bundled config missing: {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def _large_chain(seed: int) -> list:
    """Configs at 200-400 sites. The seed picks loss strengths and launch
    sites only; sizes, z grids and J grids are fixed, so every seed does the
    same amount of work."""
    rng = random.Random(seed)

    def pick(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    g = pick(0.9, 1.3)
    j_grid = {"j_min": 0.04, "j_max": 0.12, "j_step": 0.002}
    return [
        ("spectrum_400", None, {
            "run": "spectrum",
            "lattice": {"n_sites": 400, "hopping_J": 0.045, "spacing_d": 1.4,
                        "pattern": {"g0": g, "g1": g, "g2": g}},
            "grid": [{"path": "lattice.pattern.g2", "values": [-g, g]}],
        }),
        ("rk4_200", None, {
            "run": "propagate",
            "lattice": {"n_sites": 200, "hopping_J": 0.045, "spacing_d": 1.4,
                        "pattern": {"phase": "III", "im_beta": pick(0.08, 0.12)}},
            "excitation": {"kind": "site_index", "site": rng.randint(1, 8)},
            "params": {"z_max": 100.0, "dz": 0.01, "method": "rk4", "save_every": 50},
        }),
        ("expm_400", None, {
            "run": "propagate",
            "lattice": {"n_sites": 400, "hopping_J": 0.045, "spacing_d": 1.4,
                        "pattern": {"phase": rng.choice(["II", "III"]),
                                    "im_beta": pick(0.08, 0.12)}},
            "excitation": {"kind": "site_index", "site": rng.randint(190, 210)},
            "params": {"z_max": 100.0, "dz": 0.01, "method": "expm", "save_every": 100},
        }),
        ("ep_sweep_200", None, {
            "run": "ep-sweep",
            "lattice": {"hopping_J": 0.045, "spacing_d": 1.4,
                        "interface": {"n_left_cells": 25, "n_right_cells": 25,
                                      "im_beta": pick(0.09, 0.11)}},
            "params": j_grid,
        }),
        # Fixed inputs, so the failure is the same on every seed.
        ("ep_sweep_asym_48", SCALED_INTERFACE_FAULT, {
            "run": "ep-sweep",
            "lattice": {"hopping_J": 0.045, "spacing_d": 1.4,
                        "interface": {"n_left_cells": 6, "n_right_cells": 6,
                                      "left": {"g0": 2.0, "g1": 0.5, "g2": -1.0},
                                      "right": {"g0": 2.0, "g1": 0.5, "g2": 1.0}}},
            "params": {"j_min": 0.04, "j_max": 0.12, "j_step": 0.001},
        }),
    ]


def build(workload: str, seed: int, root: Path) -> list:
    """The workload's items, each config writing to ``out/<name>``."""
    if workload == "fits":
        entries = [(name, None, _bundled(root, name)) for name in FITS]
    elif workload == "maps":
        entries = [(name, None, _bundled(root, name)) for name in MAPS]
    elif workload == "large-chain":
        entries = _large_chain(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    items = []
    for name, fault, cfg in entries:
        cfg = dict(cfg, output_dir=f"out/{name}")
        items.append({"name": name, "config": cfg, "known_fault": fault})
    return items
