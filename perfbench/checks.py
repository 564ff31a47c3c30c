"""Checks of one pass's output files, made apart from the program.

Each check builds its own Hamiltonian from the config with NumPy/SciPy (not
nhlattice), or tests a property the method must have:

- spectra: eigenvalues match independent ``eigvals`` and sum to the trace;
- propagations: intensities match ``expm(i conj(H) z)`` applied to the
  launch, and the total intensity never grows (no run has gain);
- momentum maps: the power satisfies Parseval against the windowed field;
- decay fits: ``ell`` is the mean of independent log-linear fits over the
  reported ranges; fitted traces match the independent propagation;
- fig4b: edge ``kz_osc`` grows as d shrinks, interface stays below edge;
- winding: W is 1 for g2 > 0 and 0 for g2 < 0; symmetry: class BDI;
- fig4c: J_ep lies in [0.085, 0.105] 1/um;
- ep-sweeps: every tracked pair is an eigenvalue of the lattice at that J
  with the configured on-site Im beta held fixed;
- interface-compare: each Im E belongs to the mode of largest weight on the
  interface (defect) site of the independently built lattice.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

# Documented program defaults for fields a config may leave out.
DEFAULT_RE_BETA = 6.6
DEFAULT_Z_MAX = 100.0
DEFAULT_DZ = 0.01
SITES_PER_CELL = 4

# Calibration anchors: stripe width w (um) -> Im beta (1/um), interpolated;
# spacing d (um) -> J (1/um), exponential through both points.
IMBETA_VS_W = ((0.0, 0.0), (0.25, 0.06), (0.5, 0.09), (0.7, 0.1))
J_VS_D = ((1.4, 0.045), (1.0, 0.095))

EIG_ATOL = 1e-8          # 1/um
FIELD_ATOL = 1e-8        # share of the launch power
REL_TOL = 1e-7
J_EP_WINDOW = (0.085, 0.105)


# ---------------------------------------------------------------------------
# independent model


def hopping(lat: dict) -> float:
    if lat["hopping_J"] != "auto":
        return float(lat["hopping_J"])
    (d1, j1), (d2, j2) = J_VS_D
    decay = (d2 - d1) / math.log(j1 / j2)
    return j1 * math.exp(-(lat["spacing_d"] - d1) / decay)


def _cell(pattern: dict, J: float) -> np.ndarray:
    """On-site constants of one cell in units of J, loss as negative Im."""
    phase = pattern.get("phase")
    if phase is None:
        g0, g1, g2 = pattern["g0"], pattern["g1"], pattern["g2"]
        return 1j * np.array([g1, -g2, -g1, g2]) - 1j * g0
    if phase == "I":
        return np.zeros(SITES_PER_CELL, dtype=complex)
    if phase not in ("II", "III"):
        raise ValueError(f"phase {phase!r} is not checked")
    if "g" in pattern:
        g = pattern["g"]
    else:
        if "w" in pattern:
            xs, ys = zip(*IMBETA_VS_W)
            if not xs[0] <= pattern["w"] <= xs[-1]:
                raise ValueError("stripe width outside the calibration anchors")
            im_beta = float(np.interp(pattern["w"], xs, ys))
        else:
            im_beta = pattern["im_beta"]
        g = im_beta / (2.0 * J)
    lossy = (0, 0, 1, 1) if phase == "II" else (0, 1, 1, 0)
    return -2j * g * np.array(lossy)


def n_sites(lat: dict) -> int:
    if "interface" in lat:
        return SITES_PER_CELL * (lat["interface"]["n_left_cells"] + lat["interface"]["n_right_cells"])
    return lat["n_sites"]


def onsite(lat: dict) -> np.ndarray:
    """Per-site on-site constants in 1/um, without the uniform re_beta."""
    J = hopping(lat)
    if "interface" not in lat:
        n = lat["n_sites"]
        return J * np.tile(_cell(lat["pattern"], J), -(-n // SITES_PER_CELL))[:n]
    iface = lat["interface"]
    if "left" in iface:
        left, right = iface["left"], iface["right"]
    else:
        src = {k: iface[k] for k in ("g", "im_beta", "w") if k in iface}
        left, right = {"phase": "II", **src}, {"phase": "III", **src}
    return J * np.concatenate([
        np.tile(_cell(left, J), iface["n_left_cells"]),
        np.tile(_cell(right, J), iface["n_right_cells"]),
    ])


def tridiagonal(diag: np.ndarray, J: float) -> np.ndarray:
    n = diag.size
    return np.diag(diag.astype(complex)) + J * (np.eye(n, k=1) + np.eye(n, k=-1))


def hamiltonian(lat: dict) -> np.ndarray:
    return tridiagonal(lat.get("re_beta", DEFAULT_RE_BETA) + onsite(lat), hopping(lat))


def launch(cfg: dict) -> np.ndarray:
    lat, exc = cfg["lattice"], cfg["excitation"]
    n = n_sites(lat)
    kind = exc["kind"]
    if kind == "edge":
        site = 1
    elif kind == "interface":
        site = SITES_PER_CELL * lat["interface"]["n_left_cells"] + 1
    elif kind == "bulk_cell_start":
        site = SITES_PER_CELL * ((n // SITES_PER_CELL) // 2) + 1
    else:
        site = exc["site"]
    a0 = np.zeros(n, dtype=complex)
    a0[site - 1] = complex(*exc.get("amplitude", [1.0, 0.0]))
    return a0


def _generator(cfg: dict) -> np.ndarray:
    # the uniform re_beta only adds a global phase, so intensities omit it
    lat = cfg["lattice"]
    return 1j * np.conj(tridiagonal(onsite(lat), hopping(lat)))


def intensity_rows(cfg: dict, n_rows: int, step_z: float) -> np.ndarray:
    """Intensities at z = 0, step_z, 2 step_z, ... from the launch, stepped
    with expm(i conj(H) step_z)."""
    step, a = expm(_generator(cfg) * step_z), launch(cfg)
    out = np.empty((n_rows, a.size))
    for i in range(n_rows):
        out[i] = np.abs(a) ** 2
        a = step @ a
    return out


# ---------------------------------------------------------------------------
# readers


def _table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# per-operation checks: (config of one point, its output dir) -> problems


def _same_spectrum(found: np.ndarray, ref: np.ndarray) -> list:
    if found.size != ref.size:
        return [f"{found.size} eigenvalues, expected {ref.size}"]
    dist = np.abs(found[:, None] - ref[None, :])
    rows, cols = linear_sum_assignment(dist)
    worst = float(dist[rows, cols].max())
    return [] if worst <= EIG_ATOL else [f"eigenvalues off by up to {worst:.3g} 1/um"]


def check_spectrum(cfg, out):
    t = _table(out / "spectrum.csv")
    found = t[:, 1] + 1j * t[:, 2]
    h = hamiltonian(cfg["lattice"])
    problems = _same_spectrum(found, np.linalg.eigvals(h))
    trace = np.trace(h)
    if abs(found.sum() - trace) > 1e-9 * max(abs(trace), 1.0):
        problems.append(f"eigenvalue sum {found.sum():.12g} != trace {trace:.12g}")
    return problems


def _field_problems(cfg, step_z, z, intens) -> list:
    """Saved rows (z, intensities of all or one site) against expm."""
    problems = []
    if np.abs(z - step_z * np.arange(z.size)).max() > 1e-9 * max(z[-1], 1.0):
        problems.append("saved z rows are not the configured grid")
    ref = intensity_rows(cfg, z.size, step_z)
    if intens.ndim == 1:
        ref = ref[:, np.flatnonzero(launch(cfg))[0]]
    err = float(np.abs(intens - ref).max())
    if err > FIELD_ATOL * float(np.sum(np.abs(launch(cfg)) ** 2)):
        problems.append(f"intensities off expm by {err:.3g}")
    return problems


def check_propagate(cfg, out):
    t = _table(out / "intensity.csv")
    z, intens = t[:, 0], t[:, 1:]
    params = cfg.get("params", {})
    step_z = params.get("dz", DEFAULT_DZ) * max(1, params.get("save_every", 1))
    problems = _field_problems(cfg, step_z, z, intens)
    total = intens.sum(axis=1)
    grew = np.nonzero(np.diff(total) > 1e-12 * total[:-1])[0]
    if grew.size:
        problems.append(f"total intensity grows at z = {z[grew[0] + 1]:g}")
    return problems


def check_momentum(cfg, out):
    params = cfg.get("params", {})
    dz = params.get("dz", DEFAULT_DZ)
    n_z = int(round(params.get("z_max", DEFAULT_Z_MAX) / dz)) + 1
    intens = intensity_rows(cfg, n_z, dz)
    if params.get("window", "hann") == "hann":
        intens = intens * (np.hanning(n_z) ** 2)[:, None] * (np.hanning(intens.shape[1]) ** 2)[None, :]
    expected = float(intens.sum())
    total = _json(out / "manifest.json")["summary"]["total_power_one_zone"]
    problems = []
    if abs(total - expected) > REL_TOL * expected:
        problems.append(f"power sum {total:.12g} != windowed field energy {expected:.12g}")
    if _table(out / "power.csv")[:, 1:].min() < 0:
        problems.append("negative power")
    return problems


def check_fit(cfg, out):
    fit = _json(out / "fit.json")
    t = _table(out / "trace.csv")
    z, intens = t[:, 0], t[:, 1]
    params = cfg.get("params", {})
    problems = []
    if params.get("site", "excited") != "excited":
        raise ValueError("only fits at the launch site are checked")
    if launch(cfg)[fit["site"] - 1] == 0:
        problems.append(f"fitted site {fit['site']} is not the launch site")
    problems += _field_problems(cfg, params.get("dz", DEFAULT_DZ), z, intens)
    if fit["fit"] == "decay":
        ells = []
        for lo, hi in fit["fit_ranges"]:
            m = (z >= lo) & (z <= hi)
            ells.append(-1.0 / np.polyfit(z[m], np.log(intens[m]), 1)[0])
        if not ells:
            problems.append("decay fit reports no range")
        elif not math.isclose(float(np.mean(ells)), fit["ell"], rel_tol=REL_TOL):
            problems.append(f"ell {fit['ell']:.12g} != independent mean {np.mean(ells):.12g}")
    elif not (math.isfinite(fit["kz_osc"]) and fit["kz_osc"] >= 0):
        problems.append(f"kz_osc {fit['kz_osc']} is not a frequency")
    return problems


def check_ep_sweep(cfg, out):
    t = _table(out / "ep_sweep.csv")
    params = cfg.get("params", {})
    lo, hi, step = (params.get(k, v) for k, v in
                    (("j_min", 0.04), ("j_max", 0.12), ("j_step", 0.001)))
    grid = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    problems = []
    if t.shape[0] != grid.size or np.abs(t[:, 0] - grid).max() > 1e-12:
        problems.append("J column is not the configured grid")
    lat = cfg["lattice"]
    diag = lat.get("re_beta", DEFAULT_RE_BETA) + onsite(lat)
    worst, at = 0.0, None
    for J, re_a, im_a, re_b, im_b, _ in t:
        ev = np.linalg.eigvals(tridiagonal(diag, J))
        for pair in (complex(re_a, im_a), complex(re_b, im_b)):
            dist = float(np.abs(ev - pair).min())
            if dist > worst:
                worst, at = dist, J
    if worst > EIG_ATOL:
        problems.append(
            f"tracked pair lies {worst:.3g} 1/um from the configured lattice's spectrum at J = {at:.4g}"
        )
    return problems


def _mode_imag(h: np.ndarray, site: int):
    """Im E of the mode with most weight on ``site`` (0-based), and whether
    the runner-up is within 1 percent."""
    w, v = np.linalg.eig(h)
    weight = np.abs(v[site]) ** 2 / np.sum(np.abs(v) ** 2, axis=0)
    order = np.argsort(weight)[::-1]
    return float(w[order[0]].imag), bool(weight[order[1]] > 0.99 * weight[order[0]]), w


def check_interface_compare(cfg, out):
    params = cfg.get("params", {})
    lat = cfg["lattice"]
    J = hopping(lat)
    cells = params.get("n_cells_per_side", 5)
    n_def = params.get("n_sites_defect", 40)
    problems = []
    for row in _rows(out / "interface_compare.csv"):
        g2 = float(row["g2"])
        iface = {"hopping_J": J, "spacing_d": lat["spacing_d"],
                 "interface": {"n_left_cells": cells, "n_right_cells": cells, "g": g2}}
        defect = np.full(n_def, -2j * g2 * J)
        defect[n_def // 2] = 0.0
        for label, h, site, key in (
            ("interface", tridiagonal(onsite(iface), J), SITES_PER_CELL * cells, "ImE_interface"),
            ("defect", tridiagonal(defect, J), n_def // 2, "ImE_defect"),
        ):
            im, near_tie, w = _mode_imag(h, site)
            found = float(row[key])
            ok = abs(found - im) <= EIG_ATOL or (
                near_tie and np.abs(w.imag - found).min() <= EIG_ATOL)
            if not ok:
                problems.append(f"g2 = {g2:g}: {label} Im E {found:.6g}, expected {im:.6g}")
    return problems


def check_winding(cfg, out):
    problems = []
    for row in _rows(out / "winding.csv"):
        g2, W = float(row["g2"]), float(row["W"])
        expected = 1.0 if g2 > 0 else 0.0
        if abs(W - expected) > 1e-6:
            problems.append(f"W = {W:.9g} at g2 = {g2:g}, expected {expected:g}")
    return problems


def check_symmetry(cfg, out):
    report = _json(out / "symmetry.json")
    problems = []
    for case in cfg.get("params", {}).get("cases", ["nontrivial", "trivial"]):
        r = report[case]
        if r["class_label"] != "BDI" or not (r["holds_T"] and r["holds_C"] and r["holds_S"]):
            problems.append(f"{case}: class {r['class_label']}, expected BDI")
    return problems


def check_calibrate(cfg, out):
    params = cfg.get("params", {})
    if params.get("kind") != "J_vs_d" or params.get("points", "builtin") != "builtin":
        raise ValueError("only the builtin J_vs_d calibration is checked")
    record = _json(out / "calibration.json")
    problems = []
    for x, y in record.get("predictions", []):
        expected = hopping({"hopping_J": "auto", "spacing_d": x})
        if not math.isclose(y, expected, rel_tol=1e-9):
            problems.append(f"J({x:g}) = {y:.12g}, expected {expected:.12g}")
    if record["max_anchor_error"] > 1e-9:
        problems.append(f"anchor error {record['max_anchor_error']:.3g}")
    return problems


CHECKS = {
    "spectrum": check_spectrum,
    "propagate": check_propagate,
    "momentum": check_momentum,
    "fit": check_fit,
    "ep-sweep": check_ep_sweep,
    "interface-compare": check_interface_compare,
    "winding": check_winding,
    "symmetry": check_symmetry,
    "calibrate": check_calibrate,
}


# ---------------------------------------------------------------------------
# checks across the points of one bundled config


def _fig4b_order(points, out):
    kz = {}
    for label, cfg in points:
        kz[(cfg["lattice"]["spacing_d"], cfg["excitation"]["kind"])] = (
            _json(out / label / "fit.json")["kz_osc"])
    spacings = sorted({d for d, _ in kz}, reverse=True)
    edge = [kz[(d, "edge")] for d in spacings]
    problems = []
    if any(b <= a for a, b in zip(edge, edge[1:])):
        problems.append(f"edge kz_osc does not grow as d shrinks: {edge}")
    for d in spacings:
        if not kz[(d, "interface")] < kz[(d, "edge")]:
            problems.append(f"interface kz_osc not below edge at d = {d:g}")
    return problems


def _fig4c_window(points, out):
    j_ep = _json(out / "manifest.json")["summary"]["J_ep"]
    lo, hi = J_EP_WINDOW
    return [] if lo <= j_ep <= hi else [f"J_ep {j_ep:g} outside [{lo:g}, {hi:g}]"]


CONFIG_CHECKS = {"fig4b": _fig4b_order, "fig4c": _fig4c_window}


# ---------------------------------------------------------------------------


def points(cfg: dict) -> list:
    """(label, config) per operation: one per grid point, or the config."""
    if "grid" not in cfg:
        return [("", cfg)]
    out = []
    combos = itertools.product(*(entry["values"] for entry in cfg["grid"]))
    for i, combo in enumerate(combos):
        point = copy.deepcopy(cfg)
        del point["grid"]
        for entry, value in zip(cfg["grid"], combo):
            *parents, leaf = entry["path"].split(".")
            node = point
            for seg in parents:
                node = node[seg]
            node[leaf] = copy.deepcopy(value)
        out.append((f"point_{i:03d}", point))
    return out


def check_item(item: dict, base: Path, code: int):
    """Check one config's outputs after a pass.

    Returns ``(ops, problems)``: ``ops`` holds ``(label, error, problems)``
    per operation, where ``error`` is the program's own failure report;
    ``problems`` are failures of checks across the config's points.
    """
    cfg = item["config"]
    out = base / cfg["output_dir"]
    pts = points(cfg)
    errors = {}
    if code != 0:
        errors = {label: f"exit code {code}" for label, _ in pts}
    elif "grid" in cfg:
        rows = _rows(out / "results.csv")
        errors = {f"point_{int(r['point']):03d}": r["error"] for r in rows if r["error"]}
    ops = []
    for label, point in pts:
        error, problems = errors.get(label), []
        if error is None:
            try:
                problems = CHECKS[point["run"]](point, out / label)
            except Exception as exc:  # unreadable or missing output is a failed check
                problems = [f"output not checkable: {exc!r}"]
        ops.append((f"{item['name']}/{label}".rstrip("/"), error, problems))
    problems = []
    if item["name"] in CONFIG_CHECKS and not any(error for _, error, _ in ops):
        try:
            problems = CONFIG_CHECKS[item["name"]](pts, out)
        except Exception as exc:
            problems = [f"output not checkable: {exc!r}"]
    return ops, problems
