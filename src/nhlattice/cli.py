"""Command-line driver: validate, run, and sweep experiment configs.

A config is a JSON object whose sections are declared once, below:
``_TOP`` for the top level, ``RUNS`` for each run's runner, lattice shape,
excitation and ``params`` (checks and defaults), and ``_LATTICE``,
``_PATTERNS``, ``_INTERFACE`` and ``_EXCITATION`` for the rest. Units: J and
re_beta in 1/um, spacing d and stripe width w in um. ``"hopping_J": "auto"``
and loss given as ``im_beta`` or ``w`` go through the calibration module.

``validate`` builds the lattice and resolves the excitation through the
builders ``run`` uses, so it reports every configuration error, with the
offending JSON path, before anything runs. Exit codes: 0 on success, 2 for
configuration problems, 3 for numerical failures (with a
``diagnostics.json``). Each run writes a ``manifest.json`` with the config
hash, versions and all derived parameters; outputs are byte-reproducible.
A ``grid`` sweeps one or two dotted config paths, on a thread pool sized by
``NHLATTICE_WORKERS``; a failing point is recorded and the sweep goes on.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import reprlib
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from copy import deepcopy
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy  # for scipy.__version__ only: it loads no submodule

from . import __version__, analysis, calibration, propagation, serialization, spectral
from . import symmetry as symmetry_mod
from . import topology
from .calibration import _is_num
from .errors import ConfigurationError, NumericalError
from .lattice import (
    DEFAULT_RE_BETA,
    LatticeSpec,
    LossPattern,
    interface_lattice,
    real_space_hamiltonian,
)
from .propagation import Excitation


class ConfigError(ConfigurationError):
    """Config validation failure carrying the offending JSON path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.json_path = path


@contextmanager
def _reported_at(path: str, where: str = ""):
    """Report a builder's ConfigurationError as a ConfigError at ``path``,
    its message prefixed by ``where``."""
    try:
        yield
    except ConfigurationError as exc:
        raise ConfigError(path, where + str(exc)) from None


# ---------------------------------------------------------------------------
# field rules and sections


class Rule(NamedTuple):
    """The values a config field accepts: a description and a test."""

    what: str
    ok: Callable[[Any], bool]


REQUIRED = object()


def _int(lo: Optional[int] = None) -> Rule:
    return Rule(
        "an integer" + ("" if lo is None else f" >= {lo}"),
        lambda v: isinstance(v, int) and not isinstance(v, bool)
        and (lo is None or v >= lo),
    )


def _one_of(*choices: str) -> Rule:
    return Rule(" or ".join(map(repr, choices)), lambda v: isinstance(v, str) and v in choices)


def _list(what: str, item: Rule, n: Optional[int] = None) -> Rule:
    return Rule(what, lambda v: isinstance(v, list) and (n is None or len(v) == n)
                and all(item.ok(x) for x in v))


def _either(a: Rule, b: Rule) -> Rule:
    return Rule(f"{a.what} or {b.what}", lambda v: a.ok(v) or b.ok(v))


NUM = Rule("a finite number", _is_num)
POS = Rule("a number > 0", lambda v: _is_num(v) and v > 0)
NONNEG = Rule("a number >= 0", lambda v: _is_num(v) and v >= 0)
BOOL = Rule("true or false", lambda v: isinstance(v, bool))
STR = Rule("a string", lambda v: isinstance(v, str))
OBJ = Rule("an object", lambda v: isinstance(v, dict))
NUMS = _list("a list of finite numbers", NUM)
PAIR = _list("a pair of finite numbers", NUM, 2)
RANGE = Rule("a pair [lo, hi] with lo < hi", lambda v: PAIR.ok(v) and v[0] < v[1])


def _fail(path: str, rule: Rule, value):
    raise ConfigError(path, f"expected {rule.what}, got {reprlib.repr(value)}")


def _section(obj, fields: Dict[str, Tuple[Rule, Any]], path: str) -> dict:
    """Check ``obj`` against ``fields``; return a copy with defaults filled in."""
    if not isinstance(obj, dict):
        _fail(path, OBJ, obj)
    for key in obj:
        if key not in fields:
            raise ConfigError(f"{path}.{key}", "unknown field")
    out = {}
    for key, (rule, default) in fields.items():
        if key not in obj:
            if default is REQUIRED:
                raise ConfigError(f"{path}.{key}", "missing required field")
            out[key] = default
        elif rule.ok(obj[key]):
            out[key] = obj[key]
        else:
            _fail(f"{path}.{key}", rule, obj[key])
    return out


# Loss of a phase II/III pattern or an interface shorthand: exactly one.
_LOSS = {"g": (NONNEG, None), "im_beta": (NONNEG, None), "w": (NONNEG, None)}

# Pattern fields per "phase"; without a phase, an explicit (g0, g1, g2).
_TRIPLE = {"g0": (NONNEG, REQUIRED), "g1": (NUM, REQUIRED), "g2": (NUM, REQUIRED)}
_PATTERNS = {
    "I": {},
    "II": _LOSS,
    "III": _LOSS,
    "custom": {
        "cell": (_list("four [re, im] pairs", PAIR, 4), REQUIRED),
        "g0": (NONNEG, 0.0),
    },
}
_PHASE = _one_of(*_PATTERNS)

# Without left/right domains, the interface is a II|III junction whose
# symmetric loss is given by one of the _LOSS fields.
_INTERFACE = {
    "n_left_cells": (_int(1), REQUIRED),
    "n_right_cells": (_int(1), REQUIRED),
    "left": (OBJ, None),
    "right": (OBJ, None),
    **_LOSS,
}

_LATTICE = {
    "hopping_J": (_either(POS, _one_of("auto")), REQUIRED),
    "spacing_d": (POS, REQUIRED),
    "re_beta": (NUM, DEFAULT_RE_BETA),
    "n_sites": (_int(1), None),
    "pattern": (OBJ, None),
    "interface": (OBJ, None),
}

# The structural lattice fields each kind of run takes, besides J and d.
_SHAPES = {
    "chain": (("n_sites", "pattern"), ("interface",)),
    "interface": (("interface",),),
    "cell": (("pattern",), ()),
    "bare": ((),),
}

_EXCITATION = {
    "kind": (_one_of(propagation.KIND_EDGE, propagation.KIND_BULK,
                     propagation.KIND_INTERFACE, propagation.KIND_SITE), REQUIRED),
    "site": (_int(1), None),
    "amplitude": (PAIR, (1.0, 0.0)),
}


def _one_loss(obj: dict, path: str):
    if sum(obj[k] is not None for k in _LOSS) != 1:
        raise ConfigError(path, "needs exactly one of g, im_beta, w")


def _check_pattern(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        _fail(path, OBJ, obj)
    phase = obj.get("phase")
    if "phase" in obj and not _PHASE.ok(phase):
        _fail(f"{path}.phase", _PHASE, phase)
    rest = {k: v for k, v in obj.items() if k != "phase"}
    pattern = _section(rest, _PATTERNS.get(phase, _TRIPLE), path)
    if phase in ("II", "III"):
        _one_loss(pattern, path)
    if phase is None:
        with _reported_at(path):
            LossPattern.from_g(pattern["g0"], pattern["g1"], pattern["g2"])
    pattern["phase"] = phase
    return pattern


def _check_interface(obj, path: str) -> dict:
    iface = _section(obj, _INTERFACE, path)
    domains = [iface[k] is not None for k in ("left", "right")]
    if domains[0] != domains[1]:
        raise ConfigError(path, "left and right go together")
    if domains[0]:
        if any(iface[k] is not None for k in _LOSS):
            raise ConfigError(path, "domains and shorthand are exclusive")
        for side in ("left", "right"):
            iface[side] = _check_pattern(iface[side], f"{path}.{side}")
    else:
        _one_loss(iface, path)
        loss = {k: iface[k] for k in _LOSS}
        iface["left"] = {"phase": "II", **loss}
        iface["right"] = {"phase": "III", **loss}
    return iface


def _check_lattice(obj, path: str, run: str) -> dict:
    lat = _section(obj, _LATTICE, path)
    shape = tuple(k for k in ("n_sites", "pattern", "interface") if lat[k] is not None)
    shapes = _SHAPES[RUNS[run].lattice]
    if shape not in shapes:
        takes = " or ".join(" + ".join(s) or "J and d alone" for s in shapes)
        raise ConfigError(path, f"run '{run}' takes {takes}")
    if lat["pattern"] is not None:
        lat["pattern"] = _check_pattern(lat["pattern"], f"{path}.pattern")
    if lat["interface"] is not None:
        lat["interface"] = _check_interface(lat["interface"], f"{path}.interface")
    return lat


def _scan(lo: float, hi: float, step: float) -> List[float]:
    """lo, lo + step, ... up to hi (to the nearest step)."""
    return [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]


# ---------------------------------------------------------------------------
# construction of model objects (with derived-parameter recording)


def _hopping(lat: dict, derived: dict) -> float:
    """The lattice's J in 1/um; ``"auto"`` comes from the spacing calibration."""
    hop = lat["hopping_J"]
    if hop == "auto":
        hop = float(calibration.default_hopping_curve().predict(lat["spacing_d"]))
        derived["lattice.hopping_J_from_spacing"] = hop
    derived["lattice.hopping_J"] = hop
    derived["lattice.spacing_d"] = lat["spacing_d"]
    return hop


def _loss_pattern(p: dict, J: float, derived: dict, tag: str) -> LossPattern:
    """A checked pattern section as a LossPattern; ``w`` and ``im_beta`` go
    through the calibration."""
    phase = p["phase"]
    if phase is None:
        return LossPattern.from_g(p["g0"], p["g1"], p["g2"])
    if phase == "I":
        return LossPattern.lossless()
    if phase == "custom":
        return LossPattern.custom([complex(re, im) for re, im in p["cell"]], g0=p["g0"])
    im_beta = p["im_beta"]
    if p["w"] is not None:
        im_beta = float(calibration.default_imbeta_curve().predict(p["w"]))
        derived[f"{tag}.im_beta_from_w"] = im_beta
    g = p["g"]
    if im_beta is not None:
        g = calibration.g2_of(im_beta, J)
        derived[f"{tag}.g_from_im_beta"] = g
    if g == 0.0:
        return LossPattern.lossless()
    if phase == "II":
        return LossPattern.trivial(g)
    return LossPattern.topological(g)


def build_lattice(lat: dict, derived: dict) -> LatticeSpec:
    """The chain of a checked lattice section."""
    hop = _hopping(lat, derived)
    d, re_beta = lat["spacing_d"], lat["re_beta"]
    derived["lattice.re_beta"] = re_beta
    if lat["interface"] is not None:
        iface = lat["interface"]
        left = _loss_pattern(iface["left"], hop, derived, "lattice.interface.left")
        right = _loss_pattern(iface["right"], hop, derived, "lattice.interface.right")
        spec = interface_lattice(
            left, right, iface["n_left_cells"], iface["n_right_cells"], hop, d, re_beta
        )
    else:
        pattern = _loss_pattern(lat["pattern"], hop, derived, "lattice.pattern")
        spec = LatticeSpec(
            n_sites=lat["n_sites"], hopping_J=hop, spacing_d=d,
            pattern=pattern, re_beta=re_beta,
        )
    derived["lattice.n_sites"] = spec.n_sites
    return spec


# ---------------------------------------------------------------------------
# runners: (checked config, output directory) -> (summary, outputs); each
# reads the model objects that validate_config built into the checked config


def _run_spectrum(c, out_dir: Path):
    spec, params = c["spec"], c["params"]
    h = real_space_hamiltonian(spec)
    result = spectral.eig_full(h)
    order = spectral.spectrum_order(
        result.eigenvalues, spectral.SPECTRUM_ORDER_RTOL * np.linalg.norm(h)
    )
    rows = [
        (int(rank), result.eigenvalues[i].real, result.eigenvalues[i].imag,
         result.condition_numbers[i])
        for rank, i in enumerate(order)
    ]
    outputs = [serialization.write_csv(
        out_dir / "spectrum.csv", ["index", "ReE", "ImE", "condition_number"], rows
    )]
    if params["include_vectors"]:
        outputs.append(serialization.matrix_to_csv(
            out_dir / "vectors.csv", result.right_vectors[:, order]
        ))
    report = spectral.find_zero_modes(result, spec, tol=params["zero_mode_tol"])
    re_rel = (result.eigenvalues.real - spec.re_beta) / spec.hopping_J
    summary = {
        "n_zero_modes": len(report),
        "min_abs_re_rel": float(np.abs(re_rel).min()),
        "min_im": float(result.eigenvalues.imag.min()),
        "max_im": float(result.eigenvalues.imag.max()),
    }
    return summary, outputs


def _propagate(c, save_every: int = 1):
    p = c["params"]
    return propagation.propagate(
        c["spec"], c["excitation"], p["z_max"], p["dz"], p["method"], save_every
    )


def _n_samples(params: dict) -> int:
    """The number of samples of the whole z grid, round(z_max / dz) + 1."""
    return round(params["z_max"] / params["dz"]) + 1


def _write_field(field, out_dir: Path, params: dict):
    n_samples = _n_samples(params)
    # every save_every-th sample; the field's appended last sample is not one
    keep = slice(0, (n_samples - 1) // params["save_every"] + 1)
    z = field.z_grid[keep]
    header = ["z"] + [f"site{j + 1}" for j in range(field.spec.n_sites)]
    outputs = [serialization.write_csv(
        out_dir / "intensity.csv", header, np.column_stack([z, field.intensities(keep)])
    )]
    outputs.append(serialization.write_json(out_dir / "z_grid.json", {
        "z_min": float(field.z_grid[0]),
        "z_max": float(field.z_grid[-1]),
        "dz": float(params["dz"]),  # the z grid's step; it may hold one sample only
        "save_every": int(params["save_every"]),
        "n_samples": n_samples,  # of the whole grid, not only the written ones
        "n_sites": int(field.spec.n_sites),
        "spacing_d": float(field.spec.spacing_d),
        "re_beta": float(field.spec.re_beta),
    }))
    if params["save_amplitudes"]:
        amp_header = ["z"] + [f"{part}{j + 1}" for j in range(field.spec.n_sites)
                              for part in ("re", "im")]
        amps = serialization.re_im_columns(field.amplitudes[keep])
        outputs.append(serialization.write_csv(
            out_dir / "amplitudes.csv", amp_header, np.column_stack([z, amps])
        ))
    return outputs


def _run_propagate(c, out_dir: Path):
    field, site = _propagate(c, c["params"]["save_every"]), c["excitation"].site
    outputs = _write_field(field, out_dir, c["params"])
    last = field.intensities(-1)
    summary = {
        "excited_site": site,
        "final_total_intensity": float(last.sum()),
        "excited_final_fraction": float(last[site - 1] / max(last.sum(), 1e-300)),
    }
    return summary, outputs


def _run_momentum(c, out_dir: Path):
    params = c["params"]
    ms = analysis.momentum_spectrum(
        _propagate(c), params["kz_window"], window=params["window"],
        pad_factor=params["pad_factor"],
    )
    kz, power = ms.kz_grid, ms.power
    header = ["kz\\kx"] + [serialization.fmt(v) for v in ms.kx_grid]
    outputs = [
        serialization.write_csv(out_dir / "power.csv", header, np.column_stack([kz, power])),
        serialization.write_json(out_dir / "axes.json", {
            "kx": ms.kx_grid, "kz": kz, "kz_window": list(params["kz_window"]),
            "window": ms.window, "pad_factor": ms.pad_factor,
        }),
    ]
    peak = np.unravel_index(np.argmax(power), power.shape)
    summary = {
        "peak_kz": float(kz[peak[0]]),
        "peak_kx": float(ms.kx_grid[peak[1]]),
        "total_power_one_zone": ms.total_power_one_zone,
    }
    return summary, outputs


def _run_winding(c, out_dir: Path):
    d, params, pattern = c["lattice"]["spacing_d"], c["params"], c["pattern"]
    k_grid = params["k_grid_size"]
    if pattern is None:
        rows = topology.winding_phase_diagram(
            params["g2_values"], d, k_grid_size=k_grid, exclusion=params["exclusion"],
        )
        summary = {"n_points": len(rows)}
    else:
        res = topology.winding_number(pattern, d, k_grid_size=k_grid)
        rows = [(pattern.g2, res.W, res.quantization_residual)]
        summary = {"W": res.W, "residual": res.quantization_residual}
    outputs = [serialization.write_csv(
        out_dir / "winding.csv", ["g2", "W", "residual"], rows
    )]
    return summary, outputs


def _run_symmetry(c, out_dir: Path):
    params = c["params"]
    ks = np.linspace(0.0, np.pi / 2.0, params["k_samples"])
    report_obj = {}
    summary = {}
    for case in params["cases"]:
        rep = symmetry_mod.check_symmetries(ks, case=case)
        report_obj[case] = asdict(rep)
        summary[f"class_{case}"] = rep.class_label
        summary[f"max_residual_{case}"] = max(
            rep.residual_T, rep.residual_C, rep.residual_S
        )
    outputs = [serialization.write_json(out_dir / "symmetry.json", report_obj)]
    return summary, outputs


def _run_ep_sweep(c, out_dir: Path):
    params = c["params"]
    res = spectral.ep_sweep(c["spec"], _scan(params["j_min"], params["j_max"], params["j_step"]))
    pair = res.pair_eigenvalues
    table = np.column_stack([
        res.J_values, pair[:, 0].real, pair[:, 0].imag, pair[:, 1].real, pair[:, 1].imag,
        res.edge_pair_separation,
    ])
    outputs = [serialization.write_csv(
        out_dir / "ep_sweep.csv",
        ["J", "ReE_a", "ImE_a", "ReE_b", "ImE_b", "separation"],
        table,
    )]
    c["derived"]["J_ep_estimate"] = res.J_ep_estimate
    summary = {
        "J_ep": res.J_ep_estimate,
        "J_ep_at_scan_edge": res.J_ep_at_scan_edge,
        "min_separation": float(res.edge_pair_separation.min()),
        "coalescence_condition": res.coalescence_condition,
    }
    return summary, outputs


def _run_interface_compare(c, out_dir: Path):
    params = c["params"]
    g_values = _scan(params["g2_min"], params["g2_max"], params["g2_step"])
    rows = analysis.interface_vs_defect(
        g_values, c["hopping_J"], spacing_d=c["lattice"]["spacing_d"],
        n_cells_per_side=params["n_cells_per_side"],
        n_sites_defect=params["n_sites_defect"],
    )
    outputs = [serialization.write_csv(
        out_dir / "interface_compare.csv",
        ["g2", "ImE_interface", "ImE_defect", "ambiguous"],
        [(r.g2, r.im_e_interface, r.im_e_defect, r.ambiguous) for r in rows],
    )]
    return {"n_points": len(rows)}, outputs


def _run_fit(c, out_dir: Path):
    params, site = c["params"], c["params"]["site"]
    z, trace = _propagate(c).site_trace(site)
    outputs = [serialization.write_csv(
        out_dir / "trace.csv", ["z", "intensity"], np.column_stack([z, trace])
    )]
    if params["fit"] == "decay":
        fit = analysis.fit_decay(z, trace, fit_ranges=params["fit_ranges"])
        record = {
            "fit": "decay", "site": site, "ell": fit.ell, "ell_error": fit.ell_error,
            "a0": fit.a0, "fit_ranges": [list(r) for r in fit.fit_ranges],
            "r_squared": list(fit.r_squared),
        }
        summary = {"ell": fit.ell, "ell_error": fit.ell_error}
    else:
        fit = analysis.fit_oscillation(z, trace, fit_range=params["fit_range"])
        record = {
            "fit": "oscillation", "site": site, "kz_osc": fit.kz_osc, "phi": fit.phi,
            "ell": fit.ell, "a0": fit.a0, "a1": fit.a1,
            "covariance": fit.covariance, "rss": fit.rss,
            "kz_osc_at_zero": fit.kz_osc_at_zero,
        }
        summary = {"kz_osc": fit.kz_osc, "ell": fit.ell, "a0": fit.a0, "a1": fit.a1}
    outputs.append(serialization.write_json(out_dir / "fit.json", record))
    return summary, outputs


_BUILTIN_CURVES = {
    calibration.KIND_IMBETA_VS_W: calibration.default_imbeta_curve,
    calibration.KIND_J_VS_D: calibration.default_hopping_curve,
}


def _run_calibrate(c, out_dir: Path):
    params = c["params"]
    if params["points"] == "builtin":
        curve = _BUILTIN_CURVES[params["kind"]]()
    else:
        curve = calibration.fit_curve(
            params["points"], params["model"], kind=params["kind"],
            fixed_x0=params["fixed_x0"], provenance=c["provenance"],
        )
    record = {**asdict(curve), "max_anchor_error": curve.max_anchor_error()}
    if params["predict_at"] is not None:
        record["predictions"] = [
            [float(x), float(curve.predict(float(x)))] for x in params["predict_at"]
        ]
    outputs = [serialization.write_json(out_dir / "calibration.json", record)]
    summary = {"model": curve.model, "max_anchor_error": record["max_anchor_error"]}
    return summary, outputs


# ---------------------------------------------------------------------------
# each run's checks on the resolved config, run by validate_config: work
# budgets, cross-field rules and the params that depend on the model

#: Work and memory budgets: amplitudes (z_max/dz + 1) * n_sites, which bounds
#: the samples a propagation steps through and the whole grid that momentum and
#: fit runs keep; entries of the padded momentum transform
#: (pad_factor^2 * n_z * n_sites), each 16 B of the two-zone power map of a
#: kz window over the whole axis, the worst case; points of a J or g2 scan,
#: or of a winding or symmetry k grid; and sites of any lattice a run builds,
#: whose dense matrix takes 16 * n_sites^2 B (64 MB at the bound).
MAX_AMPLITUDES = 20_000_000
MAX_TRANSFORM = 50_000_000
MAX_SCAN = 10_000
MAX_SITES = 2_000


def _over_budget(path: str, what: str, budget: int, *factors):
    count = 1.0
    for f in factors:
        count *= min(f, budget + 1)  # a huge JSON integer would overflow a float
    if count > budget:
        raise ConfigError(path, f"{what} exceed the budget of {budget:.3g}")


def _check_field(c, path: str) -> int:
    """The number of samples of the whole z grid, after the amplitude budget."""
    params = c["params"]
    _over_budget(f"{path}.params", "stored amplitudes (z_max/dz + 1) * n_sites",
                 MAX_AMPLITUDES, params["z_max"] / params["dz"] + 1.0, c["spec"].n_sites)
    return _n_samples(params)


def _check_momentum(c, path: str):
    spec, params = c["spec"], c["params"]
    n_z, pad = _check_field(c, path), params["pad_factor"]
    _over_budget(f"{path}.params.pad_factor", "padded transform entries pad^2 * n_z * n_sites",
                 MAX_TRANSFORM, pad, pad, n_z, spec.n_sites)
    with _reported_at(f"{path}.params"):
        kz = analysis.momentum_kz_grid(n_z, spec.n_sites, params["dz"], pad)
    if params["kz_window"] is None:  # the band region around re_beta
        params["kz_window"] = [spec.re_beta - 0.6, spec.re_beta + 0.6]
    with _reported_at(f"{path}.params.kz_window"):
        analysis.momentum_kz_rows(kz, params["kz_window"])


def _check_fit(c, path: str):
    _check_field(c, path)
    params = c["params"]
    unused = "fit_range" if params["fit"] == "decay" else "fit_ranges"
    if params[unused] is not None:
        raise ConfigError(f"{path}.params.{unused}", f"not used by a {params['fit']} fit")
    site = c["excitation"].site if params["site"] == "excited" else params["site"]
    with _reported_at(f"{path}.params.site"):
        params["site"] = Excitation.resolve(propagation.KIND_SITE, c["spec"], site=site).site


def _check_winding(c, path: str):
    params = c["params"]
    if (params["g2_values"] is None) == (c["pattern"] is None):
        raise ConfigError(f"{path}.lattice.pattern", "give exactly one of it and params.g2_values")
    _over_budget(f"{path}.params.k_grid_size", "k points", MAX_SCAN, params["k_grid_size"])
    for g2 in params["g2_values"] or ():  # the patterns the run builds
        with _reported_at(f"{path}.params.g2_values", f"g2 = {g2!r}: "):
            topology._scan_patterns([g2], params["exclusion"])


def _check_symmetry(c, path: str):
    _over_budget(f"{path}.params.k_samples", "k points", MAX_SCAN, c["params"]["k_samples"])


def _check_scan(c, path: str, name: str) -> float:
    """(max - min) / step of params <name>_*; _scan gives round(that) + 1 values."""
    params = c["params"]
    ratio = (params[f"{name}_max"] - params[f"{name}_min"]) / params[f"{name}_step"]
    _over_budget(f"{path}.params.{name}_step", f"{name} scan points", MAX_SCAN, ratio + 1.0)
    return ratio


def _check_ep_sweep(c, path: str):
    if _check_scan(c, path, "j") <= 0.5:
        raise ConfigError(f"{path}.params", "the J scan needs at least two values")
    with _reported_at(f"{path}.lattice.interface"):
        spectral.require_interface(c["spec"])


def _check_interface_compare(c, path: str):
    if _check_scan(c, path, "g2") < -0.5:
        raise ConfigError(f"{path}.params", "the g2 scan holds no values (g2_max < g2_min)")
    params = c["params"]
    _over_budget(f"{path}.params.n_cells_per_side", "interface lattice sites",
                 MAX_SITES, 8 * params["n_cells_per_side"])
    _over_budget(f"{path}.params.n_sites_defect", "defect lattice sites",
                 MAX_SITES, params["n_sites_defect"])
    for g2 in _scan(params["g2_min"], params["g2_max"], params["g2_step"]):
        with _reported_at(f"{path}.params.g2_min", f"g2 = {g2!r} of the scan: "):
            analysis._interface_chain(
                g2, c["hopping_J"], c["lattice"]["spacing_d"], params["n_cells_per_side"])


def _check_calibrate(c, path: str):
    params, c["provenance"] = c["params"], None
    if params["points_file"] is not None:
        if params["points"] is not None:
            raise ConfigError(f"{path}.params.points_file", "give either it or params.points")
        with _reported_at(f"{path}.params.points_file"):
            params["points"], c["provenance"] = calibration.load_points(params["points_file"])
    elif params["points"] is None:
        params["points"] = "builtin"
    builtin = params["points"] == "builtin"
    if builtin and params["kind"] not in _BUILTIN_CURVES:
        raise ConfigError(
            f"{path}.params.kind",
            "builtin points exist for " + " and ".join(map(repr, _BUILTIN_CURVES)) + " only",
        )
    exponential = params["model"] == calibration.MODEL_EXPONENTIAL
    if params["fixed_x0"] is not None and (builtin or not exponential):
        raise ConfigError(f"{path}.params.fixed_x0", "used only by an exponential fit to points")


class Run(NamedTuple):
    runner: Callable
    lattice: Optional[str]  # a key of _SHAPES, or None for runs without a lattice
    excitation: bool
    params: Dict[str, Tuple[Rule, Any]]
    check: Optional[Callable] = None


# propagation options shared by the runs that propagate a beam
_FIELD = {
    "z_max": (POS, propagation.DEFAULT_Z_MAX),
    "dz": (POS, propagation.DEFAULT_DZ),
    "method": (_one_of("expm", "rk4"), "expm"),
}

RUNS = {
    "spectrum": Run(_run_spectrum, "chain", False, {
        "zero_mode_tol": (NUM, spectral.ZERO_MODE_TOL),
        "include_vectors": (BOOL, False),
    }),
    "propagate": Run(_run_propagate, "chain", True, {
        **_FIELD,
        "save_amplitudes": (BOOL, False),
        "save_every": (_int(1), 1),
    }, _check_field),
    "momentum": Run(_run_momentum, "chain", True, {
        **_FIELD,
        "window": (_one_of(analysis.WINDOW_HANN, analysis.WINDOW_NONE), analysis.WINDOW_HANN),
        "pad_factor": (_int(1), 4),
        "kz_window": (RANGE, None),  # None: re_beta -/+ 0.6
    }, _check_momentum),
    "winding": Run(_run_winding, "cell", False, {
        "k_grid_size": (_int(16), 128),
        "g2_values": (NUMS, None),  # None: W of lattice.pattern
        "exclusion": (POS, 0.05),
    }, _check_winding),
    "symmetry": Run(_run_symmetry, None, False, {
        "cases": (_list("a list of symmetry cases", _one_of(
            symmetry_mod.CASE_NONTRIVIAL, symmetry_mod.CASE_TRIVIAL)),
            (symmetry_mod.CASE_NONTRIVIAL, symmetry_mod.CASE_TRIVIAL)),
        "k_samples": (_int(1), 32),
    }, _check_symmetry),
    "ep-sweep": Run(_run_ep_sweep, "interface", False, {
        "j_min": (POS, 0.04),
        "j_max": (POS, 0.12),
        "j_step": (POS, 0.001),
    }, _check_ep_sweep),
    "interface-compare": Run(_run_interface_compare, "bare", False, {
        "g2_min": (POS, 0.2),
        "g2_max": (NUM, 3.0),
        "g2_step": (POS, 0.1),
        "n_cells_per_side": (_int(1), 5),
        "n_sites_defect": (_int(2), 40),
    }, _check_interface_compare),
    "fit": Run(_run_fit, "chain", True, {
        **_FIELD,
        "fit": (_one_of("decay", "oscillation"), "decay"),
        "site": (_either(_int(1), _one_of("excited")), "excited"),
        "fit_ranges": (_list("a list of [lo, hi] pairs with lo < hi", RANGE), None),
        "fit_range": (RANGE, None),
    }, _check_fit),
    "calibrate": Run(_run_calibrate, None, False, {
        "kind": (STR, "generic"),
        "model": (_one_of(calibration.MODEL_EXPONENTIAL, calibration.MODEL_LINEAR_ORIGIN,
                          calibration.MODEL_TABLE), calibration.MODEL_TABLE),
        "points": (_either(_list("a list of [x, y] pairs", PAIR), _one_of("builtin")),
                   None),  # None: those of points_file, or "builtin" without one
        "points_file": (STR, None),
        "fixed_x0": (POS, None),
        "predict_at": (NUMS, None),
    }, _check_calibrate),
}

_TOP = {
    "run": (_one_of(*RUNS), REQUIRED),
    "output_dir": (STR, REQUIRED),
    "seed": (_int(), 0),
    "lattice": (OBJ, None),
    "excitation": (OBJ, None),
    "params": (OBJ, {}),
    "grid": (Rule("a list of one or two entries",
                  lambda v: isinstance(v, list) and 1 <= len(v) <= 2), None),
}

_GRID_ENTRY = {
    "path": (STR, REQUIRED),
    "values": (Rule("a non-empty list", lambda v: isinstance(v, list) and len(v) > 0), REQUIRED),
}


def validate_config(cfg: dict, path: str = "config") -> dict:
    """Check a config, and every grid point of it, without touching ``cfg``.

    Returns a checked copy of ``cfg`` with every default filled in; the
    runners read nothing else. Its resolution step adds what the builders
    make of it: ``spec`` (or ``hopping_J`` and ``pattern``), the resolved
    ``excitation`` and the ``derived`` parameters. The run's check then
    bounds the work and resolves what depends on them, such as a fit's site.
    It keeps ``cfg`` as ``source`` and a grid's (values, checked point) pairs.
    """
    c = _section(cfg, _TOP, path)
    c["source"] = cfg
    name = c["run"]
    run = RUNS[name]
    for section, needed in (("lattice", run.lattice is not None), ("excitation", run.excitation)):
        if (c[section] is None) == needed:
            usage = "required for" if needed else "not used by"
            raise ConfigError(f"{path}.{section}", f"{usage} run '{name}'")
    if run.lattice is not None:
        lat = c["lattice"] = _check_lattice(c["lattice"], f"{path}.lattice", name)
    if run.excitation:
        c["excitation"] = _section(c["excitation"], _EXCITATION, f"{path}.excitation")
    c["params"] = _section(c["params"], run.params, f"{path}.params")
    derived = c["derived"] = {}  # resolution: the model objects, from the builders
    if run.lattice in ("chain", "interface"):
        with _reported_at(f"{path}.lattice"):
            spec = c["spec"] = build_lattice(lat, derived)
        where = "n_sites" if lat["interface"] is None else "interface"
        _over_budget(f"{path}.lattice.{where}", "lattice sites", MAX_SITES, spec.n_sites)
    elif run.lattice is not None:
        with _reported_at(f"{path}.lattice"):
            hop = c["hopping_J"] = _hopping(lat, derived)
            p = lat["pattern"]
            c["pattern"] = None if p is None else _loss_pattern(p, hop, derived, "lattice.pattern")
    if run.excitation:
        e = c["excitation"]
        where = "site" if e["site"] is not None or e["kind"] == propagation.KIND_SITE else "kind"
        with _reported_at(f"{path}.excitation.{where}"):
            c["excitation"] = Excitation.resolve(
                e["kind"], spec, site=e["site"], amplitude=complex(*e["amplitude"])
            )
    if run.check is not None:
        run.check(c, path)
    if c["grid"] is not None:
        for i, entry in enumerate(c["grid"]):
            entry = _section(entry, _GRID_ENTRY, f"{path}.grid[{i}]")
            _resolve_path(cfg, entry["path"], f"{path}.grid[{i}].path")
        c["points"] = [(combo, validate_config(point_cfg, path))
                       for combo, point_cfg in _grid_points(cfg)]
    return c


def _resolve_path(cfg: dict, dotted: str, err_path: str) -> Tuple[dict, str]:
    """Walk a dotted path to (parent, leaf); every segment must exist."""
    parts = dotted.split(".")
    node = cfg
    for seg in parts[:-1]:
        if not isinstance(node, dict) or seg not in node:
            raise ConfigError(err_path, f"path segment {seg!r} not found in config")
        node = node[seg]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(err_path, f"path leaf {parts[-1]!r} not found in config")
    return node, parts[-1]


#: Failures of a run's numerics: exit 3, or a failed sweep point.
_NUMERICAL = (NumericalError, np.linalg.LinAlgError)


def _write_diagnostics(out_dir: Path, exc: Exception) -> None:
    serialization.write_json(out_dir / "diagnostics.json", {
        "error_class": type(exc).__name__,
        "message": str(exc),
        "diagnostics": getattr(exc, "diagnostics", {}),
    })


def execute_single(c: dict, out_dir: Path) -> dict:
    """Run one checked grid-free config into ``out_dir``; returns summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summary, outputs = RUNS[c["run"]].runner(c, out_dir)
    manifest = {
        "config_sha256": serialization.config_hash(c["source"]),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "run": c["run"],
        "seed": c["seed"],
        "derived_parameters": c["derived"],
        "summary": summary,
        "outputs": sorted(p.name for p in outputs),
    }
    serialization.write_json(out_dir / "manifest.json", manifest)
    return summary


def _grid_points(cfg: dict) -> List[Tuple[Tuple[Any, ...], dict]]:
    grid = cfg["grid"]
    paths = [entry["path"] for entry in grid]
    combos = itertools.product(*(entry["values"] for entry in grid))
    points = []
    for combo in combos:
        point_cfg = deepcopy(cfg)
        del point_cfg["grid"]
        for dotted, value in zip(paths, combo):
            parent, leaf = _resolve_path(point_cfg, dotted, "config.grid.path")
            parent[leaf] = deepcopy(value)
        points.append((combo, point_cfg))
    return points


def _scalar_for_csv(value):
    if isinstance(value, dict):
        return json.dumps(serialization.jsonable(value), sort_keys=True).replace(",", ";")
    return value


def execute_sweep(c: dict, out_dir: Path) -> None:
    """Run every grid point of a checked config into point_NNN/ and
    collect results.csv; a point that fails is recorded, not fatal."""
    value = os.environ.get("NHLATTICE_WORKERS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:  # checked before anything is written
        raise ConfigError("NHLATTICE_WORKERS",
                          f"expected a positive integer, got {reprlib.repr(value)}")
    points = c["points"]
    out_dir.mkdir(parents=True, exist_ok=True)

    def run_point(idx):
        point_dir = out_dir / f"point_{idx:03d}"
        try:
            return execute_single(points[idx][1], point_dir), ""
        except (ConfigurationError, *_NUMERICAL) as exc:
            _write_diagnostics(point_dir, exc)
            return {}, type(exc).__name__

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_point, range(len(points))))
    else:
        results = [run_point(i) for i in range(len(points))]

    paths = [entry["path"] for entry in c["grid"]]
    summary_keys = sorted({k for s, _ in results for k in s})
    header = ["point"] + paths + summary_keys + ["error"]
    rows = []
    for idx, ((combo, _), (summary, err)) in enumerate(zip(points, results)):
        row = [idx] + [_scalar_for_csv(v) for v in combo]
        row += [summary.get(k, "") for k in summary_keys]
        row.append(err)
        rows.append(row)
    serialization.write_csv(out_dir / "results.csv", header, rows)
    serialization.write_json(out_dir / "sweep_manifest.json", {
        "config_sha256": serialization.config_hash(c["source"]),
        "package_version": __version__,
        "n_points": len(points),
        "grid_paths": paths,
        "failed_points": [idx for idx, (_, err) in enumerate(results) if err],
    })


def load_config(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError("config", f"file not found: {path}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "config", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nhlattice",
        description="Simulate loss-patterned waveguide lattices from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "execute a config (grids are swept)"),
        ("sweep", "execute a config that must contain a grid"),
        ("validate", "check a config without running it"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to the JSON config")
    args = parser.parse_args(argv)

    try:
        c = validate_config(load_config(args.config))
        if args.command == "sweep" and c["grid"] is None:
            raise ConfigError("config.grid", "sweep requires a grid section")
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"ok: {args.config}")
        return 0

    out_dir = Path(c["output_dir"])
    try:
        if c["grid"] is not None:
            execute_sweep(c, out_dir)
        else:
            execute_single(c, out_dir)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL as exc:
        _write_diagnostics(out_dir, exc)
        print(f"numerical error: {exc} (diagnostics written)", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
