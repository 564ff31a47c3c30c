"""Fabrication-to-model calibration: Im(beta) from stripe width, J from spacing.

Only measured anchor points ship with the package; everything else must be
supplied by the user so that invented constants cannot masquerade as data.
The second hopping anchor at d = 1.0 um is inferred from the delocalization
regime of the hopping sweep, and is tagged as such.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, FitError

MODEL_EXPONENTIAL = "exponential"
MODEL_LINEAR_ORIGIN = "linear_through_origin"
MODEL_TABLE = "table_interp"

KIND_IMBETA_VS_W = "imbeta_vs_w"
KIND_J_VS_D = "J_vs_d"

#: (w in um, Im beta in 1/um, provenance)
IMBETA_VS_W_ANCHORS: Tuple[Tuple[float, float, str], ...] = (
    (0.0, 0.0, "measured"),
    (0.25, 0.06, "measured"),
    (0.5, 0.09, "measured"),
    (0.7, 0.1, "measured"),
)

#: (d in um, J in 1/um, provenance)
J_VS_D_ANCHORS: Tuple[Tuple[float, float, str], ...] = (
    (1.4, 0.045, "measured"),
    (1.0, 0.095, "inferred"),
)


def g2_of(im_beta: float, J: float) -> float:
    """Dimensionless loss g2 = Im(beta) / (2 J)."""
    if J <= 0:
        raise ConfigurationError(f"hopping J must be > 0, got {J}")
    return im_beta / (2.0 * J)


@dataclass(frozen=True)
class CalibrationCurve:
    """A fitted mapping from a fabrication parameter to a model parameter."""

    kind: str
    model: str
    params: Dict[str, float]
    anchor_points: Tuple[Tuple[float, float, str], ...]
    validity: Tuple[float, float]

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.model == MODEL_EXPONENTIAL:
            return self.params["amplitude"] * np.exp(-x / self.params["decay_x0"])
        if self.model == MODEL_LINEAR_ORIGIN:
            return self.params["slope"] * x
        if self.model == MODEL_TABLE:
            xs = np.asarray(self.params["xs"])
            ys = np.asarray(self.params["ys"])
            out = np.interp(x, xs, ys)
            # linear extrapolation from the end slopes
            if xs.size >= 2:
                lo = x < xs[0]
                hi = x > xs[-1]
                s_lo = (ys[1] - ys[0]) / (xs[1] - xs[0])
                s_hi = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
                out = np.where(lo, ys[0] + s_lo * (x - xs[0]), out)
                out = np.where(hi, ys[-1] + s_hi * (x - xs[-1]), out)
            return out
        raise ConfigurationError(f"unknown model {self.model!r}")

    def max_anchor_error(self) -> float:
        """Worst relative mismatch at the stored anchors (zero targets skipped)."""
        worst = 0.0
        for x, y, _ in self.anchor_points:
            if y == 0:
                continue
            worst = max(worst, abs(float(self.predict(x)) - y) / abs(y))
        return worst


def fit_curve(
    points: Sequence[Tuple[float, float]],
    model: str,
    kind: str = "generic",
    fixed_x0: Optional[float] = None,
    provenance: Optional[Sequence[str]] = None,
) -> CalibrationCurve:
    """Least-squares calibration fit.

    ``exponential`` fits A*exp(-x/x0) on the log scale (exact on exact data);
    with ``fixed_x0`` one point suffices. ``table_interp`` stores the points
    for interpolation. Underdetermined inputs raise :class:`FitError`.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if provenance is None:
        provenance = ["user"] * len(pts)
    if len(provenance) != len(pts):
        raise ConfigurationError("provenance list must match points")
    anchors = tuple((x, y, str(p)) for (x, y), p in zip(pts, provenance))
    if not pts:
        raise FitError("no calibration points given")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    validity = (float(xs.min()), float(xs.max()))

    if model == MODEL_EXPONENTIAL:
        if np.any(ys <= 0):
            raise FitError("exponential model needs positive y values")
        if fixed_x0 is not None:
            if fixed_x0 <= 0:
                raise ConfigurationError("fixed decay constant must be > 0")
            amp = float(np.exp(np.mean(np.log(ys) + xs / fixed_x0)))
            params = {"amplitude": amp, "decay_x0": float(fixed_x0)}
        else:
            if len(pts) < 2:
                raise FitError("exponential fit needs >= 2 points or a fixed decay")
            design = np.vstack([-xs, np.ones_like(xs)]).T
            coef, *_ = np.linalg.lstsq(design, np.log(ys), rcond=None)
            inv_x0, log_amp = coef
            if inv_x0 <= 0:
                raise FitError("data does not decay with x")
            params = {"amplitude": float(np.exp(log_amp)), "decay_x0": float(1.0 / inv_x0)}
    elif model == MODEL_LINEAR_ORIGIN:
        denom = float((xs * xs).sum())
        if denom == 0:
            raise FitError("linear fit through origin needs a nonzero x")
        params = {"slope": float((xs * ys).sum() / denom)}
    elif model == MODEL_TABLE:
        if len(pts) < 2:
            raise FitError("table interpolation needs >= 2 points")
        order = np.argsort(xs)
        params = {"xs": xs[order].tolist(), "ys": ys[order].tolist()}
    else:
        raise ConfigurationError(f"unknown model {model!r}")

    return CalibrationCurve(
        kind=kind, model=model, params=params, anchor_points=anchors, validity=validity
    )


def _is_num(v) -> bool:
    """A finite JSON number: json.loads accepts NaN and Infinity, and a JSON
    integer may exceed every float; none of them is a usable input."""
    return (
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and abs(v) <= sys.float_info.max
    )


def load_points(path) -> Tuple[Tuple[Tuple[float, float], ...], Tuple[str, ...]]:
    """Read a calibration file: a JSON list of {x, y, units?, provenance?},
    with x and y finite JSON numbers."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise ConfigurationError(f"cannot read calibration file {path}: {exc}")
    if not isinstance(entries, list):
        raise ConfigurationError("calibration file must hold a JSON list")
    points, provenance = [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "x" not in entry or "y" not in entry:
            raise ConfigurationError(f"calibration entry {i} needs x and y")
        unknown = set(entry) - {"x", "y", "units", "provenance"}
        if unknown:
            raise ConfigurationError(f"calibration entry {i}: unknown field {unknown}")
        for key in ("x", "y"):
            if not _is_num(entry[key]):
                raise ConfigurationError(
                    f"calibration entry {i}: {key} must be a finite number"
                )
        points.append((float(entry["x"]), float(entry["y"])))
        provenance.append(str(entry.get("provenance", "user")))
    return tuple(points), tuple(provenance)


def default_imbeta_curve() -> CalibrationCurve:
    """Im(beta)(w) from the shipped anchors, table interpolation."""
    pts = [(x, y) for x, y, _ in IMBETA_VS_W_ANCHORS]
    prov = [p for _, _, p in IMBETA_VS_W_ANCHORS]
    return fit_curve(pts, MODEL_TABLE, kind=KIND_IMBETA_VS_W, provenance=prov)


def default_hopping_curve() -> CalibrationCurve:
    """J(d) as an exponential through the measured and inferred anchors."""
    pts = [(x, y) for x, y, _ in J_VS_D_ANCHORS]
    prov = [p for _, _, p in J_VS_D_ANCHORS]
    return fit_curve(pts, MODEL_EXPONENTIAL, kind=KIND_J_VS_D, provenance=prov)
