"""Winding number from biorthogonal Bloch states over the reduced zone.

The invariant is the normalized global Berry phase of the four Bloch bands.
Rather than tracking individual bands, the four bands are split into the
lower and upper doublet by the sign of Re E (the gap that hosts the midgap
modes), and each doublet contributes the phase of the determinant of its
Wilson loop. Spectral projectors P = (I -/+ sign H)/2 replace bases of the
doublets: sign H comes from Newton's iteration S <- (S + S^-1)/2 on the
stack of all k (Higham, Functions of Matrices, SIAM 2008, ch. 5), and the
two nonzero eigenvalues of P(k_0) P(k_1) ... P(k_{N-1}) are those of the
biorthogonal Wilson matrix of any doublet bases, so no gauge enters. An
exceptional point inside a doublet (e.g. at g0=g1=g2=1) leaves P smooth and
is harmless; only the inter-doublet gap must stay open.

Each doublet phase is reduced to the branch [-pi/2, 3*pi/2), where the
protecting symmetries pin it to {0, pi}; the normalization W = total/(2*pi)
is anchored to the reference cases W(g1*g2>0) = 1 and W(g1*g2<0) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, GaplessSpectrumError
from .lattice import LossPattern, bloch_hamiltonian

#: Minimum inter-doublet separation in Re E, units of J.
GAP_MIN = 1e-8

#: Newton steps allowed for sign H, and the relative step that ends them:
#: convergence is quadratic, so the next iterate is at rounding level.
_SIGN_STEPS, _SIGN_RTOL = 100, 1e-10

_BRANCH_CUT = -np.pi / 2


@dataclass(frozen=True)
class WindingResult:
    """Quantized winding number and the per-band geometric phases."""

    W: float
    per_band_phase: Tuple[float, float, float, float]
    k_grid_size: int
    quantization_residual: float


def _branch(phase):
    """Map angles into [-pi/2, 3*pi/2), keeping 0 and pi away from the cut."""
    return np.where(phase < _BRANCH_CUT, phase + 2.0 * np.pi, phase)


def _projectors(h: np.ndarray) -> np.ndarray:
    """Spectral projectors (I -/+ sign H)/2 onto the Re E < 0 and Re E > 0
    bands of a stack of Bloch matrices, shape (2, n_k, 4, 4)."""
    sign = h
    for _ in range(_SIGN_STEPS):
        sign, last = (sign + np.linalg.inv(sign)) / 2.0, sign
        step = np.linalg.norm(sign - last, axis=(-2, -1))
        if np.all(step <= _SIGN_RTOL * np.linalg.norm(sign, axis=(-2, -1))):
            break
    else:
        raise GaplessSpectrumError(
            "sign(H) did not converge on the k grid",
            {"steps": _SIGN_STEPS, "worst_step": float(np.max(step))},
        )
    eye = np.eye(4)
    return np.stack([(eye - sign) / 2.0, (eye + sign) / 2.0])


def winding_number(
    pattern: LossPattern,
    d: float,
    k_grid_size: int = 128,
) -> WindingResult:
    """Winding number of the loss pattern from a discretized Wilson loop.

    ``k_grid_size`` points k = m * pi/(2d) / k_grid_size over the reduced
    zone of the lattice with site spacing ``d`` (um). The Bloch matrix is
    taken in units of J, so W does not depend on the hopping. Raises
    :class:`GaplessSpectrumError` when the Re E gap between the doublets
    falls below ``GAP_MIN`` anywhere on the grid.
    """
    if k_grid_size < 16:
        raise ConfigurationError("k_grid_size must be at least 16")
    if not (np.isfinite(float(d)) and d > 0):
        raise ConfigurationError("spacing d must be finite and > 0")
    ks = np.arange(k_grid_size) * ((np.pi / (2.0 * d)) / k_grid_size)
    h = bloch_hamiltonian(ks, pattern, d)
    re = np.sort(np.linalg.eigvals(h).real, axis=-1)
    gap = re[:, 2] - re[:, 1]
    if np.any(gap <= GAP_MIN):
        m = np.flatnonzero(gap <= GAP_MIN)[0]
        raise GaplessSpectrumError(
            "band doublets touch on the k grid",
            {"k": float(ks[m]), "re_gap": float(gap[m]), "threshold": GAP_MIN},
        )

    proj = _projectors(h)
    rank = np.trace(proj[0], axis1=-2, axis2=-1).real
    if np.any(np.abs(rank - 2.0) > 0.5):  # trace P is the band count
        m = np.flatnonzero(np.abs(rank - 2.0) > 0.5)[0]
        raise GaplessSpectrumError(
            "Re E does not split the four bands into two doublets",
            {"k": float(ks[m]), "lower_rank": float(rank[m])},
        )

    loop = proj  # ordered product over k, in log2(n_k) pairwise rounds
    while loop.shape[1] > 1:
        if loop.shape[1] % 2:
            loop = np.concatenate([loop, np.broadcast_to(np.eye(4), (2, 1, 4, 4))], axis=1)
        loop = loop[:, 0::2] @ loop[:, 1::2]
    lam = np.linalg.eigvals(loop[:, 0])  # two nonzero, two at rounding level
    lam = np.take_along_axis(lam, np.argsort(np.abs(lam), axis=-1)[:, 2:], axis=-1)
    total = float(np.sum(_branch(-np.angle(np.prod(lam, axis=-1)))))
    per_band = np.sort(_branch(-np.angle(lam)), axis=-1).ravel().tolist()

    w = total / (2.0 * np.pi)
    return WindingResult(
        W=w,
        per_band_phase=tuple(per_band),
        k_grid_size=k_grid_size,
        quantization_residual=abs(w - round(w)),
    )


def winding_phase_diagram(
    g_values: Sequence[float],
    d: float,
    k_grid_size: int = 128,
    exclusion: float = 0.05,
) -> List[Tuple[float, float, float]]:
    """W as a function of g2 in the symmetric convention g0 = g1 = |g2|.

    Values with |g2| < ``exclusion`` are skipped (the gap closes at g2 = 0).
    Returns (g2, W, quantization_residual) triples.
    """
    rows = []
    for g2 in g_values:
        if abs(g2) < exclusion:
            continue
        pattern = (
            LossPattern.topological(g2)
            if g2 > 0
            else LossPattern.trivial(abs(g2))
        )
        res = winding_number(pattern, d, k_grid_size=k_grid_size)
        rows.append((float(g2), res.W, res.quantization_residual))
    return rows
