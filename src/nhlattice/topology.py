"""Winding number from biorthogonal Bloch states over the reduced zone.

The invariant is the normalized global Berry phase of the four Bloch bands.
Rather than tracking individual bands, the four bands are split into the
lower and upper doublet by the sign of Re E (the gap that hosts the midgap
modes), and each doublet contributes the phase of the determinant of its
Wilson-loop matrix built from biorthogonal link overlaps. Doublet subspaces
are represented by Schur bases, so degeneracies or exceptional points inside
a doublet (they occur, e.g. at g0=g1=g2=1) are harmless; only the inter-
doublet gap must stay open.

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


def _cluster_bases(h: np.ndarray) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
    """Orthonormal right and left bases of the lower/upper invariant subspaces.

    Schur vectors stay well conditioned even when the two bands inside a
    doublet coalesce. Returns ((R_lo, L_lo), (R_up, L_up)), each n x 2.
    """
    import scipy.linalg as sla

    out = []
    for sel in (lambda w: w.real < 0, lambda w: w.real >= 0):
        _, z, sdim = sla.schur(h, output="complex", sort=sel)
        right = z[:, :sdim]
        _, z_l, sdim_l = sla.schur(
            h.conj().T, output="complex", sort=lambda w: sel(np.conj(w))
        )
        left = z_l[:, :sdim_l]
        if sdim != 2 or sdim_l != 2:
            raise GaplessSpectrumError(
                "Re E does not split the four bands into two doublets",
                {"sdim_right": int(sdim), "sdim_left": int(sdim_l)},
            )
        out.append((right, left))
    return tuple(out)


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
    dk = (np.pi / (2.0 * d)) / k_grid_size

    bases: List[Tuple] = []
    gap = np.inf
    for m in range(k_grid_size):
        h = bloch_hamiltonian(m * dk, pattern, d)
        re = np.sort(np.linalg.eigvals(h).real)
        gap = min(gap, re[2] - re[1])
        if gap <= GAP_MIN:
            raise GaplessSpectrumError(
                "band doublets touch on the k grid",
                {"k": m * dk, "re_gap": float(gap), "threshold": GAP_MIN},
            )
        bases.append(_cluster_bases(h))

    total = 0.0
    per_band: List[float] = []
    for c in range(2):
        wilson = np.eye(2, dtype=complex)
        for m in range(k_grid_size):
            right_m, left_m = bases[m][c]
            # the loop closes on its start basis
            right_n = bases[(m + 1) % k_grid_size][c][0]
            gram = left_m.conj().T @ right_m
            wilson = wilson @ np.linalg.solve(gram, left_m.conj().T @ right_n)
        total += float(_branch(-np.angle(np.linalg.det(wilson))))
        band_phases = _branch(-np.angle(np.linalg.eigvals(wilson)))
        per_band.extend(float(p) for p in np.sort(band_phases))

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
