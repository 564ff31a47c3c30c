"""Complex eigenproblems: left/right pairs, zero modes, exceptional-point sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple, Union

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConfigurationError,
    DefectiveMatrixError,
    ModeTrackingError,
    NumericalError,
)
from .lattice import (
    SITES_PER_CELL,
    ComplexMatrix,
    LatticeSpec,
    real_space_hamiltonian,
)

RESIDUAL_RTOL = 1e-9
BIORTHO_TOL = 1e-8
DEFECTIVE_COND = 1e8

#: Zero-mode detection threshold, units of J.
ZERO_MODE_TOL = 1e-6


def _as_matrix(h: Union[ComplexMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(h, ComplexMatrix):
        return h.matrix
    return np.asarray(h, dtype=complex)


@dataclass(frozen=True)
class ComplexSpectrum:
    """Eigendecomposition with paired left and right eigenvectors.

    ``right_vectors[:, n]`` and ``left_vectors[:, n]`` belong to
    ``eigenvalues[n]``; the left vectors are eigenvectors of the conjugate
    transpose with conjugated eigenvalues. ``condition_numbers[n]`` is
    ``1/|<l_n|r_n>|`` for unit-norm vectors, the eigenvalue condition number.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    biorthonormal: bool
    condition_numbers: np.ndarray

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]


def eig_full(h: Union[ComplexMatrix, np.ndarray]) -> ComplexSpectrum:
    """Dense decomposition of a general complex matrix.

    Left and right vectors come from a single Schur-based solve, so the
    pairing is consistent even for clustered eigenvalues. Raises
    :class:`NumericalError` if residuals or the eigenvalue sum violate their
    bounds; near-defective pairs are only flagged through large condition
    numbers.
    """
    m = _as_matrix(h)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError("eig_full requires a square matrix")
    if not np.all(np.isfinite(m)):
        raise ConfigurationError("matrix entries must be finite")
    w, vl, vr = sla.eig(m, left=True, right=True)
    vr = vr / np.linalg.norm(vr, axis=0)
    vl = vl / np.linalg.norm(vl, axis=0)

    norm = np.linalg.norm(m)
    resid = np.linalg.norm(m @ vr - vr * w, axis=0)
    if norm > 0 and np.any(resid > RESIDUAL_RTOL * norm):
        raise NumericalError(
            "eigenpair residual exceeds bound",
            {"max_residual": float(resid.max()), "bound": RESIDUAL_RTOL * norm},
        )
    trace = np.trace(m)
    scale = max(abs(trace), norm, 1e-300)
    if abs(w.sum() - trace) > RESIDUAL_RTOL * scale:
        raise NumericalError(
            "eigenvalue sum deviates from trace",
            {"sum": complex(w.sum()), "trace": complex(trace)},
        )

    overlaps = np.abs(np.einsum("ij,ij->j", vl.conj(), vr))
    with np.errstate(divide="ignore"):
        cond = np.where(overlaps > 0, 1.0 / overlaps, np.inf)
    return ComplexSpectrum(
        eigenvalues=w,
        right_vectors=vr,
        left_vectors=vl,
        biorthonormal=False,
        condition_numbers=cond,
    )


def biorthonormalize(
    spectrum: ComplexSpectrum, cond_threshold: float = DEFECTIVE_COND
) -> ComplexSpectrum:
    """Rescale left vectors so that <l_m|r_n> = delta_mn.

    Right vectors keep unit norm. Raises :class:`DefectiveMatrixError` when
    any pair's condition number exceeds ``cond_threshold`` (the expected
    failure mode at an exceptional point).
    """
    bad = spectrum.condition_numbers > cond_threshold
    if np.any(bad):
        raise DefectiveMatrixError(
            "eigenpairs too close to defective to biorthonormalize",
            {
                "indices": np.nonzero(bad)[0].tolist(),
                "condition_numbers": spectrum.condition_numbers[bad].tolist(),
            },
        )
    overlap = spectrum.left_vectors.conj().T @ spectrum.right_vectors
    # solve instead of inverting: left_new^dag = overlap^-1 left^dag
    left_new = np.linalg.solve(overlap, spectrum.left_vectors.conj().T).conj().T
    check = left_new.conj().T @ spectrum.right_vectors - np.eye(spectrum.dimension)
    err = np.abs(check).max()
    if err > BIORTHO_TOL:
        raise NumericalError(
            "biorthonormalization residual exceeds tolerance",
            {"residual": float(err), "tolerance": BIORTHO_TOL},
        )
    return replace(spectrum, left_vectors=left_new, biorthonormal=True)


@dataclass(frozen=True)
class ZeroModeReport:
    """Midgap modes of a finite lattice, energies measured from ``re_beta``."""

    indices: Tuple[int, ...]
    tol: float
    localization_lengths: Tuple[float, ...]
    edge_weights: Tuple[float, ...]
    fit_r_squared: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.indices)


def _sublattice_decay_fit(
    density: np.ndarray, spacing_d: float
) -> Tuple[float, float]:
    """Fit log|psi|^2 on the dominant every-4th-site sublattice of the
    dominant half of the chain. Returns (1/e length of |psi|^2 in um, R^2)."""
    n = density.shape[0]
    half = n // 2
    left_half = density[:half].sum() >= density[half:].sum()
    # measure positions from the edge the mode clings to
    dens = density if left_half else density[::-1]
    seg = dens[:half]
    offsets = [seg[r::SITES_PER_CELL].sum() for r in range(SITES_PER_CELL)]
    r = int(np.argmax(offsets))
    pts = seg[r::SITES_PER_CELL]
    x = (np.arange(half)[r::SITES_PER_CELL]).astype(float) * spacing_d
    keep = pts > pts.max() * 1e-20
    x, y = x[keep], np.log(pts[keep])
    if x.size < 3:
        return np.inf, 0.0
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    yhat = design @ coef
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    slope = coef[0]
    ell = -1.0 / slope if slope < 0 else np.inf
    return ell, r2


def find_zero_modes(
    spectrum: ComplexSpectrum,
    spec: LatticeSpec,
    tol: float = ZERO_MODE_TOL,
) -> ZeroModeReport:
    """Locate modes with |Re E - re_beta| < tol * J and characterize them.

    The edge weight is the |psi|^2 fraction inside the two outermost unit
    cells combined; the localization length is a log-linear fit on the
    dominant sublattice (every 4th site), because the density alternates
    within a cell. An empty report is a valid result.
    """
    re_rel = (spectrum.eigenvalues.real - spec.re_beta) / spec.hopping_J
    hits = np.nonzero(np.abs(re_rel) < tol)[0]
    hits = hits[np.argsort(np.abs(re_rel[hits]), kind="stable")]
    n = spec.n_sites
    edge = min(SITES_PER_CELL, n)
    lengths, weights, r2s = [], [], []
    for i in hits:
        dens = np.abs(spectrum.right_vectors[:, i]) ** 2
        dens = dens / dens.sum()
        weights.append(float(dens[:edge].sum() + dens[-edge:].sum()) if n > edge else 1.0)
        ell, r2 = _sublattice_decay_fit(dens, spec.spacing_d)
        lengths.append(float(ell))
        r2s.append(float(r2))
    return ZeroModeReport(
        indices=tuple(int(i) for i in hits),
        tol=tol,
        localization_lengths=tuple(lengths),
        edge_weights=tuple(weights),
        fit_r_squared=tuple(r2s),
    )


@dataclass(frozen=True)
class EPSweepResult:
    """Two tracked boundary modes across a hopping sweep at fixed loss.

    ``J_ep_at_scan_edge`` is true when the separation minimum is the first
    or last J of the scan, so no coalescence was located inside it.
    """

    J_values: np.ndarray
    edge_pair_separation: np.ndarray
    J_ep_estimate: float
    coalescence_condition: float
    pair_eigenvalues: np.ndarray  # shape (n_J, 2), 1/um
    J_ep_at_scan_edge: bool


def _scaled_interface(spec: LatticeSpec, hopping_J: float) -> LatticeSpec:
    """``spec`` at a new hopping J with every site's beta held fixed.

    Each on-site amplitude g (units of J) of each domain, custom cells
    included, becomes sign(g) * (2|g| J_base) / (2J); for a symmetric domain
    that is g = Im(beta) / (2J), as the calibration defines it.
    """

    def scale(g: float) -> float:
        return math.copysign(2.0 * abs(g) * spec.hopping_J / (2.0 * hopping_J), g)

    domains = []
    for pattern, n_cells in spec.pattern:
        cell = pattern.custom_cell
        if cell is not None:
            cell = tuple(complex(scale(c.real), scale(c.imag)) for c in cell)
        domains.append((replace(
            pattern, g0=scale(pattern.g0), g1=scale(pattern.g1), g2=scale(pattern.g2),
            custom_cell=cell,
        ), n_cells))
    return replace(spec, hopping_J=hopping_J, pattern=tuple(domains))


def ep_sweep(
    base: LatticeSpec,
    J_range: Sequence[float],
    overlap_min: float = 0.5,
) -> EPSweepResult:
    """Sweep the hopping at fixed physical loss and follow the two boundary
    modes through their coalescence.

    Every site's beta of ``base`` is held constant, so the dimensionless
    loss of each domain shrinks as J grows. At the smallest J the two
    modes with the largest weight on the interface cell and the outer cell of
    the second domain are selected; afterwards they are continued by maximal
    eigenvector overlap. The estimate ``J_ep`` is the separation minimum of
    the scan, flagged when it sits at either end of the scan.
    """
    if base.is_uniform or base.interface_index is None:
        raise ConfigurationError("ep_sweep requires an interface lattice")
    J_values = np.asarray(sorted(float(j) for j in J_range))
    if J_values.size < 2:
        raise ConfigurationError("ep_sweep needs at least two hopping values")

    if0 = base.interface_index - 1
    sel_sites = list(range(if0, min(if0 + SITES_PER_CELL, base.n_sites)))
    sel_sites += list(range(base.n_sites - SITES_PER_CELL, base.n_sites))

    pair_eigs = np.empty((J_values.size, 2), dtype=complex)
    conds = np.empty((J_values.size, 2))
    prev_pair = None  # (n, 2) tracked eigenvector columns from the previous J
    for idx, J in enumerate(J_values):
        spec = eig_full(real_space_hamiltonian(_scaled_interface(base, J)))
        vr = spec.right_vectors
        if prev_pair is None:
            weight = (np.abs(vr[sel_sites, :]) ** 2).sum(axis=0)
            pair_idx = [int(i) for i in np.argsort(weight)[-2:]]
        else:
            ov = np.abs(prev_pair.conj().T @ vr)  # (2, n): rows old, cols new
            order0 = np.argsort(ov[0])[::-1]
            order1 = np.argsort(ov[1])[::-1]
            a, b = int(order0[0]), int(order1[0])
            if a == b:
                # both prefer the same column: resolve by best joint overlap
                if ov[0, order0[0]] * ov[1, order1[1]] >= ov[0, order0[1]] * ov[1, order1[0]]:
                    b = int(order1[1])
                else:
                    a = int(order0[1])
            lo = min(ov[0, a], ov[1, b])
            if lo < overlap_min:
                raise ModeTrackingError(
                    "mode continuation overlap dropped below threshold",
                    {"J": float(J), "overlap": float(lo), "threshold": overlap_min},
                )
            pair_idx = [a, b]
        prev_pair = vr[:, pair_idx]
        pair_eigs[idx] = spec.eigenvalues[pair_idx]
        conds[idx] = spec.condition_numbers[pair_idx]

    separation = np.abs(pair_eigs[:, 0] - pair_eigs[:, 1])
    i_min = int(np.argmin(separation))
    return EPSweepResult(
        J_values=J_values,
        edge_pair_separation=separation,
        J_ep_estimate=float(J_values[i_min]),
        coalescence_condition=float(conds[i_min].max()),
        pair_eigenvalues=pair_eigs,
        J_ep_at_scan_edge=i_min in (0, J_values.size - 1),
    )
