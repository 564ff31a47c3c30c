"""Complex-symmetric eigenproblems: c-product pairs, zero modes, exceptional-point sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import ConfigurationError, ModeTrackingError, NumericalError
from .lattice import (
    SITES_PER_CELL,
    ComplexMatrix,
    LatticeSpec,
    real_space_hamiltonian,
)

RESIDUAL_RTOL = 1e-9

#: Zero-mode detection threshold, units of J.
ZERO_MODE_TOL = 1e-6


def _as_matrix(h: Union[ComplexMatrix, np.ndarray]) -> np.ndarray:
    if isinstance(h, ComplexMatrix):
        return h.matrix
    return np.asarray(h, dtype=complex)


def _c_products(vectors: np.ndarray) -> np.ndarray:
    """r_n^T r_n for every column (no conjugation)."""
    return np.einsum("ij,ij->j", vectors, vectors)


@dataclass(frozen=True)
class ComplexSpectrum:
    """Eigendecomposition of a complex-symmetric matrix (H = H^T).

    ``right_vectors[:, n]`` has unit norm and belongs to ``eigenvalues[n]``.
    For H = H^T the left eigenvectors are the conjugated right ones, and the
    pairs are orthogonal in the c-product r_m^T r_n, which vanishes for m = n
    at an exceptional point. ``condition_numbers[n]`` is the eigenvalue
    condition number ||r_n||^2 / |r_n^T r_n|.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    condition_numbers: np.ndarray

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def left_vectors(self) -> np.ndarray:
        """conj(r_n / (r_n^T r_n)): eigenvectors of H^dagger with conjugated
        eigenvalues, scaled so that <l_m|r_n> = delta_mn."""
        r = self.right_vectors
        return np.conj(r / _c_products(r))


def eig_full(h: Union[ComplexMatrix, np.ndarray]) -> ComplexSpectrum:
    """Dense decomposition of a complex-symmetric matrix.

    Every chain the package builds is complex symmetric: tridiagonal, with
    real hopping and complex on-site terms. Only right vectors are solved
    for; the condition numbers come from the c-product. Raises
    :class:`ConfigurationError` for a matrix that is not square, finite and
    exactly symmetric, and :class:`NumericalError` if residuals or the
    eigenvalue sum violate their bounds; near-defective pairs are only
    flagged through large condition numbers.
    """
    m = _as_matrix(h)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError("eig_full requires a square matrix")
    if not np.all(np.isfinite(m)):
        raise ConfigurationError("matrix entries must be finite")
    if not np.array_equal(m, m.T):
        raise ConfigurationError("eig_full requires a complex-symmetric matrix (H = H^T)")
    w, vr = np.linalg.eig(m)

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

    with np.errstate(divide="ignore"):
        cond = np.linalg.norm(vr, axis=0) ** 2 / np.abs(_c_products(vr))
    return ComplexSpectrum(eigenvalues=w, right_vectors=vr, condition_numbers=cond)


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
