"""Complex-symmetric eigenproblems: c-product pairs, zero modes, exceptional-point sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, ModeTrackingError, NumericalError
from .lattice import SITES_PER_CELL, LatticeSpec, cell_diagonal, chain_matrix

RESIDUAL_RTOL = 1e-9

#: Zero-mode detection threshold, units of J.
ZERO_MODE_TOL = 1e-6


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
    def left_vectors(self) -> np.ndarray:
        """conj(r_n / (r_n^T r_n)): eigenvectors of H^dagger with conjugated
        eigenvalues, scaled so that <l_m|r_n> = delta_mn."""
        r = self.right_vectors
        return np.conj(r / _c_products(r))


def eig_full(h: np.ndarray) -> ComplexSpectrum:
    """Dense decomposition of a complex-symmetric matrix.

    Every chain the package builds is complex symmetric: tridiagonal, with
    real hopping and complex on-site terms. Only right vectors are solved
    for; the condition numbers come from the c-product. Raises
    :class:`ConfigurationError` for a matrix that is not square, finite and
    exactly symmetric, and :class:`NumericalError` if residuals or the
    eigenvalue sum violate their bounds; near-defective pairs are only
    flagged through large condition numbers.
    """
    m = np.asarray(h, dtype=complex)
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


#: Values closer than this share of ||H|| in the sort key count as equal in
#: ``spectrum_order``, which then goes by the second key.
SPECTRUM_ORDER_RTOL = 1e-12


def spectrum_order(values: np.ndarray, tol: float) -> np.ndarray:
    """Indices by ascending real part, runs of real parts within ``tol`` of
    their neighbour by ascending imaginary part, so a rounding change cannot
    swap values whose real parts are equal, such as the equal-Re E pairs of
    a phase-II chain."""
    order = np.argsort(values.real, kind="stable")
    run = np.concatenate([[0], np.cumsum(np.diff(values.real[order]) > tol)])
    return order[np.lexsort((values.imag[order], run))]


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
    keep = pts > pts.max(initial=0.0) * 1e-20  # a 1-site chain's half is empty
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


#: Rayleigh-quotient steps per tracked mode and J before ``ep_sweep`` falls
#: back to ``eig_full``.
RQI_MAX_STEPS = 8

#: The iteration stops once its residual is below this share of ||H||.
RQI_STOP_RTOL = 1e-14

#: Largest share of the first-order step |lambda_pred - lambda_prev| by which
#: a tracked eigenvalue may miss its prediction. Near a coalescence the pair
#: moves like a square root of J and fails this check.
PREDICTOR_RTOL = 0.1

#: Rounding floor, in units of ||H||, of the predictor check and of the
#: separation that makes the two tracked modes distinct.
ROUNDING_RTOL = 1e-13


def tridiagonal_apply(diag: np.ndarray, off: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x for the symmetric tridiagonal A with the given diagonal and
    off-diagonal, as a three-term stencil."""
    ax = diag * x
    ax[:-1] += off * x[1:]
    ax[1:] += off * x[:-1]
    return ax


def _rayleigh_quotient_iteration(d, e, shift, x, stop):
    """c-product Rayleigh-quotient iteration from (shift, x) on the complex
    symmetric tridiagonal matrix (d, e); every shifted solve is a
    tridiagonal LU. Runs until the residual is below ``stop`` or stops
    shrinking.

    Returns (eigenvalue, unit eigenvector, residual norm), or None when a
    shift is exactly singular or a vector turns self-orthogonal.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs

    resid = np.inf
    for _ in range(RQI_MAX_STEPS):
        *lu, info = zgttrf(e, d - shift, e)
        if info != 0:
            return None
        y, info = zgttrs(*lu, x)
        y = y / np.abs(y).max()  # a nearly singular shift makes y huge
        x = y / np.linalg.norm(y)
        hx = tridiagonal_apply(d, e, x)
        xx = x @ x
        if xx == 0:
            return None
        shift = (x @ hx) / xx
        last, resid = resid, np.linalg.norm(hx - shift * x)
        if resid <= stop or resid > 0.5 * last:
            break
    return shift, x, resid


#: Scores within this share of the best one count as equal when ``ep_sweep``
#: picks a mode, by interface weight at the first J and by eigenvector overlap
#: after a fallback; the lower Re E, then the lower Im E, wins.
OVERLAP_TIE_RTOL = 1e-9


def _best_overlap(ov: np.ndarray, eigenvalues: np.ndarray, skip: int | None = None) -> int:
    """The column of largest score ``ov``, other than ``skip``; of columns
    within ``OVERLAP_TIE_RTOL`` of the largest, the one with the lowest
    Re E, then the lowest Im E."""
    if skip is not None:
        ov = ov.copy()
        ov[skip] = -np.inf
    near = np.flatnonzero(ov >= (1.0 - OVERLAP_TIE_RTOL) * ov.max())
    return int(near[np.lexsort((eigenvalues.imag[near], eigenvalues.real[near]))[0]])


def _joint_overlap_pair(prev_pair: np.ndarray, vr: np.ndarray, eigenvalues: np.ndarray,
                        J: float, overlap_min: float):
    """Columns of ``vr``, the eigenvectors of ``eigenvalues``, continuing the
    two columns of ``prev_pair``. A tracked mode that has just passed a
    coalescence with an untracked one overlaps both modes it split into
    equally; the tie rule of ``_best_overlap``, not rounding, picks one."""
    ov = np.abs(prev_pair.conj().T @ vr)  # (2, n): rows old, cols new
    a, b = _best_overlap(ov[0], eigenvalues), _best_overlap(ov[1], eigenvalues)
    if a == b:
        # both prefer the same column: resolve by best joint overlap
        a2, b2 = _best_overlap(ov[0], eigenvalues, a), _best_overlap(ov[1], eigenvalues, b)
        if ov[0, a] * ov[1, b2] >= ov[0, a2] * ov[1, b]:
            b = b2
        else:
            a = a2
    lo = min(ov[0, a], ov[1, b])
    if lo < overlap_min:
        raise ModeTrackingError(
            "mode continuation overlap dropped below threshold",
            {"J": float(J), "overlap": float(lo), "threshold": overlap_min},
        )
    return [a, b]


def _track_pair(d, e, dJ, norm, prev_eigs, prev_pair, overlap_min):
    """The tracked pair continued to the tridiagonal matrix (d, e) of norm
    ``norm``, whose hopping is ``dJ`` above the previous one, as
    (eigenvalues, (n, 2) unit vectors); None when any check of ``ep_sweep``
    fails."""
    floor = ROUNDING_RTOL * norm
    eigs = np.empty(2, dtype=complex)
    vecs = np.empty_like(prev_pair)
    for k in range(2):
        r = prev_pair[:, k]
        rr = r @ r
        if rr == 0:
            return None
        step = 2.0 * dJ * (r[:-1] @ r[1:]) / rr  # r^T (dJ T) r / r^T r
        pred = prev_eigs[k] + step
        found = _rayleigh_quotient_iteration(d, e, pred, r, RQI_STOP_RTOL * norm)
        if found is None:
            return None
        lam, x, resid = found
        if (resid > RESIDUAL_RTOL * norm
                or abs(lam - pred) > PREDICTOR_RTOL * abs(step) + floor
                or abs(np.vdot(r, x)) < overlap_min):
            return None
        eigs[k], vecs[:, k] = lam, x
    if abs(eigs[0] - eigs[1]) <= floor:
        return None
    return eigs, vecs


def require_interface(spec: LatticeSpec) -> None:
    """Raise :class:`ConfigurationError` unless ``spec`` joins domains whose
    on-site cells differ: domains with equal ``cell_diagonal`` make one
    uniform chain, which has no interface."""
    if spec.is_uniform or spec.interface_index is None:
        raise ConfigurationError("an interface lattice is required")
    first = cell_diagonal(spec.pattern[0][0])
    if all(np.array_equal(cell_diagonal(p), first) for p, _ in spec.pattern[1:]):
        raise ConfigurationError(
            "both domains have the same on-site cell, so they form no interface"
        )


def ep_sweep(
    base: LatticeSpec,
    J_range: Sequence[float],
    overlap_min: float = 0.5,
) -> EPSweepResult:
    """Sweep the hopping at fixed physical loss and follow the two boundary
    modes through their coalescence.

    ``base`` must pass :func:`require_interface`. Its on-site constants
    beta are held fixed and only the hopping changes, H(J) = diag(beta) +
    J*T with T the 0/1 nearest-neighbour matrix, so the dimensionless loss
    of each domain shrinks as J grows. At the smallest J a full
    ``eig_full`` selects the two modes with the largest weight on the
    interface cell and the outer cell of the second domain, one at a time by
    the rule of ``_best_overlap``: of the modes whose weight is within
    ``OVERLAP_TIE_RTOL`` of the largest one left, the lowest Re E, then the
    lowest Im E, is taken. At each later J
    every tracked mode r is first predicted to first order,
    lambda_pred = lambda_prev + 2 dJ sum_i r_i r_(i+1) / r^T r, and then
    refined by a c-product Rayleigh-quotient iteration from
    (lambda_pred, r) with tridiagonal solves. The pair is kept if each
    residual is within ``RESIDUAL_RTOL * ||H||``, each eigenvalue lies within
    ``PREDICTOR_RTOL`` of its predicted step (plus a rounding floor), the
    two modes are distinct, no shift was exactly singular and each vector
    overlaps its predecessor by at least ``overlap_min``. Otherwise, as near
    a coalescence, ``eig_full`` runs on H(J) and the pair is continued by
    maximal joint eigenvector overlap, raising :class:`ModeTrackingError`
    below ``overlap_min``; of overlaps within ``OVERLAP_TIE_RTOL`` of the
    best, the lowest Re E, then the lowest Im E, wins. Each row of
    ``pair_eigenvalues`` lists the higher Re E first; a pair whose Re E
    agree within ``SPECTRUM_ORDER_RTOL * ||H||`` lists the lower Im E first.
    The estimate ``J_ep`` is the separation minimum of the scan, flagged
    when it sits at either end of the scan.
    """
    require_interface(base)
    J_values = np.asarray(sorted(float(j) for j in J_range))
    if J_values.size < 2:
        raise ConfigurationError("ep_sweep needs at least two hopping values")

    n = base.n_sites
    if0 = base.interface_index - 1
    sel_sites = list(range(if0, min(if0 + SITES_PER_CELL, n)))
    sel_sites += list(range(n - SITES_PER_CELL, n))
    beta = base.beta
    norms = np.hypot(np.linalg.norm(beta), math.sqrt(2.0 * (n - 1)) * J_values)  # ||H(J)||

    pair_eigs = np.empty((J_values.size, 2), dtype=complex)
    conds = np.empty((J_values.size, 2))
    prev_pair = None  # (n, 2) tracked unit eigenvectors from the previous J
    for idx, J in enumerate(J_values):
        e = np.full(n - 1, J, dtype=complex)
        tracked = None
        if prev_pair is not None:
            tracked = _track_pair(
                beta, e, J - J_values[idx - 1], norms[idx],
                pair_eigs[idx - 1], prev_pair, overlap_min,
            )
        if tracked is not None:
            pair_eigs[idx], prev_pair = tracked
            conds[idx] = 1.0 / np.abs(_c_products(prev_pair))  # unit vectors
        else:
            spec = eig_full(chain_matrix(beta, J))
            vr = spec.right_vectors
            if prev_pair is None:
                weight = (np.abs(vr[sel_sites, :]) ** 2).sum(axis=0)
                first = _best_overlap(weight, spec.eigenvalues)
                pair_idx = [first, _best_overlap(weight, spec.eigenvalues, first)]
            else:
                pair_idx = _joint_overlap_pair(prev_pair, vr, spec.eigenvalues, J, overlap_min)
            prev_pair = vr[:, pair_idx]
            pair_eigs[idx] = spec.eigenvalues[pair_idx]
            conds[idx] = spec.condition_numbers[pair_idx]

    for row, norm in zip(pair_eigs, norms):
        row[:] = row[spectrum_order(-row.conj(), SPECTRUM_ORDER_RTOL * norm)]
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
