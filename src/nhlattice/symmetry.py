"""Non-equilibrium symmetry check for the dissipative four-site lattice.

The single-particle generators are doubled into 8x8 matrices acting on
(c_1, c_1^dag, ..., c_4, c_4^dag): the Hamiltonian part H(k), the dissipation
part D and the fluctuation part P obtained from the quadratic form of
M = sum_mu L_mu^dag L_mu for the loss pattern's jump operators. Constant
prefactors J and sqrt(g*J) are dropped; the relations are scale invariant.

Time reversal, charge conjugation and the chiral combination are verified as

    U_T X*(-k) U_T^-1 = -X(k) for X = H, P and +X(k) for X = D,
    U_C X^T(-k) U_C^-1 = -X(k) for X = H, P and +X(k) for X = D,
    U_S X^dag(k) U_S^-1 = +X(k) for X = H, D, P,

with U_S = U_T U_C. All three holding puts the lattice in class BDI.

The loss pattern with g2 < 0 is the same chain with the unit-cell origin
moved one site, which exchanges rows and columns of P. The relabeling is a
basis change, so for that case H, P and the unitaries all carry the
corresponding block permutation; with the permuted P but the unpermuted H no
constant unitary satisfies the charge-conjugation relation at all (the
Bloch-phase bond must move together with the loss pattern).

``k`` here is the dimensionless Bloch phase entering as exp(4ik); a physical
wave number k_x in 1/um corresponds to k = k_x * d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError

RESIDUAL_TOL = 1e-12

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_ZERO2 = np.zeros((2, 2), dtype=complex)
_ID2 = np.eye(2, dtype=complex)

CASE_NONTRIVIAL = "nontrivial"
CASE_TRIVIAL = "trivial"


def _blockdiag(*blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        out[i : i + b.shape[0], i : i + b.shape[1]] = b
        i += b.shape[0]
    return out


def _cell_shift() -> np.ndarray:
    """Block permutation moving the cell origin by one site (block b -> b+1)."""
    p = np.zeros((8, 8), dtype=complex)
    for b in range(4):
        nb = (b + 1) % 4
        p[2 * nb : 2 * nb + 2, 2 * b : 2 * b + 2] = np.eye(2)
    return p


def _frame(case: str) -> np.ndarray:
    if case == CASE_NONTRIVIAL:
        return np.eye(8, dtype=complex)
    if case == CASE_TRIVIAL:
        return _cell_shift()
    raise ConfigurationError(f"unknown case {case!r}")


def time_reversal_unitary(case: str = CASE_NONTRIVIAL) -> np.ndarray:
    u = _blockdiag(_ID2, -_ID2, _ID2, -_ID2)
    f = _frame(case)
    return f @ u @ f.conj().T


def charge_conjugation_unitary(case: str = CASE_NONTRIVIAL) -> np.ndarray:
    u = np.zeros((8, 8), dtype=complex)
    for b in range(4):
        u[2 * b : 2 * b + 2, 6 - 2 * b : 8 - 2 * b] = _SIGMA_X
    f = _frame(case)
    return f @ u @ f.conj().T


def chiral_unitary(case: str = CASE_NONTRIVIAL) -> np.ndarray:
    return time_reversal_unitary(case) @ charge_conjugation_unitary(case)


def build_HDP(
    k: float, case: str = CASE_NONTRIVIAL
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Doubled 8x8 generator matrices (H(k), D, P) for one unit cell.

    The loss strength only scales the dropped prefactors, so it does not
    enter. The trivial case differs from the nontrivial one by an exchange
    of rows and columns in P (the loss pattern shifts by two sites).
    """
    h_corner = np.array(
        [[-np.exp(-4j * k), 0], [0, np.exp(4j * k)]], dtype=complex
    )
    h = np.zeros((8, 8), dtype=complex)
    for b in range(3):
        h[2 * b : 2 * b + 2, 2 * b + 2 : 2 * b + 4] = -_SIGMA_Z
        h[2 * b + 2 : 2 * b + 4, 2 * b : 2 * b + 2] = -_SIGMA_Z
    h[0:2, 6:8] = h_corner
    h[6:8, 0:2] = h_corner.conj()

    d = np.eye(8, dtype=complex)
    p = 1j * _blockdiag(_ZERO2, _SIGMA_Z, _SIGMA_Z, _ZERO2)
    f = _frame(case)  # the g2<0 pattern is the same chain relabeled
    return f @ h @ f.conj().T, d, f @ p @ f.conj().T


@dataclass(frozen=True)
class SymmetryReport:
    residual_T: float
    residual_C: float
    residual_S: float
    holds_T: bool
    holds_C: bool
    holds_S: bool
    class_label: str
    k_samples: Tuple[float, ...]


def check_symmetries(
    k_samples: Sequence[float],
    case: str = CASE_NONTRIVIAL,
    h_builder: Optional[Callable[[float], np.ndarray]] = None,
) -> SymmetryReport:
    """Evaluate the three symmetry relations on a list of Bloch phases.

    Residuals are the worst Frobenius norms over all samples and all three
    generator matrices; a relation holds below ``RESIDUAL_TOL``.
    ``h_builder`` overrides the Hamiltonian part (used for symmetry-breaking
    controls); D and P always follow ``case``. H(k) and H(-k) are checked as
    stacks over the samples; D and P do not depend on k, so their relations
    are checked once.
    """
    u_t = time_reversal_unitary(case)
    u_c = charge_conjugation_unitary(case)
    u_s = chiral_unitary(case)
    h_at = h_builder or (lambda k: build_HDP(k, case=case)[0])
    ks = [float(k) for k in k_samples]
    h_k = np.array([h_at(k) for k in ks]).reshape(-1, 8, 8)
    h_mk = np.array([h_at(-k) for k in ks]).reshape(-1, 8, 8)
    _, d, p = build_HDP(0.0, case=case)

    def worst(u, op, h, sign):
        """Largest norm of U op(X) U^-1 - sign * X over X = H, P and of the
        same with sign +1 for X = D."""
        terms = ((op(h), h_k, sign), (op(d), d, 1.0), (op(p), p, sign))
        return max(
            float(np.max(np.linalg.norm(u @ x @ u.conj().T - s * y, axis=(-2, -1)), initial=0.0))
            for x, y, s in terms
        )

    def transpose(x):
        return x.swapaxes(-2, -1)

    res_t = worst(u_t, np.conj, h_mk, -1.0)
    res_c = worst(u_c, transpose, h_mk, -1.0)
    res_s = worst(u_s, lambda x: transpose(x.conj()), h_k, 1.0)

    holds_t, holds_c, holds_s = res_t < RESIDUAL_TOL, res_c < RESIDUAL_TOL, res_s < RESIDUAL_TOL
    if holds_t and holds_c and holds_s:
        label = "BDI"
    elif holds_s:
        label = "AIII"
    else:
        label = "none"
    return SymmetryReport(
        residual_T=res_t,
        residual_C=res_c,
        residual_S=res_s,
        holds_T=holds_t,
        holds_C=holds_c,
        holds_S=holds_s,
        class_label=label,
        k_samples=tuple(ks),
    )
