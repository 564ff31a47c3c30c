"""Lattice model builders for the four-site loss-patterned chain.

The unit cell has four sites with uniform nearest-neighbor hopping ``J``
(units 1/um) and a per-site gain/loss pattern ``(i*g1, -i*g2, -i*g1, i*g2)``
plus a uniform background loss ``-i*g0``, all dimensionless in units of J.
Purely dissipative realizations keep every on-site imaginary part <= 0,
which requires ``g0 >= max(|g1|, |g2|)``.

Sign of ``g1*g2`` selects the phase: negative is dissipative trivial (II),
positive is dissipative topological (III), all-zero is the lossless metal (I).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigurationError

#: Default uniform real propagation constant, 1/um.
DEFAULT_RE_BETA = 6.6

SITES_PER_CELL = 4

PHASE_LOSSLESS = "I"
PHASE_TRIVIAL = "II"
PHASE_TOPOLOGICAL = "III"
PHASE_CUSTOM = "custom"


@dataclass(frozen=True)
class LossPattern:
    """Per-cell on-site gain/loss amplitudes, dimensionless (units of J).

    ``custom_cell`` replaces the four-site gain/loss pattern verbatim; the
    uniform background loss ``g0`` is still applied on top of it.
    """

    phase: str
    g0: float = 0.0
    g1: float = 0.0
    g2: float = 0.0
    custom_cell: Optional[Tuple[complex, complex, complex, complex]] = None

    def __post_init__(self):
        if not np.isfinite(np.array([self.g0, self.g1, self.g2], float)).all():
            raise ConfigurationError("g0, g1 and g2 must be finite")
        if self.g0 < 0:
            raise ConfigurationError(f"g0 must be >= 0, got {self.g0}")
        if self.phase == PHASE_CUSTOM:
            if self.custom_cell is None:
                raise ConfigurationError("custom pattern requires custom_cell")
            if len(self.custom_cell) != SITES_PER_CELL:
                raise ConfigurationError("custom_cell must hold 4 values")
            object.__setattr__(
                self, "custom_cell", tuple(complex(c) for c in self.custom_cell)
            )
            if not np.all(np.isfinite(self.custom_cell)):
                raise ConfigurationError("custom_cell values must be finite")
            return
        if self.custom_cell is not None:
            raise ConfigurationError("custom_cell is only valid with phase='custom'")
        if self.phase == PHASE_LOSSLESS:
            if self.g0 != 0 or self.g1 != 0 or self.g2 != 0:
                raise ConfigurationError("phase I requires g0 = g1 = g2 = 0")
        elif self.phase == PHASE_TRIVIAL:
            if not self.g1 * self.g2 < 0:
                raise ConfigurationError("phase II requires g1*g2 < 0")
        elif self.phase == PHASE_TOPOLOGICAL:
            if not self.g1 * self.g2 > 0:
                raise ConfigurationError("phase III requires g1*g2 > 0")
        else:
            raise ConfigurationError(f"unknown phase {self.phase!r}")

    @classmethod
    def lossless(cls) -> "LossPattern":
        """Phase I: no loss anywhere."""
        return cls(PHASE_LOSSLESS)

    @classmethod
    def trivial(cls, g: float) -> "LossPattern":
        """Phase II with the symmetric choice g0 = g1 = |g2| = g, g2 = -g."""
        return cls(PHASE_TRIVIAL, g0=g, g1=g, g2=-g)

    @classmethod
    def topological(cls, g: float) -> "LossPattern":
        """Phase III with the symmetric choice g0 = g1 = g2 = g."""
        return cls(PHASE_TOPOLOGICAL, g0=g, g1=g, g2=g)

    @classmethod
    def from_g(cls, g0: float, g1: float, g2: float) -> "LossPattern":
        """Classify an explicit (g0, g1, g2) triple by the sign of g1*g2."""
        if g0 == g1 == g2 == 0:
            return cls(PHASE_LOSSLESS)
        if g1 * g2 == 0:
            raise ConfigurationError(
                "g1*g2 = 0 with nonzero loss has no phase label; use a custom cell"
            )
        phase = PHASE_TOPOLOGICAL if g1 * g2 > 0 else PHASE_TRIVIAL
        return cls(phase, g0=g0, g1=g1, g2=g2)

    @classmethod
    def custom(cls, cell: Sequence[complex], g0: float = 0.0) -> "LossPattern":
        return cls(PHASE_CUSTOM, g0=g0, custom_cell=tuple(cell))


def cell_diagonal(pattern: LossPattern) -> np.ndarray:
    """On-site constants of one unit cell, complex, in units of J.

    For the preset phases this is
    ``(i*g1 - i*g0, -i*g2 - i*g0, -i*g1 - i*g0, i*g2 - i*g0)``; with the
    symmetric choices it reduces to ``-2i*g*(0,0,1,1)`` (II) and
    ``-2i*g*(0,1,1,0)`` (III).
    """
    if pattern.phase == PHASE_CUSTOM:
        base = np.array(pattern.custom_cell, dtype=complex)
    else:
        g1, g2 = pattern.g1, pattern.g2
        base = np.array([1j * g1, -1j * g2, -1j * g1, 1j * g2], dtype=complex)
    return base - 1j * pattern.g0 * np.ones(SITES_PER_CELL)


DomainList = Tuple[Tuple[LossPattern, int], ...]


@dataclass(frozen=True)
class LatticeSpec:
    """Geometry and loss pattern of a finite chain.

    ``pattern`` is either a single :class:`LossPattern` (tiled over the chain,
    truncating the last cell site by site when ``n_sites`` is not a multiple
    of 4) or a tuple of ``(pattern, n_cells)`` domains laid out left to right.
    ``interface_index`` is the 1-based index of the first site of the second
    domain, recorded by :func:`interface_lattice`.
    """

    n_sites: int
    hopping_J: float
    spacing_d: float
    pattern: Union[LossPattern, DomainList]
    re_beta: float = DEFAULT_RE_BETA
    interface_index: Optional[int] = None

    def __post_init__(self):
        if not np.isfinite(np.array([self.hopping_J, self.spacing_d, self.re_beta], float)).all():
            raise ConfigurationError("hopping_J, spacing_d and re_beta must be finite")
        if self.n_sites < 1:
            raise ConfigurationError("n_sites must be >= 1")
        if self.hopping_J <= 0:
            raise ConfigurationError("hopping_J must be > 0")
        if self.spacing_d <= 0:
            raise ConfigurationError("spacing_d must be > 0")
        if not self.is_uniform:
            n_domain = SITES_PER_CELL * sum(n for _, n in self.pattern)
            if n_domain != self.n_sites:
                raise ConfigurationError(
                    f"domain cells cover {n_domain} sites, n_sites is {self.n_sites}"
                )
        if self.interface_index is not None and not (
            1 <= self.interface_index <= self.n_sites
        ):
            raise ConfigurationError("interface_index out of range")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.isfinite(self.beta).all():
                raise ConfigurationError("on-site constants re_beta + J * onsite must be finite")

    @property
    def is_uniform(self) -> bool:
        return isinstance(self.pattern, LossPattern)

    def onsite_values(self) -> np.ndarray:
        """Per-site on-site constants in units of J, length ``n_sites``."""
        if self.is_uniform:
            cell = cell_diagonal(self.pattern)
            reps = -(-self.n_sites // SITES_PER_CELL)
            return np.tile(cell, reps)[: self.n_sites]
        parts = [
            np.tile(cell_diagonal(p), n) for p, n in self.pattern
        ]
        return np.concatenate(parts)

    @property
    def beta(self) -> np.ndarray:
        """Per-site on-site constants in 1/um, ``re_beta + hopping_J * onsite``."""
        return self.re_beta + self.hopping_J * self.onsite_values()


def bloch_hamiltonian(k, pattern: LossPattern, d: float) -> np.ndarray:
    """4x4 Bloch matrix, in units of J, of the infinite lattice of
    ``pattern`` with site spacing ``d`` (um) at wave number ``k`` (1/um).

    The corner entries carry the cell-periodic phases ``exp(-4ikd)`` and
    ``exp(+4ikd)``, so the matrix is periodic in k with period pi/(2d).
    Multiply by J for 1/um. The uniform ``re_beta`` offset is not included:
    it shifts all bands identically and carries no band-structure
    information. A 1-D array of k gives the (n_k, 4, 4) stack, whose
    matrices have the bits of the scalar calls.
    """
    phase = np.exp(4j * np.asarray(k) * d)
    h = np.zeros(np.shape(phase) + (4, 4), dtype=complex)
    h[..., [0, 1, 1, 2, 2, 3], [1, 0, 2, 1, 3, 2]] = 1
    h[..., 0, 3] = 1 / phase
    h[..., 3, 0] = phase
    h[..., range(4), range(4)] = cell_diagonal(pattern)
    return h


def chain_matrix(beta: np.ndarray, J: float) -> np.ndarray:
    """The open chain diag(beta) + J*T as a complex matrix, with T the 0/1
    nearest-neighbour matrix and ``beta`` the on-site constants."""
    h = np.diag(np.asarray(beta, dtype=complex))
    i = np.arange(h.shape[0] - 1)
    h[i, i + 1] = h[i + 1, i] = J
    return h


def real_space_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Open-boundary chain Hamiltonian, n_sites x n_sites, in 1/um.

    Tridiagonal with hopping ``J`` off the diagonal and the on-site
    constants ``spec.beta`` on it. Hermitian iff the lattice is lossless.
    """
    return chain_matrix(spec.beta, spec.hopping_J)


def interface_lattice(
    left: LossPattern,
    right: LossPattern,
    n_left_cells: int,
    n_right_cells: int,
    hopping_J: float,
    spacing_d: float,
    re_beta: float = DEFAULT_RE_BETA,
) -> LatticeSpec:
    """Join two loss domains into one chain of hopping ``hopping_J`` (1/um),
    site spacing ``spacing_d`` (um) and uniform ``re_beta`` (1/um),
    recording the interface site.

    The interface site is the first site of the first right-domain cell,
    1-based. Equal domains are joined too, into a uniform chain.
    """
    if n_left_cells < 1 or n_right_cells < 1:
        raise ConfigurationError("both interface domains need at least one cell")
    return LatticeSpec(
        n_sites=SITES_PER_CELL * (n_left_cells + n_right_cells),
        hopping_J=hopping_J,
        spacing_d=spacing_d,
        pattern=((left, n_left_cells), (right, n_right_cells)),
        re_beta=re_beta,
        interface_index=SITES_PER_CELL * n_left_cells + 1,
    )
