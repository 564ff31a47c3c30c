"""Coupled-mode propagation along z for finite waveguide lattices.

The integrated equation is da_j/dz = i*C*(a_{j-1} + a_{j+1}) + i*beta_j*a_j
with open ends, where beta_j = Re(beta) + i*Im(beta_j) and absorption means
Im(beta_j) >= 0 (intensity decays like exp(-2*Im(beta)*z)). The lattice
Hamiltonian convention stores on-site imaginary parts <= 0 for loss, so the
coupled-mode matrix is its elementwise conjugate; intensities agree either
way, and a unit test against the scalar analytic solution pins the sign.

The uniform Re(beta) commutes with everything and is applied as an exact
global phase after stepping, which keeps the fixed-step integrator accurate
and leaves momentum spectra centered at the physical k_z.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError, StepSizeError
from .lattice import SITES_PER_CELL, LatticeSpec, real_space_hamiltonian
from .spectral import eig_full, tridiagonal_apply

#: Fixed-step stability bound: dz <= STABILITY_FACTOR / ||M||_2.
STABILITY_FACTOR = 0.1

#: Largest eigenvalue condition number of the generator that the expm path
#: propagates through its eigenbasis; above it the generator counts as
#: near-defective and scaling-and-squaring steps are used. Rounding splits an
#: exact double eigenvalue into a pair whose condition number reads about
#: 1/sqrt(machine epsilon), 5e7-8e7 for a 2 x 2 block, so the bound sits well
#: below that; the generators of the bundled configs read at most about 32.
EIGENBASIS_MAX_COND = 1e6

#: z samples per block of the expm product. Blocks that start at multiples
#: of a fixed power of two keep the BLAS product bit-identical to one product
#: over all z; the leftover columns form the last block.
_Z_BLOCK = 1024

DEFAULT_DZ = 0.01
DEFAULT_Z_MAX = 100.0

KIND_EDGE = "edge"
KIND_BULK = "bulk_cell_start"
KIND_INTERFACE = "interface"
KIND_SITE = "site_index"


@dataclass(frozen=True)
class Excitation:
    """Initial condition: one site carrying all the input amplitude."""

    kind: str
    site: int  # resolved 1-based site index
    amplitude: complex = 1.0 + 0.0j

    @classmethod
    def resolve(
        cls,
        kind: str,
        spec: LatticeSpec,
        site: Optional[int] = None,
        amplitude: complex = 1.0 + 0.0j,
    ) -> "Excitation":
        """Resolve a protocol name to a concrete site of ``spec``.

        ``edge`` is site 1; ``interface`` is the recorded interface site;
        ``bulk_cell_start`` is the first site of the centermost unit cell, at
        least two cells away from either boundary. Only ``site_index`` takes
        a ``site``.
        """
        if site is not None and kind != KIND_SITE:
            raise ConfigurationError(
                f"only a {KIND_SITE!r} excitation takes a site, not {kind!r}"
            )
        if kind == KIND_EDGE:
            resolved = 1
        elif kind == KIND_INTERFACE:
            if spec.interface_index is None:
                raise ConfigurationError("lattice has no interface site")
            resolved = spec.interface_index
        elif kind == KIND_BULK:
            n_cells = spec.n_sites // SITES_PER_CELL
            cell = n_cells // 2
            if cell < 2 or cell > n_cells - 3:
                raise ConfigurationError(
                    "bulk excitation needs a cell at least 2 cells from both edges"
                )
            resolved = SITES_PER_CELL * cell + 1
        elif kind == KIND_SITE:
            if site is None:
                raise ConfigurationError("site_index excitation requires a site")
            resolved = site
        else:
            raise ConfigurationError(f"unknown excitation kind {kind!r}")
        if not 1 <= resolved <= spec.n_sites:
            raise ConfigurationError(
                f"site {resolved} outside lattice of {spec.n_sites} sites"
            )
        return cls(kind=kind, site=resolved, amplitude=complex(amplitude))


@dataclass(frozen=True)
class FieldEvolution:
    """Complex amplitudes a_j(z) on a uniform z grid, shape (n_z, n_sites)."""

    z_grid: np.ndarray
    amplitudes: np.ndarray
    spec: LatticeSpec

    def intensities(self, rows=slice(None)) -> np.ndarray:
        """|a_j|^2 at the z samples ``rows`` (an index or a slice; all by default)."""
        return np.abs(self.amplitudes[rows]) ** 2

    def site_trace(self, site: int) -> Tuple[np.ndarray, np.ndarray]:
        """(z, intensity) at one 1-based site."""
        if not 1 <= site <= self.spec.n_sites:
            raise ConfigurationError(f"site {site} out of range")
        return self.z_grid, np.abs(self.amplitudes[:, site - 1]) ** 2


def coupled_mode_matrix(spec: LatticeSpec) -> np.ndarray:
    """Propagation matrix M with absorption as Im(beta_j) >= 0, in 1/um."""
    return np.conj(real_space_hamiltonian(spec))


def _mapped_empty(shape: Tuple[int, int]) -> np.ndarray:
    """Uninitialised complex array on an anonymous mapping of its own.

    Through malloc, glibc's adaptive mmap threshold puts arrays below 32 MiB
    on the heap once one such array has been freed, and how much of the heap
    stays resident after they are dropped depends on the order of earlier
    allocations. A mapping of its own is unmapped with the array, so the
    resident size during and after a propagation does not depend on what ran
    before it in the process.
    """
    count = shape[0] * shape[1]
    buf = mmap.mmap(-1, max(count, 1) * np.dtype(complex).itemsize)
    return np.frombuffer(buf, dtype=complex, count=count).reshape(shape)


def _rk4(m_rot: np.ndarray, a0: np.ndarray, n_steps: int, dz: float) -> np.ndarray:
    out = _mapped_empty((n_steps + 1, a0.size))
    out[0] = a0
    a = a0
    # the chain's generator i*M is symmetric tridiagonal, so each stage applies
    # the three-term stencil of its diagonal and off-diagonal, not a dense product
    gen = partial(tridiagonal_apply, 1j * m_rot.diagonal(), 1j * m_rot.diagonal(1))
    lossy = np.all(m_rot.imag.diagonal() >= -1e-15)
    total_prev = float(np.vdot(a, a).real)
    for n in range(n_steps):
        k1 = gen(a)
        k2 = gen(a + 0.5 * dz * k1)
        k3 = gen(a + 0.5 * dz * k2)
        k4 = gen(a + dz * k3)
        a = a + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[n + 1] = a
        if lossy:
            total = float(np.vdot(a, a).real)
            if total > total_prev * (1.0 + 1e-12):
                raise StepSizeError(
                    "intensity grew in a purely lossy lattice",
                    {"step": n + 1, "total": total, "previous": total_prev},
                )
            total_prev = total
    return out


def _expm_evolution(
    m_rot: np.ndarray, a0: np.ndarray, z: np.ndarray, dz: float
) -> np.ndarray:
    """Amplitudes (n_z, n_sites) from the eigendecomposition of ``m_rot``.

    Besides the (n_sites, n_z) output it holds one block of at most
    ``_Z_BLOCK`` + 1 columns of mode factors exp(i w z) * coeff at a time.
    The near-defective fallback holds the output and one propagator step.
    """
    spectrum = eig_full(m_rot)
    w, v = spectrum.eigenvalues, spectrum.right_vectors
    if spectrum.condition_numbers.max() > EIGENBASIS_MAX_COND:
        # near-defective generator: fall back to scaling-and-squaring steps
        import scipy.linalg as sla

        step = sla.expm(1j * m_rot * dz)
        out = _mapped_empty((z.size, a0.size))
        out[0] = a0
        a = a0
        for n in range(1, z.size):
            a = step @ a
            out[n] = a
        return out
    coeff = np.linalg.solve(v, a0)
    # a(z) = v @ (exp(i w z) * coeff), one block of z columns at a time
    out = _mapped_empty((a0.size, z.size))
    buf = _mapped_empty((w.size, min(_Z_BLOCK + 1, z.size)))
    # a last block of one column would go to gemv, whose bits differ from
    # gemm's, so one leftover column joins the block before it
    j0 = 0
    for j1 in [*range(_Z_BLOCK, z.size - 1, _Z_BLOCK), z.size]:
        modes = buf[:, : j1 - j0]
        np.multiply(w[:, None], z[None, j0:j1], out=modes)
        modes *= 1j
        np.exp(modes, out=modes)
        modes *= coeff[:, None]
        np.matmul(v, modes, out=out[:, j0:j1])
        j0 = j1
    return out.T


def propagate(
    spec: LatticeSpec,
    exc: Excitation,
    z_max: float = DEFAULT_Z_MAX,
    dz: float = DEFAULT_DZ,
    method: str = "expm",
) -> FieldEvolution:
    """Integrate the coupled-mode equation from a single-site excitation.

    ``method='rk4'`` is the classical fixed-step scheme; ``method='expm'``
    evaluates the exact propagator through the eigendecomposition of the
    generator (falling back to scaling-and-squaring when it is too close to
    defective). Both agree to high accuracy away from exceptional points.
    """
    if z_max <= 0:
        raise ConfigurationError("z_max must be > 0")
    if dz <= 0:
        raise ConfigurationError("dz must be > 0")
    if not 1 <= exc.site <= spec.n_sites:
        raise ConfigurationError("excitation site outside the lattice")

    m = coupled_mode_matrix(spec)
    m_rot = m - spec.re_beta * np.eye(spec.n_sites)
    bound = STABILITY_FACTOR / max(np.linalg.norm(m_rot, 2), 1e-300)
    if dz > bound:
        raise StepSizeError(
            "step size exceeds the stability bound for this lattice",
            {"dz": dz, "bound": float(bound)},
        )

    n_steps = int(round(z_max / dz))
    z = np.arange(n_steps + 1) * dz
    a0 = np.zeros(spec.n_sites, dtype=complex)
    a0[exc.site - 1] = exc.amplitude

    if method == "rk4":
        amps = _rk4(m_rot, a0, n_steps, dz)
    elif method == "expm":
        amps = _expm_evolution(m_rot, a0, z, dz)
    else:
        raise ConfigurationError(f"unknown method {method!r}")

    amps *= np.exp(1j * spec.re_beta * z)[:, None]
    return FieldEvolution(z_grid=z, amplitudes=amps, spec=spec)
