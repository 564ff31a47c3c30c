"""Coupled-mode propagation along z for finite waveguide lattices.

The integrated equation is da_j/dz = i*C*(a_{j-1} + a_{j+1}) + i*beta_j*a_j
with open ends, where beta_j = Re(beta) + i*Im(beta_j) and absorption means
Im(beta_j) >= 0 (intensity decays like exp(-2*Im(beta)*z)). LatticeSpec.beta
stores on-site imaginary parts <= 0 for loss, so the generator is the chain
of its conjugate; intensities agree either way, and a unit test against the
scalar analytic solution pins the sign.

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
from .lattice import SITES_PER_CELL, LatticeSpec, chain_matrix
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

#: Column tile of the expm product. The BLAS kernels compute a product's
#: columns in groups of a few (4 for zgemm on AVX-512 cores) and round the
#: leftover columns at its end differently; a one-column product goes to
#: gemv, which rounds differently again. In a product whose width is a
#: multiple of _TILE, a multiple of every kernel's group, the bits of a
#: column depend on that column alone.
_TILE = 16

#: z samples per block of the expm product, a multiple of _TILE.
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
    """Complex amplitudes a_j(z) at the kept z samples, shape (n_z, n_sites).

    The samples are z = n * dz for n = 0, s, 2s, ... with s = ``save_every``,
    plus the last sample of the grid when s does not divide the step count,
    so the spacing is uniform except, possibly, before the last sample.
    """

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


def _mapped_empty(shape: Tuple[int, int]) -> np.ndarray:
    """Uninitialised complex array on an anonymous mapping of its own.

    Through malloc, glibc's adaptive mmap threshold puts arrays below 32 MiB
    on the heap once one such array has been freed, and how much of the heap
    stays resident after they are dropped depends on the order of earlier
    allocations. A mapping of its own is unmapped with the array, so the
    resident size during and after a propagation does not depend on what ran
    before it in the process. Momentum and fit runs still propagate the whole
    z grid, so the helper stays: with plain ``np.empty`` the ``fits``
    benchmark's peak resident size rose from about 92 MB to 97.5-101 MB.
    """
    count = shape[0] * shape[1]
    buf = mmap.mmap(-1, max(count, 1) * np.dtype(complex).itemsize)
    return np.frombuffer(buf, dtype=complex, count=count).reshape(shape)


def _march(step, a0: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """States (len(keep), n_sites) after the steps ``keep`` (increasing, from 0),
    where ``step(n, a)`` takes the state ``a`` through step n; only they are stored."""
    out = _mapped_empty((keep.size, a0.size))
    out[0] = a0
    row = 1
    a = a0
    for n in range(1, keep[-1] + 1):
        a = step(n, a)
        if n == keep[row]:
            out[row] = a
            row += 1
    return out


def _rk4(m_rot: np.ndarray, a0: np.ndarray, keep: np.ndarray, dz: float) -> np.ndarray:
    """Amplitudes (len(keep), n_sites) after the steps ``keep`` (increasing, from 0).

    In a purely lossy lattice each step is checked for intensity growth.
    """
    # the chain's generator i*M is symmetric tridiagonal, so each stage applies
    # the three-term stencil of its diagonal and off-diagonal, not a dense product
    gen = partial(tridiagonal_apply, 1j * m_rot.diagonal(), 1j * m_rot.diagonal(1))
    lossy = np.all(m_rot.imag.diagonal() >= -1e-15)
    total_prev = float(np.vdot(a0, a0).real)

    def step(n, a):
        nonlocal total_prev
        k1 = gen(a)
        k2 = gen(a + 0.5 * dz * k1)
        k3 = gen(a + 0.5 * dz * k2)
        k4 = gen(a + dz * k3)
        a = a + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if lossy:
            total = float(np.vdot(a, a).real)
            if total > total_prev * (1.0 + 1e-12):
                raise StepSizeError(
                    "intensity grew in a purely lossy lattice",
                    {"step": n, "total": total, "previous": total_prev},
                )
            total_prev = total
        return a

    return _march(step, a0, keep)


def _expm_evolution(
    m_rot: np.ndarray, a0: np.ndarray, keep: np.ndarray, dz: float
) -> np.ndarray:
    """Amplitudes (len(keep), n_sites) at z = keep * dz, ``keep`` increasing from 0.

    They come from the eigendecomposition of ``m_rot``, and each kept sample
    has the bits that ``keep = arange(keep[-1] + 1)`` gives it. Besides the
    output it holds one block of at most ``_Z_BLOCK`` columns of mode factors
    exp(i w z) * coeff at a time. The near-defective fallback takes every step
    up to ``keep[-1]`` and holds the output and one propagator step.
    """
    spectrum = eig_full(m_rot)
    w, v = spectrum.eigenvalues, spectrum.right_vectors
    if spectrum.condition_numbers.max() > EIGENBASIS_MAX_COND:
        # near-defective generator: fall back to scaling-and-squaring steps
        import scipy.linalg as sla

        step = sla.expm(1j * m_rot * dz)
        return _march(lambda n, a: step @ a, a0, keep)
    coeff = np.linalg.solve(v, a0)
    # a(z) = v @ (exp(i w z) * coeff), one block of z columns at a time. The
    # whole grid's product ends in leftover columns, so the samples from the
    # last multiple of _TILE at or below n_z - 2 to the end form one product of
    # 2 to _TILE + 1 columns, which rounds each of them as the whole grid's
    # product does. The kept samples before it go in blocks padded to a
    # multiple of _TILE, whose last block may spill into later output columns.
    n_z = keep[-1] + 1
    tail = _TILE * (max(n_z - 2, 0) // _TILE)
    head = keep[: np.searchsorted(keep, tail)]
    padded = -(-head.size // _TILE) * _TILE
    out = _mapped_empty((a0.size, max(keep.size, padded)))
    buf = _mapped_empty((w.size, max(min(_Z_BLOCK, padded), n_z - tail)))

    def product(z_cols, dest):
        modes = buf[:, : z_cols.size]
        np.multiply(w[:, None], z_cols[None, :], out=modes)
        modes *= 1j
        np.exp(modes, out=modes)
        modes *= coeff[:, None]
        np.matmul(v, modes, out=dest)

    for j0 in range(0, head.size, _Z_BLOCK):
        cols = head[j0 : j0 + _Z_BLOCK]
        z = np.zeros(-(-cols.size // _TILE) * _TILE)
        z[: cols.size] = cols * dz
        product(z, out[:, j0 : j0 + z.size])
    end = np.empty((a0.size, n_z - tail), dtype=complex)
    product(np.arange(tail, n_z) * dz, end)
    out[:, head.size : keep.size] = end[:, keep[head.size :] - tail]
    return out[:, : keep.size].T


def propagate(
    spec: LatticeSpec,
    exc: Excitation,
    z_max: float = DEFAULT_Z_MAX,
    dz: float = DEFAULT_DZ,
    method: str = "expm",
    save_every: int = 1,
) -> FieldEvolution:
    """Integrate the coupled-mode equation from a single-site excitation.

    ``method='rk4'`` is the classical fixed-step scheme; ``method='expm'``
    evaluates the exact propagator through the eigendecomposition of the
    generator (falling back to scaling-and-squaring when it is too close to
    defective). Both agree to high accuracy away from exceptional points.

    Of the grid z = n * dz, n = 0 ... round(z_max / dz), the field keeps every
    ``save_every``-th sample and the last one; only those are computed, and
    each equals the sample that ``save_every=1`` gives to the bit.
    """
    if z_max <= 0:
        raise ConfigurationError("z_max must be > 0")
    if dz <= 0:
        raise ConfigurationError("dz must be > 0")
    if save_every < 1:
        raise ConfigurationError("save_every must be >= 1")
    if not 1 <= exc.site <= spec.n_sites:
        raise ConfigurationError("excitation site outside the lattice")

    m_rot = chain_matrix(np.conj(spec.beta) - spec.re_beta, spec.hopping_J)
    bound = STABILITY_FACTOR / max(np.linalg.norm(m_rot, 2), 1e-300)
    if dz > bound:
        raise StepSizeError(
            "step size exceeds the stability bound for this lattice",
            {"dz": dz, "bound": float(bound)},
        )

    n_steps = int(round(z_max / dz))
    keep = np.arange(0, n_steps + 1, save_every)
    if keep[-1] != n_steps:
        keep = np.append(keep, n_steps)
    z = keep * dz
    a0 = np.zeros(spec.n_sites, dtype=complex)
    a0[exc.site - 1] = exc.amplitude

    if method == "rk4":
        amps = _rk4(m_rot, a0, keep, dz)
    elif method == "expm":
        amps = _expm_evolution(m_rot, a0, keep, dz)
    else:
        raise ConfigurationError(f"unknown method {method!r}")

    amps *= np.exp(1j * spec.re_beta * z)[:, None]
    return FieldEvolution(z_grid=z, amplitudes=amps, spec=spec)
