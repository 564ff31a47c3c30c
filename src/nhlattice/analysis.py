"""Momentum-resolved spectra, decay and oscillation fits, interface comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, FitError
from .lattice import LossPattern, chain_matrix, interface_lattice, real_space_hamiltonian
from .propagation import FieldEvolution
from .spectral import eig_full

WINDOW_NONE = "none"
WINDOW_HANN = "hann"

#: kz rows per block of the momentum transform's x pass.
_KZ_BLOCK = 512

#: Decay-fit defaults: range starts in um and the range end in um.
DECAY_FIT_STARTS = (4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
DECAY_FIT_END = 80.0


@dataclass(frozen=True)
class MomentumSpectrum:
    """2D power spectrum |A(kx, kz)|^2 of a propagated field, in a kz window.

    ``power`` has shape (n_kz, n_kx): the rows are the kz samples of the
    window, and the kx axis covers two Brillouin zones [-2*pi/d, 2*pi/d) by
    periodic extension. ``total_power_one_zone`` is the power of every
    padded kz row over one zone: by the discrete Parseval identity, the
    energy sum |a_w|^2 of the (windowed) field.
    """

    kx_grid: np.ndarray
    kz_grid: np.ndarray
    power: np.ndarray
    total_power_one_zone: float
    window: str
    pad_factor: int

    def band_profile(self, kx_lo: float, kx_hi: float) -> Tuple[np.ndarray, np.ndarray]:
        """kz profile averaged over a kx band (washes finite-array fringes)."""
        cols = (self.kx_grid >= kx_lo) & (self.kx_grid <= kx_hi)
        if not np.any(cols):
            raise ConfigurationError("kx band contains no grid columns")
        return self.kz_grid, self.power[:, cols].mean(axis=1)

    def ridge_centroids(self, kx_abs_max: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Power-weighted kz centroid of the window, per kx column."""
        cols = np.ones(self.kx_grid.size, dtype=bool)
        if kx_abs_max is not None:
            cols = np.abs(self.kx_grid) <= kx_abs_max
        sub = self.power[:, cols]
        weights = sub.sum(axis=0)
        cent = (self.kz_grid[:, None] * sub).sum(axis=0) / weights
        return self.kx_grid[cols], cent


def momentum_kz_grid(n_z: int, n_x: int, dz: float, pad_factor: int) -> np.ndarray:
    """kz axis (1/um) of the transform of an (n_z, n_x) field with z step
    ``dz`` um, padded ``pad_factor`` >= 1 times; needs 8 sites and 64 z samples."""
    if n_x < 8:
        raise ConfigurationError("momentum spectrum needs at least 8 sites")
    if n_z < 64:
        raise ConfigurationError("momentum spectrum needs at least 64 z samples")
    if pad_factor < 1:
        raise ConfigurationError("pad_factor must be >= 1")
    return 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(pad_factor * n_z, d=dz))


def momentum_kz_rows(kz: np.ndarray, kz_window: Sequence[float]) -> slice:
    """The rows lo <= kz <= hi of an ascending kz axis, for ``kz_window``
    (lo, hi); a window that holds none is a ConfigurationError."""
    lo, hi = kz_window
    rows = np.flatnonzero((kz >= lo) & (kz <= hi))
    if rows.size == 0:
        raise ConfigurationError("kz window holds no kz sample of the transform")
    return slice(int(rows[0]), int(rows[-1]) + 1)


def _fft_length(n: int) -> int:
    """The smallest 2^a * 3^b * 5^c >= n, a length NumPy's FFT handles fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def momentum_spectrum(
    field: FieldEvolution,
    kz_window: Sequence[float],
    window: str = WINDOW_HANN,
    pad_factor: int = 4,
) -> MomentumSpectrum:
    """2D discrete Fourier transform of the complex field over (x, z), padded
    ``pad_factor`` times along both axes, in the kz rows of ``kz_window``.

    With the evolution convention a ~ exp(i*beta*z) the longitudinal peak of
    a mode sits at kz = Re(beta) + Re(E). The kz axis and the field's size
    rules are those of :func:`momentum_kz_grid`, the rows those of
    :func:`momentum_kz_rows`.

    Along z a chirp z-transform (Bluestein; Rabiner, Schafer & Rader 1969)
    of the unpadded columns gives just the window's m bins, with one FFT
    convolution of length >= n_z + m - 1. The padded x transform then runs
    on those rows, ``_KZ_BLOCK`` at a time. Work and memory follow the
    window, not the padded kz axis: besides ``power`` (16 B per row and
    padded column) it holds the windowed field and the convolution buffer.
    """
    n_z, n_x = field.amplitudes.shape
    dz = field.z_grid[1] - field.z_grid[0] if n_z > 1 else 1.0  # 1 sample: rejected below
    kz = momentum_kz_grid(n_z, n_x, dz, pad_factor)
    rows = momentum_kz_rows(kz, kz_window)

    a = field.amplitudes
    if window == WINDOW_HANN:
        a = a * np.hanning(n_z)[:, None] * np.hanning(n_x)[None, :]
    elif window != WINDOW_NONE:
        raise ConfigurationError(f"unknown window {window!r}")
    total = float((np.abs(a) ** 2).sum())  # sum |a_w|^2

    n_zf, n_xf = pad_factor * n_z, pad_factor * n_x
    d = field.spec.spacing_d
    # kx extends periodically over two zones [-2pi/d, 2pi/d): column j of
    # the result is transform bin j mod n_xf
    dkx = 2.0 * np.pi / (n_xf * d)
    kx_ext = (np.arange(2 * n_xf) - n_xf) * dkx

    # fftshift along z: row i is bin i - n_zf // 2; the window holds bins
    # b0 ... b0 + m - 1. With b*z = (b^2 + z^2 - (b - z)^2) / 2 and the chirp
    # w_n = exp(-i*pi*n^2 / n_zf), bin b0 + k of column a(z) is
    # w_k * sum_z [a(z) exp(-2i*pi*b0*z / n_zf) w_z] conj(w_(k-z)): a
    # convolution. Phases are reduced as integers, so they stay exact.
    b0, m = rows.start - n_zf // 2, rows.stop - rows.start
    n = np.arange(max(n_z, m), dtype=np.int64)
    chirp = np.exp(-1j * np.pi / n_zf * ((n * n) % (2 * n_zf)))
    shift = np.exp(-2j * np.pi / n_zf * ((b0 * n[:n_z]) % n_zf))
    length = _fft_length(n_z + m - 1)
    kernel = np.zeros(length, dtype=complex)  # conj(w_j) at j mod length, -n_z < j < m
    kernel[:m] = chirp[:m].conj()
    kernel[length - n_z + 1 :] = chirp[n_z - 1 : 0 : -1].conj()
    buf = np.zeros((n_x, length), dtype=complex)  # one column of the field per row
    np.multiply(a.T, shift * chirp[:n_z], out=buf[:, :n_z])
    del a  # free the windowed field before the power map exists
    np.fft.fft(buf, axis=1, out=buf)
    buf *= np.fft.fft(kernel)
    np.fft.ifft(buf, axis=1, out=buf)

    power = np.empty((m, 2 * n_xf))
    block = np.empty((min(m, _KZ_BLOCK), n_xf), dtype=complex)
    for k0 in range(0, m, _KZ_BLOCK):
        k1 = min(k0 + _KZ_BLOCK, m)
        fx = np.fft.fft((buf[:, k0:k1] * chirp[k0:k1]).T, n_xf, axis=1, out=block[: k1 - k0])
        dest = power[k0:k1, :n_xf]
        np.abs(fx, out=dest)
        np.square(dest, out=dest)
        dest /= n_zf * n_xf  # over all n_zf rows, sum(power) == sum(|a_w|^2)
        power[k0:k1, n_xf:] = dest
    return MomentumSpectrum(
        kx_grid=kx_ext, kz_grid=kz[rows], power=power, total_power_one_zone=total,
        window=window, pad_factor=pad_factor,
    )


@dataclass(frozen=True)
class DecayFit:
    """Exponential 1/e decay length from log-linear fits over several ranges."""

    ell: float
    a0: float
    fit_ranges: Tuple[Tuple[float, float], ...]
    ell_error: float
    r_squared: Tuple[float, ...]


def default_fit_ranges(z_max: float):
    stop = min(DECAY_FIT_END, float(z_max))
    return tuple((s, stop) for s in DECAY_FIT_STARTS if s < stop)


def fit_decay(
    z: np.ndarray,
    intensity: np.ndarray,
    fit_ranges: Optional[Sequence[Tuple[float, float]]] = None,
) -> DecayFit:
    """Fit I(z) = a0 * exp(-z/ell) by least squares on log(I), per range.

    ``ell`` is the mean over ranges and ``ell_error`` the standard deviation,
    which flags non-exponential traces. Ranges containing non-positive
    intensities or fewer than 10 samples are rejected; rejecting all of them
    raises :class:`FitError`.
    """
    z = np.asarray(z, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
    if fit_ranges is None:
        fit_ranges = default_fit_ranges(z.max())
    ells, amps, r2s, used = [], [], [], []
    for z_lo, z_hi in fit_ranges:
        mask = (z >= z_lo) & (z <= z_hi)
        if mask.sum() < 10 or np.any(intensity[mask] <= 0):
            continue
        x, y = z[mask], np.log(intensity[mask])
        design = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        slope, intercept = coef
        if slope >= 0:
            continue
        yhat = design @ coef
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 - float(((y - yhat) ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
        ells.append(-1.0 / slope)
        amps.append(np.exp(intercept))
        r2s.append(r2)
        used.append((float(z_lo), float(z_hi)))
    if not ells:
        raise FitError(
            "no usable fit range (non-positive, growing, or too short data)",
            {"ranges": [tuple(r) for r in fit_ranges]},
        )
    return DecayFit(
        ell=float(np.mean(ells)),
        a0=float(np.mean(amps)),
        fit_ranges=tuple(used),
        ell_error=float(np.std(ells)),
        r_squared=tuple(r2s),
    )


@dataclass(frozen=True)
class OscillationFit:
    """Parameters of I(z) = a1*cos(kz*z + phi)*exp(-z/ell) + a0.

    ``covariance`` is over (a1, kz_osc, phi, ell, a0), ``rss`` the residual
    sum of squares over the fitted samples. ``kz_osc_at_zero`` marks a fit
    that ended at the kz >= 0 bound, where a1 and phi are not identifiable.
    """

    kz_osc: float
    phi: float
    ell: float
    a0: float
    a1: float
    covariance: np.ndarray
    rss: float
    kz_osc_at_zero: bool


#: Below this phase advance (rad) over the fit range a cosine is a straight line.
ZERO_FREQUENCY_PHASE = 1e-4


def _damped_columns(x: np.ndarray, kz: float, rate: float) -> np.ndarray:
    """Columns cos(kz*z)e^(-rate*z), sin(kz*z)e^(-rate*z) and 1 of the model."""
    decay = np.exp(-rate * x)
    return np.column_stack([np.cos(kz * x) * decay, np.sin(kz * x) * decay, np.ones_like(x)])


def _linear_part(cols: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares (c, s, a0) for fixed columns, with a0 held at 0 if negative."""
    coef = np.linalg.lstsq(cols, y, rcond=None)[0]
    if coef[2] < 0:
        coef = np.append(np.linalg.lstsq(cols[:, :2], y, rcond=None)[0], 0.0)
    return coef


def fit_oscillation(
    z: np.ndarray,
    intensity: np.ndarray,
    fit_range: Optional[Tuple[float, float]] = None,
) -> OscillationFit:
    """Fit I(z) = a1*cos(kz*z + phi)*exp(-z/ell) + a0 to a site trace.

    The fit is by variable projection (Golub and Pereyra, Inverse Problems
    19, R1, 2003). For fixed (kz, ell) the model is linear in
    (c, s, a0) = (a1*cos(phi), -a1*sin(phi), a0): a linear least-squares
    solve on the columns cos(kz*z)e^(-z/ell), sin(kz*z)e^(-z/ell) and 1 gives
    them, with the constant column dropped (a0 = 0) when a0 comes out
    negative. A bounded trust-region search then runs over the two rates
    kz >= 0 and 1/ell in [0, 1e6] alone, from two starts: kz = 0 and the
    dominant Fourier peak of the decay-detrended trace, both with ell from a
    decay fit. The lower residual wins, so a pure exponential comes out with
    kz_osc at 0 instead of a spurious frequency. Traces with more than 1500
    samples in ``fit_range`` (default 4 um to min(80 um, z_max)) are
    decimated. ``covariance`` is curve_fit's estimate, pinv(J^T J) * rss /
    (m - 5), from the analytic 5-parameter Jacobian J at the solution.

    A quasi-stationary trace, where one mode carries the launch, is fitted
    best in the limit kz -> 0+: the sine column tends to kz*z*e^(-z/ell), so
    the model gains a z*e^(-z/ell) term while a1 grows as 1/kz. The search
    then ends at some tiny kz with a large, arbitrary a1 and phi (only
    a1*cos(phi) and a1*kz*sin(phi) are determined). ``kz_osc_at_zero`` marks
    this: the fitted cosine turns by less than ``ZERO_FREQUENCY_PHASE`` rad
    over the fit range.
    """
    from scipy.optimize import least_squares

    z = np.asarray(z, dtype=float)
    intensity = np.asarray(intensity, dtype=float)
    if fit_range is None:
        lo, hi = DECAY_FIT_STARTS[0], min(DECAY_FIT_END, float(z.max()))
    else:
        lo, hi = fit_range
    mask = (z >= lo) & (z <= hi)
    if mask.sum() < 10:
        raise FitError("fit range too short", {"samples": int(mask.sum())})
    x, y = z[mask], intensity[mask]
    if np.any(y < 0):
        raise FitError("negative intensities in fit range")
    if x.size > 1500:  # dense traces add nothing to a 5-parameter fit
        stride = -(-x.size // 1500)
        x, y = x[::stride], y[::stride]

    try:
        decay = fit_decay(z, np.maximum(intensity, 1e-300), fit_ranges=[(lo, hi)])
        ell0 = decay.ell
        resid = y - decay.a0 * np.exp(-x / ell0)
    except FitError:
        # undamped oscillation: no exponential trend to subtract
        ell0 = 10.0 * (hi - lo)
        resid = y - y.mean()
    freqs = 2.0 * np.pi * np.fft.rfftfreq(x.size, d=x[1] - x[0])
    spectrum = np.abs(np.fft.rfft(resid - resid.mean()))
    k_fft = float(freqs[1 + int(np.argmax(spectrum[1:]))]) if x.size > 2 else 0.0

    def residual(p):
        cols = _damped_columns(x, *p)
        return cols @ _linear_part(cols, y) - y

    best = None
    last_resid = None
    for kz0 in (0.0, k_fft):
        # search (kz, 1/ell): both are rates in 1/um, and an undamped trace
        # ends at the 1/ell >= 0 bound instead of running off to ell = inf.
        # No gradient test: its tolerance is absolute, so a faint oscillation
        # would end the search early.
        res = least_squares(
            residual, (kz0, 1.0 / ell0), bounds=([0.0, 0.0], [np.inf, 1e6]),
            ftol=1e-12, xtol=1e-12, gtol=None,
        )
        if not res.success:
            continue
        rss = float(res.fun @ res.fun)
        last_resid = rss
        if best is None or rss < best[0]:
            best = (rss, res.x)
    if best is None:
        raise FitError("oscillation fit did not converge", {"residual": last_resid})
    rss, (kz_osc, rate) = best
    ell = 1.0 / rate
    c, s, a0 = _linear_part(_damped_columns(x, kz_osc, rate), y)
    a1, phi = np.hypot(c, s), np.arctan2(-s, c)
    phi = float((phi + np.pi) % (2.0 * np.pi) - np.pi)

    # curve_fit's covariance: SVD pseudo-inverse of J^T J, scaled by rss/(m - 5)
    theta, damping = kz_osc * x + phi, np.exp(-rate * x)
    jac = np.column_stack([
        np.cos(theta) * damping,
        -a1 * x * np.sin(theta) * damping,
        -a1 * np.sin(theta) * damping,
        a1 * np.cos(theta) * damping * x / ell**2,
        np.ones_like(x),
    ])
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    keep = sv > np.finfo(float).eps * max(jac.shape) * sv[0]
    covariance = (vt[keep].T / sv[keep] ** 2) @ vt[keep] * (rss / (x.size - 5))
    return OscillationFit(
        kz_osc=float(kz_osc), phi=phi, ell=float(ell), a0=float(a0), a1=float(a1),
        covariance=covariance, rss=rss,
        kz_osc_at_zero=bool(kz_osc * (x[-1] - x[0]) < ZERO_FREQUENCY_PHASE),
    )


@dataclass(frozen=True)
class InterfaceComparison:
    """Interface-mode loss against an isolated low-loss defect, per g2."""

    g2: float
    im_e_interface: float
    im_e_defect: float
    ambiguous: bool


def interface_vs_defect(
    g2_values: Sequence[float],
    J: float,
    spacing_d: float = 1.4,
    n_cells_per_side: int = 5,
    n_sites_defect: int = 40,
) -> List[InterfaceComparison]:
    """Compare Im E of the interface mode with an isolated low-loss defect.

    For each g2 (symmetric convention g0 = g1 = g2) the interface lattice is
    a trivial/topological junction; the defect lattice applies the uniform
    loss -2i*g2*J everywhere except one central site. In both systems the
    mode is selected by maximal weight at the distinguished site, flagging
    near-ties within 1 percent as ambiguous.
    """
    results = []
    for g2 in g2_values:
        g2 = float(g2)
        iface = interface_lattice(
            LossPattern.trivial(g2), LossPattern.topological(g2),
            n_cells_per_side, n_cells_per_side, J, spacing_d, re_beta=0.0,
        )
        spec_i = eig_full(real_space_hamiltonian(iface))
        w_if = np.abs(spec_i.right_vectors[iface.interface_index - 1, :]) ** 2
        order = np.argsort(w_if)[::-1]
        amb_i = w_if[order[1]] > 0.99 * w_if[order[0]]
        im_iface = float(spec_i.eigenvalues[order[0]].imag)

        n = n_sites_defect
        center = n // 2
        beta = np.full(n, -2j * g2 * J, dtype=complex)
        beta[center] = 0.0
        spec_d = eig_full(chain_matrix(beta, J))
        w_def = np.abs(spec_d.right_vectors[center, :]) ** 2
        order_d = np.argsort(w_def)[::-1]
        amb_d = w_def[order_d[1]] > 0.99 * w_def[order_d[0]]
        im_def = float(spec_d.eigenvalues[order_d[0]].imag)

        results.append(
            InterfaceComparison(
                g2=g2,
                im_e_interface=im_iface,
                im_e_defect=im_def,
                ambiguous=bool(amb_i or amb_d),
            )
        )
    return results
