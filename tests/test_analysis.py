import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlattice.analysis import (
    fit_decay,
    fit_oscillation,
    interface_vs_defect,
    momentum_kz_grid,
    momentum_spectrum,
)
from nhlattice.calibration import default_hopping_curve
from nhlattice.errors import ConfigurationError, FitError
from nhlattice.lattice import LatticeSpec, LossPattern, interface_lattice
from nhlattice.propagation import Excitation, FieldEvolution, propagate

J = 0.045
D = 1.4


def lattice(pattern, n_sites=48, re_beta=6.6):
    return LatticeSpec(
        n_sites=n_sites, hopping_J=J, spacing_d=D, pattern=pattern, re_beta=re_beta
    )


def ii_iii_interface(g, n_cells=6, re_beta=0.0):
    return interface_lattice(
        LossPattern.trivial(g), LossPattern.topological(g), n_cells, n_cells, J, D, re_beta
    )


@pytest.fixture(scope="module")
def edge_field_iii():
    spec = lattice(LossPattern.topological(1.1))
    return propagate(spec, Excitation.resolve("edge", spec), z_max=80.0)


# the band region around re_beta = 6.6 that a momentum run exports by default
BAND = (6.0, 7.2)


def random_field(n_x, n_z, seed):
    spec = lattice(LossPattern.topological(1.1), n_sites=n_x)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((n_x, n_z)) + 1j * rng.standard_normal((n_x, n_z))
    # F-ordered like a propagated field
    return FieldEvolution(z_grid=np.arange(n_z) * 0.0125, amplitudes=amps.T, spec=spec)


class TestMomentumSpectrum:
    def test_minimum_grid_sizes(self):
        spec = lattice(LossPattern.lossless(), n_sites=4)
        field = propagate(spec, Excitation.resolve("edge", spec), z_max=10.0, dz=0.1)
        with pytest.raises(ConfigurationError):
            momentum_spectrum(field, BAND)
        spec8 = lattice(LossPattern.lossless(), n_sites=8)
        short = propagate(spec8, Excitation.resolve("edge", spec8), z_max=3.0, dz=0.1)
        with pytest.raises(ConfigurationError):
            momentum_spectrum(short, BAND)

    def test_empty_kz_window_rejected(self, edge_field_iii):
        with pytest.raises(ConfigurationError):
            momentum_spectrum(edge_field_iii, (400.0, 401.0))  # beyond pi/dz

    def test_parseval_over_one_zone(self, edge_field_iii):
        ms = momentum_spectrum(edge_field_iii, (-np.inf, np.inf), window="hann", pad_factor=2)
        n_z, n_x = edge_field_iii.amplitudes.shape
        windowed = (
            edge_field_iii.amplitudes
            * np.hanning(n_z)[:, None]
            * np.hanning(n_x)[None, :]
        )
        # the kx axis repeats the zone twice, so halve the total
        expected = (np.abs(windowed) ** 2).sum()
        assert abs(ms.power.sum() / 2.0 - expected) <= 1e-6 * expected
        assert abs(ms.total_power_one_zone - expected) <= 1e-6 * expected

    def test_kx_axis_covers_two_zones_periodically(self, edge_field_iii):
        ms = momentum_spectrum(edge_field_iii, BAND)
        assert ms.kx_grid[0] == pytest.approx(-2 * np.pi / D)
        assert ms.kx_grid[-1] < 2 * np.pi / D
        n = ms.kx_grid.size // 2
        assert np.allclose(ms.power[:, :n], ms.power[:, n:])

    def test_phase_i_ridge_follows_cosine_band(self):
        # analytic dispersion oracle: kz(kx) = re_beta + 2J cos(kx d)
        spec = lattice(LossPattern.lossless())
        field = propagate(spec, Excitation.resolve("bulk_cell_start", spec), z_max=80.0)
        ms = momentum_spectrum(field, BAND)
        cols = np.abs(ms.kx_grid) <= np.pi / D
        worst = 0.0
        for ix in np.nonzero(cols)[0][::8]:
            ridge = ms.kz_grid[np.argmax(ms.power[:, ix])]
            predicted = 6.6 + 2 * J * np.cos(ms.kx_grid[ix] * D)
            worst = max(worst, abs(ridge - predicted))
        assert worst < 0.02

    @staticmethod
    def fft2_reference(field, window, pad):
        """The power map as one fft2 of the whole padded field, and sum |a_w|^2."""
        a = field.amplitudes
        n_z, n_x = a.shape
        if window == "hann":
            a = a * np.hanning(n_z)[:, None] * np.hanning(n_x)[None, :]
        n_zf, n_xf = pad * n_z, pad * n_x
        power = np.abs(np.fft.fft2(a, s=(n_zf, n_xf))) ** 2 / (n_zf * n_xf)
        power = np.fft.fftshift(power, axes=0)
        return power[:, np.tile(np.arange(n_xf), 2)], (np.abs(a) ** 2).sum()

    @given(
        n_x=st.integers(8, 20), n_z=st.integers(64, 300), pad=st.integers(1, 4),
        window=st.sampled_from(["hann", "none"]), data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_window_rows_match_fft2(self, n_x, n_z, pad, window, data):
        field = random_field(n_x, n_z, seed=n_x * n_z)
        kz = momentum_kz_grid(n_z, n_x, 0.0125, pad)
        last = kz.size - 1
        i0, i1 = data.draw(st.one_of(
            st.sampled_from([(0, 0), (last, last), (0, last)]),  # one end row, whole axis
            st.lists(st.integers(0, last), min_size=2, max_size=2).map(sorted),
        ))
        ms = momentum_spectrum(field, (kz[i0], kz[i1]), window=window, pad_factor=pad)
        ref, total = self.fft2_reference(field, window, pad)
        assert np.array_equal(ms.kz_grid, kz[i0 : i1 + 1])
        assert np.abs(ms.power - ref[i0 : i1 + 1]).max() <= 1e-13 * ref.max()
        assert abs(ms.total_power_one_zone - total) <= 1e-13 * total

    @pytest.mark.parametrize("n_x, n_z, pad, window", [
        (48, 301, 4, "hann"),  # fig2c's n_x, above the property's range
        (9, 201, 3, "none"),  # odd padded z length
        (8, 64, 1, "hann"),
    ])
    def test_blocked_transform_matches_fft2_bit_for_bit(self, n_x, n_z, pad, window):
        # pinned whole-axis cases: the kz axis, the one-zone total and the
        # second kx zone are bit for bit; the chirp z-transform rounds
        # differently from fft2, so the power is held to 1e-13 of the maximum
        field = random_field(n_x, n_z, seed=n_x)
        ms = momentum_spectrum(field, (-np.inf, np.inf), window=window, pad_factor=pad)
        ref, total = self.fft2_reference(field, window, pad)
        n_xf = pad * n_x
        assert np.array_equal(ms.kz_grid, momentum_kz_grid(n_z, n_x, 0.0125, pad))
        assert ms.total_power_one_zone == total
        assert np.array_equal(ms.power[:, :n_xf], ms.power[:, n_xf:])
        assert ms.power.shape == ref.shape
        assert np.abs(ms.power - ref).max() <= 1e-13 * ref.max()

    @pytest.mark.parametrize("kz_window, bound", [
        (BAND, lambda field, ms: 8 * field.amplitudes.nbytes),
        ((-np.inf, np.inf), lambda field, ms: 1.6 * ms.power.nbytes),
    ], ids=["band", "whole_axis"])
    def test_peak_memory_follows_the_kz_window(self, kz_window, bound):
        field = random_field(48, 8001, seed=0)  # fig2c's size, padded 4x
        tracemalloc.start()
        try:
            ms = momentum_spectrum(field, kz_window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound(field, ms)

    def test_flat_band_width_shrinks_with_propagation_length(self):
        spec = lattice(LossPattern.topological(1.1))
        widths = []
        for z_max in (25.0, 50.0, 100.0):
            field = propagate(spec, Excitation.resolve("edge", spec), z_max=z_max)
            ms = momentum_spectrum(field, (6.3, 6.9))
            kz, prof = ms.band_profile(-np.pi / D, np.pi / D)
            above = prof >= prof.max() / 2
            widths.append(kz[above].max() - kz[above].min())
        assert widths[0] > widths[1] > widths[2]


class TestFitDecay:
    def test_exact_exponential(self):
        z = np.linspace(0, 60, 1200)
        fit = fit_decay(z, np.exp(-z / 5.0))
        assert fit.ell == pytest.approx(5.0, abs=1e-9)
        assert fit.ell_error < 1e-9
        assert all(r2 > 1 - 1e-12 for r2 in fit.r_squared)

    @pytest.mark.parametrize("rng", [(2.0, 30.0), (10.0, 55.0), (1.0, 59.0)])
    def test_exact_recovery_any_range(self, rng):
        z = np.linspace(0, 60, 4000)
        fit = fit_decay(z, 3.0 * np.exp(-z / 12.5), fit_ranges=[rng])
        assert fit.ell == pytest.approx(12.5, rel=1e-6)
        assert fit.a0 == pytest.approx(3.0, rel=1e-6)

    def test_rejects_nonpositive_ranges(self):
        z = np.linspace(0, 60, 600)
        y = np.exp(-z / 5.0)
        y[z > 40] = 0.0
        fit = fit_decay(z, y, fit_ranges=[(4, 30), (4, 50)])
        assert fit.fit_ranges == ((4.0, 30.0),)
        with pytest.raises(FitError):
            fit_decay(z, y, fit_ranges=[(45, 55)])

    def test_interface_decay_lengths_increase_with_loss(self):
        # experimental-window ranges; late z carries two-mode interference
        ranges = [(s, 27.0) for s in range(4, 11)]
        ells = []
        for im_beta in (0.06, 0.09, 0.1):
            iface = ii_iii_interface(im_beta / (2 * J))
            field = propagate(iface, Excitation.resolve("interface", iface), z_max=40.0)
            z, trace = field.site_trace(iface.interface_index)
            ells.append(fit_decay(z, trace, fit_ranges=ranges).ell)
        assert ells[0] < ells[1] < ells[2]

    def test_lossless_trace_flags_non_exponential(self):
        iface = interface_lattice(
            LossPattern.lossless(), LossPattern.lossless(), 6, 6, J, D, re_beta=0.0
        )
        field = propagate(iface, Excitation.resolve("interface", iface), z_max=100.0)
        z, trace = field.site_trace(iface.interface_index)
        fit = fit_decay(z, trace)
        assert fit.ell_error > 0.1 * fit.ell


class TestFitOscillation:
    def test_two_site_rabi_frequency(self):
        # cos^2(Jz) oscillates at 2J
        spec = LatticeSpec(
            n_sites=2, hopping_J=J, spacing_d=D,
            pattern=LossPattern.lossless(), re_beta=0.0,
        )
        field = propagate(spec, Excitation.resolve("edge", spec), z_max=100.0)
        z, trace = field.site_trace(1)
        fit = fit_oscillation(z, trace)
        assert fit.kz_osc == pytest.approx(2 * J, rel=1e-4)

    def test_pure_exponential_recovers_no_oscillation(self):
        z = np.linspace(0, 80, 2000)
        trace = 2.0 * np.exp(-z / 9.0)
        fit = fit_oscillation(z, trace)
        decay = fit_decay(z, trace)
        assert abs(fit.kz_osc) < 1e-6
        assert fit.kz_osc_at_zero
        assert fit.ell == pytest.approx(decay.ell, rel=1e-3)

    @settings(deadline=None, max_examples=50)
    @given(
        kz=st.floats(0.05, 0.5), ell=st.floats(5.0, 300.0), a1=st.floats(0.1, 5.0),
        a0_per_a1=st.floats(1.0, 2.0), phi=st.floats(-np.pi, np.pi),
    )
    def test_recovers_noise_free_damped_cosines(self, kz, ell, a1, a0_per_a1, phi):
        z = np.linspace(0.0, 100.0, 10001)
        trace = a1 * np.cos(kz * z + phi) * np.exp(-z / ell) + a0_per_a1 * a1
        fit = fit_oscillation(z, trace)
        assert fit.kz_osc == pytest.approx(kz, rel=1e-6)
        assert not fit.kz_osc_at_zero

    def test_rss_is_the_residual_of_the_reported_parameters(self, edge_field_iii):
        z, trace = edge_field_iii.site_trace(1)
        fit = fit_oscillation(z, trace)
        in_range = (z >= 4.0) & (z <= 80.0)  # the default range, decimated 1 in 6
        x, y = z[in_range][::6], trace[in_range][::6]
        model = fit.a1 * np.cos(fit.kz_osc * x + fit.phi) * np.exp(-x / fit.ell) + fit.a0
        assert fit.rss == pytest.approx(float(((y - model) ** 2).sum()), rel=1e-9)
        assert fit.covariance.shape == (5, 5)
        assert np.all(np.diag(fit.covariance) >= 0)

    def test_trivial_edge_frequency_grows_with_hopping(self):
        curve = default_hopping_curve()
        freqs = []
        for d in (1.8, 1.4):
            j_hop = float(curve.predict(d))
            g = 0.1 / (2 * j_hop)
            iface = interface_lattice(
                LossPattern.trivial(g), LossPattern.topological(g), 5, 5, j_hop, d, re_beta=0.0
            )
            field = propagate(iface, Excitation.resolve("edge", iface), z_max=100.0)
            z, trace = field.site_trace(1)
            freqs.append(fit_oscillation(z, trace).kz_osc)
        assert freqs[0] < freqs[1]

    def test_interface_trace_is_quasi_stationary(self):
        # strongly localized regime (g2 well above 1): the launch is
        # mode-dominated and the fitted frequency collapses to zero
        j_hop = float(default_hopping_curve().predict(1.8))
        g = 0.1 / (2 * j_hop)
        iface = interface_lattice(
            LossPattern.trivial(g), LossPattern.topological(g), 5, 5, j_hop, 1.8, re_beta=0.0
        )
        field = propagate(iface, Excitation.resolve("interface", iface), z_max=100.0)
        z, trace = field.site_trace(iface.interface_index)
        fit = fit_oscillation(z, trace)
        assert fit.kz_osc < 0.1 * (2 * j_hop)

    def test_short_range_rejected(self):
        with pytest.raises(FitError):
            fit_oscillation(np.linspace(0, 1, 5), np.ones(5))


@pytest.fixture(scope="module")
def comparison():
    g_values = [round(0.2 + 0.1 * i, 1) for i in range(29)]
    return interface_vs_defect(g_values, J)


class TestInterfaceVsDefect:

    def test_advantage_window(self, comparison):
        for row in comparison:
            if 0.7 <= row.g2 <= 1.4:
                assert abs(row.im_e_interface) < abs(row.im_e_defect)

    def test_zeno_convergence(self, comparison):
        last = comparison[-1]
        assert last.g2 == pytest.approx(3.0)
        assert abs(last.im_e_interface) == pytest.approx(abs(last.im_e_defect), rel=0.05)

    def test_small_g2_is_degenerate_regime(self, comparison):
        # below the localization threshold the defect resonance is a
        # near-degenerate pair, flagged as ambiguous
        assert all(row.ambiguous for row in comparison if row.g2 <= 0.5)
        assert not any(row.ambiguous for row in comparison if row.g2 >= 1.5)
