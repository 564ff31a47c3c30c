import numpy as np
import pytest

from nhlattice.errors import ConfigurationError, StepSizeError
from nhlattice.lattice import LatticeSpec, LossPattern, interface_lattice
from nhlattice.propagation import (
    Excitation,
    FieldEvolution,
    _expm_evolution,
    _rk4,
    beating_period,
    center_of_mass,
    coupled_mode_matrix,
    propagate,
)

J = 0.045
D = 1.4


def lattice(pattern, n_sites=40, re_beta=0.0):
    return LatticeSpec(
        n_sites=n_sites, hopping_J=J, spacing_d=D, pattern=pattern, re_beta=re_beta
    )


def single_lossy_guide(im_beta=0.1, re_beta=6.6):
    # one waveguide with on-site absorption Im(beta)
    pattern = LossPattern.custom([-1j * im_beta / J, 0, 0, 0])
    return LatticeSpec(
        n_sites=1, hopping_J=J, spacing_d=D, pattern=pattern, re_beta=re_beta
    )


class TestExcitation:
    def test_edge_resolves_to_first_site(self):
        exc = Excitation.resolve("edge", lattice(LossPattern.lossless()))
        assert exc.site == 1

    def test_interface_site(self):
        base = lattice(LossPattern.lossless(), n_sites=4)
        iface = interface_lattice(
            LossPattern.trivial(1.1), LossPattern.topological(1.1), 6, 6, base
        )
        assert Excitation.resolve("interface", iface).site == 25

    def test_interface_requires_interface_lattice(self):
        with pytest.raises(ConfigurationError):
            Excitation.resolve("interface", lattice(LossPattern.lossless()))

    def test_bulk_cell_start(self):
        exc = Excitation.resolve("bulk_cell_start", lattice(LossPattern.trivial(1.1)))
        # centermost cell of 10 is cell index 5, first site 21 (1-based)
        assert exc.site == 21

    def test_bulk_needs_room(self):
        with pytest.raises(ConfigurationError):
            Excitation.resolve("bulk_cell_start", lattice(LossPattern.lossless(), n_sites=12))

    def test_site_index_bounds(self):
        with pytest.raises(ConfigurationError):
            Excitation.resolve("site_index", lattice(LossPattern.lossless()), site=41)


class TestPropagate:
    def test_single_guide_analytic_decay(self):
        spec = single_lossy_guide(0.1)
        field = propagate(spec, Excitation.resolve("edge", spec), z_max=10.0, dz=0.01)
        z, intensity = field.site_trace(1)
        assert np.abs(intensity - np.exp(-0.2 * z)).max() < 1e-10

    def test_two_guide_revival(self):
        spec = LatticeSpec(
            n_sites=2, hopping_J=J, spacing_d=D,
            pattern=LossPattern.lossless(), re_beta=0.0,
        )
        field = propagate(spec, Excitation.resolve("edge", spec), z_max=100.0, dz=0.01)
        z, intensity = field.site_trace(1)
        assert np.abs(intensity - np.cos(J * z) ** 2).max() < 1e-12
        i_revival = int(round(np.pi / J / 0.01))
        assert intensity[i_revival] > 1 - 1e-6

    def test_initial_condition_matches_excitation(self):
        spec = lattice(LossPattern.topological(1.1))
        exc = Excitation.resolve("site_index", spec, site=7, amplitude=0.5 + 0.25j)
        field = propagate(spec, exc, z_max=1.0, dz=0.01)
        expected = np.zeros(40, dtype=complex)
        expected[6] = 0.5 + 0.25j
        assert np.abs(field.amplitudes[0] - expected).max() < 1e-12

    def test_edge_state_stays_locked(self):
        # regression value 0.7332 recorded from this simulation
        spec = lattice(LossPattern.topological(1.1), n_sites=48, re_beta=6.6)
        field = propagate(spec, Excitation.resolve("edge", spec), z_max=50.0)
        intens = field.intensities()
        fraction = intens[:, 0] / intens.sum(axis=1)
        assert fraction.min() > 0.5
        assert fraction.min() == pytest.approx(0.7332, abs=2e-3)

    def test_lossless_norm_conservation_rk4(self):
        spec = lattice(LossPattern.lossless(), re_beta=6.6)
        field = propagate(
            spec, Excitation.resolve("bulk_cell_start", spec),
            z_max=100.0, dz=0.01, method="rk4",
        )
        totals = field.intensities().sum(axis=1)
        assert np.abs(totals - 1.0).max() < 1e-9

    def test_dissipation_rate_balance(self):
        # d/dz sum|a|^2 = -2 sum Im(beta_j) |a_j|^2, checked with a
        # 5-point fourth-order stencil
        spec = lattice(LossPattern.topological(1.1), n_sites=16)
        field = propagate(
            spec, Excitation.resolve("edge", spec), z_max=20.0, dz=0.01, method="rk4"
        )
        intens = field.intensities()
        totals = intens.sum(axis=1)
        im_beta = -(spec.hopping_J * spec.onsite_values().imag)
        rate = -2.0 * (intens * im_beta[None, :]).sum(axis=1)
        dz = 0.01
        d_tot = (-totals[4:] + 8 * totals[3:-1] - 8 * totals[1:-3] + totals[:-4]) / (12 * dz)
        assert np.abs(d_tot - rate[2:-2]).max() < 1e-10

    def test_rk4_matches_expm(self):
        spec = lattice(LossPattern.topological(1.1), n_sites=48, re_beta=6.6)
        exc = Excitation.resolve("edge", spec)
        a = propagate(spec, exc, z_max=50.0, dz=0.01, method="rk4").intensities()
        b = propagate(spec, exc, z_max=50.0, dz=0.01, method="expm").intensities()
        scale = np.abs(b).max()
        assert np.abs(a - b).max() / scale < 1e-8

    def test_rk4_fourth_order_convergence(self):
        # step sizes chosen large enough that truncation dominates roundoff
        spec = lattice(LossPattern.topological(1.1), n_sites=24, re_beta=6.6)
        exc = Excitation.resolve("edge", spec)
        ref = propagate(spec, exc, z_max=40.0, dz=0.4, method="expm").intensities()[::1]
        err = {}
        for dz, stride in ((0.4, 1), (0.2, 2)):
            out = propagate(spec, exc, z_max=40.0, dz=dz, method="rk4").intensities()
            err[dz] = np.abs(out[::stride] - ref).max()
        ratio = err[0.4] / err[0.2]
        assert 8 <= ratio <= 32

    def test_step_size_guard(self):
        spec = lattice(LossPattern.topological(1.1), n_sites=24, re_beta=6.6)
        with pytest.raises(StepSizeError):
            propagate(spec, Excitation.resolve("edge", spec), z_max=10.0, dz=2.0)

    def test_runtime_instability_detection(self):
        # drive the fixed-step kernel past its stability region directly;
        # spurious growth in a purely lossy lattice must be caught
        spec = lattice(LossPattern.topological(1.1), n_sites=24, re_beta=0.0)
        m = coupled_mode_matrix(spec)
        a0 = np.zeros(24, dtype=complex)
        a0[0] = 1.0
        with pytest.raises(StepSizeError):
            _rk4(m, a0, n_steps=200, dz=40.0)

    def test_expm_falls_back_on_defective_generator(self):
        # a single Jordan block: exp(i m z) a0 = e^(-0.05 z) (0.045 i z, 1)
        m = np.array([[0.05j, 0.045], [0.0, 0.05j]])
        w, v = np.linalg.eig(m)
        assert np.linalg.cond(v) > 1e8
        z = np.arange(101) * 0.5
        out = _expm_evolution(m, np.array([0.0, 1.0 + 0j]), z, 0.5)
        decay = np.exp(-0.05 * z)
        assert np.abs(out - np.column_stack([0.045j * z * decay, decay])).max() < 1e-12

    @pytest.mark.parametrize("n_z", [300, 2049, 2500])
    def test_blocked_expm_matches_one_shot_product(self, n_z):
        # below one block, a one-column leftover, several blocks and a remainder
        m = coupled_mode_matrix(lattice(LossPattern.topological(1.1), n_sites=40))
        a0 = np.zeros(40, dtype=complex)
        a0[0] = 1.0
        w, v = np.linalg.eig(m)
        coeff = np.linalg.solve(v, a0)
        z = np.arange(n_z) * 0.01
        one_shot = v @ (np.exp(1j * w[:, None] * z[None, :]) * coeff[:, None])
        assert np.array_equal(_expm_evolution(m, a0, z, 0.01), one_shot.T)

    def test_unknown_method(self):
        spec = lattice(LossPattern.lossless(), n_sites=8)
        with pytest.raises(ConfigurationError):
            propagate(spec, Excitation.resolve("edge", spec), method="euler")

    def test_intensity_only_fields(self):
        spec = lattice(LossPattern.lossless(), n_sites=8)
        field = FieldEvolution.from_intensity([0.0, 0.1], np.ones((2, 8)), spec)
        assert not field.has_phase
        assert np.array_equal(field.intensities(), np.ones((2, 8)))

    @pytest.mark.parametrize("method", ["rk4", "expm"])
    def test_intensities_of_some_rows(self, method):
        spec = lattice(LossPattern.topological(1.1), n_sites=12, re_beta=6.6)
        field = propagate(spec, Excitation.resolve("edge", spec), z_max=5.0, dz=0.1,
                          method=method)
        full = field.intensities()
        assert np.array_equal(field.intensities(slice(0, None, 7)), full[::7])
        assert np.array_equal(field.intensities(-1), full[-1])
        assert np.array_equal(field.site_trace(3)[1], full[:, 2])


class TestCenterOfMass:
    def test_single_site_is_constant(self):
        spec = single_lossy_guide(0.05, re_beta=0.0)
        field = propagate(spec, Excitation.resolve("edge", spec), z_max=5.0)
        com = center_of_mass(field)
        assert np.allclose(com[:, 1], 0.0)

    def test_lossless_bulk_spread_is_symmetric(self):
        spec = lattice(LossPattern.lossless(), n_sites=41)
        exc = Excitation.resolve("site_index", spec, site=21)
        field = propagate(spec, exc, z_max=30.0)
        com = center_of_mass(field)
        assert np.abs(com[:, 1] - 20 * D).max() < 1e-9

    def test_phase_ii_bulk_oscillates_to_low_loss_neighbor(self):
        spec = lattice(LossPattern.trivial(1.1))
        exc = Excitation.resolve("bulk_cell_start", spec)
        field = propagate(spec, exc, z_max=100.0)
        com = center_of_mass(field)
        x_exc = (exc.site - 1) * D
        # the partner low-loss guide sits one spacing above the excited one
        assert com[:, 1].min() > x_exc - 0.05 * D
        assert com[:, 1].max() > x_exc + 0.7 * D
        assert com[:, 1].max() < x_exc + 1.3 * D

    def test_truncation_on_underflow(self):
        spec = lattice(LossPattern.lossless(), n_sites=4)
        field = FieldEvolution.from_intensity(
            [0.0, 1.0, 2.0],
            np.array([[1.0, 0, 0, 0], [1e-310, 0, 0, 0], [0.0, 0, 0, 0]]),
            spec,
        )
        com = center_of_mass(field)
        assert com.shape[0] == 1


class TestBeating:
    def test_phase_iii_edge_has_no_beating(self):
        spec = lattice(LossPattern.topological(1.1))
        res = beating_period(spec, Excitation.resolve("edge", spec))
        assert not res.beating
        assert res.simulated_period is None

    def test_phase_ii_bulk_period_matches_band_splitting(self):
        # cross-module oracle: band-mean splitting from the Bloch spectrum
        spec = lattice(LossPattern.trivial(1.1))
        res = beating_period(spec, Excitation.resolve("bulk_cell_start", spec))
        assert res.beating
        assert res.simulated_period == pytest.approx(res.predicted_period, rel=0.10)

    def test_period_grows_with_loss(self):
        periods = []
        for g in (1.1, 1.5, 2.0):
            spec = lattice(LossPattern.trivial(g))
            res = beating_period(spec, Excitation.resolve("bulk_cell_start", spec))
            assert res.beating
            periods.append(res.simulated_period)
        assert periods[0] < periods[1] < periods[2]

    def test_phase_iii_bulk_beats_like_phase_ii(self):
        spec = lattice(LossPattern.topological(1.1))
        res = beating_period(spec, Excitation.resolve("bulk_cell_start", spec))
        assert res.beating
        assert res.simulated_period == pytest.approx(res.predicted_period, rel=0.10)
