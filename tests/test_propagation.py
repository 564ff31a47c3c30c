import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhlattice.errors import ConfigurationError, StepSizeError
from nhlattice.lattice import LatticeSpec, LossPattern, interface_lattice
from nhlattice.propagation import (
    EIGENBASIS_MAX_COND,
    STABILITY_FACTOR,
    Excitation,
    _expm_evolution,
    _rk4,
    coupled_mode_matrix,
    propagate,
)
from nhlattice.spectral import eig_full

J = 0.045
D = 1.4


def lattice(pattern, n_sites=40, re_beta=0.0):
    return LatticeSpec(
        n_sites=n_sites, hopping_J=J, spacing_d=D, pattern=pattern, re_beta=re_beta
    )


def kept_steps(n_steps, save_every):
    """Steps 0, s, 2s, ... and the last step, written out independently."""
    keep = list(range(0, n_steps + 1, save_every))
    if keep[-1] != n_steps:
        keep.append(n_steps)
    return np.array(keep)


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
        iface = interface_lattice(
            LossPattern.trivial(1.1), LossPattern.topological(1.1), 6, 6, J, D
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

    @pytest.mark.parametrize("kind", ["edge", "bulk_cell_start", "interface"])
    def test_site_only_for_site_index(self, kind):
        iface = interface_lattice(
            LossPattern.trivial(1.1), LossPattern.topological(1.1), 6, 6, J, D
        )
        with pytest.raises(ConfigurationError, match="takes a site"):
            Excitation.resolve(kind, iface, site=7)


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
        with pytest.raises(StepSizeError) as err:
            _rk4(m, a0, np.array([0, 200]), dz=40.0)
        assert err.value.diagnostics["step"] == 1

    def test_rk4_checks_steps_it_does_not_record(self):
        # at dz = 27 the total intensity of this launch first grows on step 6;
        # the check must catch it there however few steps are recorded
        spec = lattice(LossPattern.topological(1.1), n_sites=24, re_beta=0.0)
        m = coupled_mode_matrix(spec)
        a0 = np.zeros(24, dtype=complex)
        a0[0] = 1.0
        with pytest.raises(StepSizeError) as every:
            _rk4(m, a0, np.arange(201), dz=27.0)
        assert every.value.diagnostics["step"] == 6
        _rk4(m, a0, np.array([0, 5]), dz=27.0)  # no growth up to step 5
        for keep in ([0, 200], [0, 4, 8, 200], [0, 5, 7]):
            with pytest.raises(StepSizeError) as sparse:
                _rk4(m, a0, np.array(keep), dz=27.0)
            assert sparse.value.diagnostics == every.value.diagnostics

    def test_expm_falls_back_on_defective_generator(self):
        # a complex-symmetric exceptional point: n = [[0.045i, 0.045],
        # [0.045, -0.045i]] squares to zero, so with m = 0.05i + n,
        # exp(i m z) a0 = e^(-0.05 z) (a0 + i z n a0)
        n = np.array([[0.045j, 0.045], [0.045, -0.045j]])
        m = 0.05j * np.eye(2) + n
        assert eig_full(m).condition_numbers.max() > EIGENBASIS_MAX_COND
        a0 = np.array([0.0, 1.0 + 0j])
        z = np.arange(101) * 0.5
        out = _expm_evolution(m, a0, np.arange(101), 0.5)
        exact = np.exp(-0.05 * z)[:, None] * (a0 + 1j * z[:, None] * (n @ a0))
        assert np.abs(out - exact).max() < 1e-12
        # the fallback steps through every sample and records only the kept ones
        for save_every in range(1, 102):
            keep = kept_steps(100, save_every)
            assert np.array_equal(_expm_evolution(m, a0, keep, 0.5), out[keep])

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
        assert np.array_equal(_expm_evolution(m, a0, np.arange(n_z), 0.01), one_shot.T)

    def test_unknown_method(self):
        spec = lattice(LossPattern.lossless(), n_sites=8)
        with pytest.raises(ConfigurationError):
            propagate(spec, Excitation.resolve("edge", spec), method="euler")

    @pytest.mark.parametrize("method", ["rk4", "expm"])
    def test_intensities_of_some_rows(self, method):
        spec = lattice(LossPattern.topological(1.1), n_sites=12, re_beta=6.6)
        field = propagate(spec, Excitation.resolve("edge", spec), z_max=5.0, dz=0.1,
                          method=method)
        full = field.intensities()
        assert np.array_equal(field.intensities(slice(0, None, 7)), full[::7])
        assert np.array_equal(field.intensities(-1), full[-1])
        assert np.array_equal(field.site_trace(3)[1], full[:, 2])

    def test_save_every_must_be_positive(self):
        spec = lattice(LossPattern.lossless(), n_sites=8)
        with pytest.raises(ConfigurationError, match="save_every"):
            propagate(spec, Excitation.resolve("edge", spec), save_every=0)


@st.composite
def steps_and_save_every(draw):
    """Up to 2600 steps (three z blocks), and a save_every that divides the
    step count or any one from 1 to one past it."""
    n_steps = draw(st.integers(1, 2600))
    divisors = [s for s in range(1, n_steps + 1) if n_steps % s == 0]
    return n_steps, draw(st.one_of(st.sampled_from(divisors), st.integers(1, n_steps + 1)))


class TestKeptSamples:
    @settings(deadline=None, max_examples=40)
    @given(method=st.sampled_from(["expm", "rk4"]), n_sites=st.sampled_from([12, 48]),
           grid=steps_and_save_every())
    @example(method="expm", n_sites=48, grid=(2500, 3))
    @example(method="rk4", n_sites=12, grid=(2049, 16))
    def test_kept_rows_equal_full_rows(self, method, n_sites, grid):
        # lossy sites with a global phase
        n_steps, save_every = grid
        spec = lattice(LossPattern.topological(1.1), n_sites=n_sites, re_beta=6.6)
        exc = Excitation.resolve("edge", spec)
        z_max, dz = n_steps * 0.01, 0.01
        full = propagate(spec, exc, z_max, dz, method)
        kept = propagate(spec, exc, z_max, dz, method, save_every=save_every)
        keep = kept_steps(n_steps, save_every)
        assert full.z_grid.size == n_steps + 1
        assert np.array_equal(kept.z_grid, full.z_grid[keep])
        assert np.array_equal(kept.amplitudes, full.amplitudes[keep])
        assert np.array_equal(kept.amplitudes[-1], full.amplitudes[-1])


# on-site terms with Im <= 0 in the Hamiltonian: every site absorbs or is lossless
lossy_cells = st.lists(
    st.builds(complex, st.floats(-2.0, 2.0), st.floats(-3.0, 0.0)), min_size=4, max_size=4
)
lossy_patterns = st.one_of(
    st.just(LossPattern.lossless()),
    st.floats(0.05, 3.0).map(LossPattern.trivial),
    st.floats(0.05, 3.0).map(LossPattern.topological),
    st.builds(LossPattern.custom, lossy_cells, g0=st.floats(0.0, 3.0)),
)


class TestLossyPropagation:
    @settings(deadline=None, max_examples=20)
    @given(
        left=lossy_patterns, right=lossy_patterns,
        n_left=st.integers(1, 6), n_right=st.integers(1, 6), site=st.integers(1, 48),
    )
    def test_expm_never_gains_intensity(self, left, right, n_left, n_right, site):
        spec = interface_lattice(left, right, n_left, n_right, J, D, re_beta=0.0)
        exc = Excitation.resolve("site_index", spec, site=min(site, spec.n_sites))
        totals = propagate(spec, exc, z_max=20.0, dz=0.1).intensities().sum(axis=1)
        assert np.all(totals[1:] <= totals[:-1] * (1.0 + 1e-12))


def dense_rk4(m_rot, a0, n_steps, dz):
    """Classical rk4 with the generator applied as a dense matrix."""
    gen = 1j * m_rot
    out = [a0]
    a = a0
    for _ in range(n_steps):
        k1 = gen @ a
        k2 = gen @ (a + 0.5 * dz * k1)
        k3 = gen @ (a + 0.5 * dz * k2)
        k4 = gen @ (a + dz * k3)
        a = a + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(a)
    return np.array(out)


class TestRk4Stencil:
    @settings(deadline=None, max_examples=6)
    @given(
        left=lossy_patterns, right=lossy_patterns,
        n_left=st.integers(1, 6), n_right=st.integers(1, 6), site=st.integers(1, 48),
    )
    def test_matches_dense_rk4(self, left, right, n_left, n_right, site):
        spec = interface_lattice(left, right, n_left, n_right, J, D, re_beta=0.0)
        m_rot = coupled_mode_matrix(spec)
        dz = STABILITY_FACTOR / np.linalg.norm(m_rot, 2)
        a0 = np.zeros(spec.n_sites, dtype=complex)
        a0[min(site, spec.n_sites) - 1] = 1.0
        ref = dense_rk4(m_rot, a0, 300, dz)
        out = _rk4(m_rot, a0, np.arange(301), dz)
        assert np.abs(out - ref).max() <= 1e-14 * np.abs(ref).max()
