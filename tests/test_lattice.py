import numpy as np
import pytest

from nhlattice.errors import ConfigurationError
from nhlattice.lattice import (
    LatticeSpec,
    LossPattern,
    bloch_hamiltonian,
    cell_diagonal,
    chain_matrix,
    interface_lattice,
    real_space_hamiltonian,
)

J = 0.045
D = 1.4


def uniform_spec(pattern, n_sites=40, re_beta=0.0, J=J, d=D):
    return LatticeSpec(
        n_sites=n_sites, hopping_J=J, spacing_d=d, pattern=pattern, re_beta=re_beta
    )


class TestLossPattern:
    def test_lossless_cell_is_zero(self):
        assert np.allclose(cell_diagonal(LossPattern.lossless()), 0.0)

    def test_topological_preset_matches_pattern(self):
        # symmetric g0=g1=g2=1.1 collapses to -2.2i*(0,1,1,0)
        cell = cell_diagonal(LossPattern.topological(1.1))
        assert np.allclose(cell, -2.2j * np.array([0, 1, 1, 0]))

    def test_trivial_preset_matches_pattern(self):
        # g0=g1=|g2|=1.1 with g2=-1.1 collapses to -2.2i*(0,0,1,1)
        cell = cell_diagonal(LossPattern.trivial(1.1))
        assert np.allclose(cell, -2.2j * np.array([0, 0, 1, 1]))

    def test_general_formula(self):
        pat = LossPattern.from_g(0.9, 0.5, 0.4)
        g0, g1, g2 = 0.9, 0.5, 0.4
        expected = np.array(
            [1j * g1 - 1j * g0, -1j * g2 - 1j * g0, -1j * g1 - 1j * g0, 1j * g2 - 1j * g0]
        )
        assert np.allclose(cell_diagonal(pat), expected)

    def test_custom_keeps_global_loss(self):
        pat = LossPattern.custom([1j, 0, 0, -0.5j], g0=0.2)
        assert np.allclose(cell_diagonal(pat), [0.8j, -0.2j, -0.2j, -0.7j])

    def test_custom_without_cell_rejected(self):
        with pytest.raises(ConfigurationError):
            LossPattern(phase="custom", g0=0.0)

    def test_cell_on_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            LossPattern(phase="I", custom_cell=(0, 0, 0, 0))

    def test_phase_sign_consistency(self):
        with pytest.raises(ConfigurationError):
            LossPattern(phase="III", g0=1.0, g1=1.0, g2=-1.0)
        with pytest.raises(ConfigurationError):
            LossPattern(phase="II", g0=1.0, g1=1.0, g2=1.0)
        with pytest.raises(ConfigurationError):
            LossPattern(phase="I", g0=0.5)

    @pytest.mark.parametrize("g0,g1,g2", [
        (np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0), (1.0, np.nan, 1.0), (1.0, 1.0, -np.inf),
    ])
    def test_rejects_non_finite(self, g0, g1, g2):
        with pytest.raises(ConfigurationError):
            LossPattern(phase="III", g0=g0, g1=g1, g2=g2)

    @pytest.mark.parametrize("cell", [[np.nan, 0, 0, 0], [0, complex(0, np.inf), 0, 0]])
    def test_custom_cell_rejects_non_finite(self, cell):
        with pytest.raises(ConfigurationError):
            LossPattern.custom(cell)

    @pytest.mark.parametrize("g0,g1,g2", [(1.0, 1.0, 1.0), (1.3, 0.8, -1.1), (2.0, -1.5, -0.5)])
    def test_purely_dissipative_when_g0_dominates(self, g0, g1, g2):
        # g0 >= max(|g1|, |g2|) guarantees non-positive on-site imaginary parts
        cell = cell_diagonal(LossPattern.from_g(g0, g1, g2))
        assert np.all(cell.imag <= 1e-15)


class TestBlochHamiltonian:
    def test_lossless_k0_structure(self):
        spec = uniform_spec(LossPattern.lossless(), n_sites=4)
        h = bloch_hamiltonian(0.0, spec)
        expected = np.array(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]],
            dtype=complex,
        )
        assert np.allclose(h, expected)

    def test_lossless_dispersion_folds_uniform_chain(self):
        # oracle: the uniform-chain band 2J*cos(q d) folded into the 4-site
        # zone gives 2J*cos(k d + m*pi/2), m = 0..3
        spec = uniform_spec(LossPattern.lossless(), n_sites=4)
        for k in (0.1, 0.37, 0.9):
            h = bloch_hamiltonian(k, spec, units="1/um")
            got = np.sort(np.linalg.eigvals(h).real)
            expected = np.sort([2 * J * np.cos(k * D + m * np.pi / 2) for m in range(4)])
            assert np.allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("g0", [0.0, 0.7, 1.1])
    def test_trace_is_global_loss(self, g0):
        pattern = (
            LossPattern.lossless() if g0 == 0 else LossPattern.from_g(g0, g0, g0)
        )
        spec = uniform_spec(pattern, n_sites=4)
        for k in (0.0, 0.23, 1.1):
            h = bloch_hamiltonian(k, spec, units="1/um")
            assert np.isclose(np.trace(h), -4j * J * g0, atol=1e-15)

    def test_zone_periodicity_of_eigenvalues(self):
        spec = uniform_spec(LossPattern.topological(1.1), n_sites=4)
        period = np.pi / (2 * D)
        for k in (0.05, 0.4):
            w1 = np.linalg.eigvals(bloch_hamiltonian(k, spec))
            w2 = np.linalg.eigvals(bloch_hamiltonian(k + period, spec))
            for val in w1:
                assert np.min(np.abs(w2 - val)) < 1e-10

    def test_units_scaling(self):
        spec = uniform_spec(LossPattern.topological(0.7), n_sites=4)
        h_j = bloch_hamiltonian(0.2, spec, units="J")
        h_um = bloch_hamiltonian(0.2, spec, units="1/um")
        assert np.allclose(h_um, J * h_j)

    def test_interface_lattice_has_no_bloch_form(self):
        base = uniform_spec(LossPattern.lossless(), n_sites=4)
        iface = interface_lattice(
            LossPattern.trivial(1.1), LossPattern.topological(1.1), 2, 2, base
        )
        with pytest.raises(ConfigurationError):
            bloch_hamiltonian(0.0, iface)


class TestRealSpaceHamiltonian:
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_chain_matrix_is_diag_plus_hopping(self, n):
        beta = np.arange(n) - 0.5j * np.arange(n)
        expected = np.diag(beta) + J * (np.eye(n, k=1) + np.eye(n, k=-1))
        h = chain_matrix(beta, J)
        assert h.dtype == complex
        assert np.array_equal(h, expected)

    def test_two_site_coupler(self):
        spec = LatticeSpec(
            n_sites=2, hopping_J=J, spacing_d=D,
            pattern=LossPattern.lossless(), re_beta=0.0,
        )
        h = real_space_hamiltonian(spec)
        assert np.allclose(h, [[0, J], [J, 0]])

    def test_phase_iii_diagonal_tiling(self):
        # arithmetic oracle: Im(beta) = 2*g*J = 2*1.1*0.045 = 0.099 on the
        # two lossy sites of each cell
        spec = uniform_spec(LossPattern.topological(1.1), n_sites=40)
        diag = np.diag(real_space_hamiltonian(spec))
        expected = np.tile([0.0, -0.099, -0.099, 0.0], 10)
        assert np.allclose(diag.imag, expected, atol=1e-15)
        assert np.allclose(diag.real, 0.0)

    def test_re_beta_enters_diagonal(self):
        spec = uniform_spec(LossPattern.lossless(), n_sites=8, re_beta=6.6)
        diag = np.diag(real_space_hamiltonian(spec))
        assert np.allclose(diag.real, 6.6)

    def test_truncated_cell(self):
        spec = uniform_spec(LossPattern.topological(1.0), n_sites=6)
        diag = np.diag(real_space_hamiltonian(spec)).imag / J
        assert np.allclose(diag, [0, -2, -2, 0, 0, -2])

    def test_hermitian_iff_lossless(self):
        h0 = real_space_hamiltonian(uniform_spec(LossPattern.lossless(), 12))
        assert np.allclose(h0, h0.conj().T)
        h1 = real_space_hamiltonian(uniform_spec(LossPattern.topological(1.1), 12))
        assert not np.allclose(h1, h1.conj().T)

    @pytest.mark.parametrize(
        "pattern",
        [LossPattern.topological(1.1), LossPattern.trivial(0.7), LossPattern.lossless()],
    )
    def test_bendixson_bound_on_imaginary_parts(self, pattern):
        # the hopping part is Hermitian, so Im(E) is bounded by the diagonal
        spec = uniform_spec(pattern, n_sites=40)
        h = real_space_hamiltonian(spec)
        diag_im = np.diag(h).imag
        eig_im = np.linalg.eigvals(h).imag
        assert eig_im.min() >= diag_im.min() - 1e-12
        assert eig_im.max() <= diag_im.max() + 1e-12

    def test_lossless_spectrum_real(self):
        spec = uniform_spec(LossPattern.lossless(), n_sites=40, re_beta=6.6)
        eig = np.linalg.eigvals(real_space_hamiltonian(spec))
        assert np.abs(eig.imag).max() < 1e-12


class TestInterfaceLattice:
    def base(self):
        return uniform_spec(LossPattern.lossless(), n_sites=4)

    def test_sites_and_interface_index(self):
        iface = interface_lattice(
            LossPattern.trivial(1.1), LossPattern.topological(1.1), 6, 6, self.base()
        )
        assert iface.n_sites == 48
        assert iface.interface_index == 25

    def test_lossless_join_equals_uniform_chain(self):
        iface = interface_lattice(
            LossPattern.lossless(), LossPattern.lossless(), 3, 3, self.base()
        )
        h_iface = real_space_hamiltonian(iface)
        h_plain = real_space_hamiltonian(
            uniform_spec(LossPattern.lossless(), n_sites=24)
        )
        assert np.allclose(h_iface, h_plain)

    def test_onsite_values_at_g07(self):
        # lossy sites carry -2*0.7*J; arithmetic oracle
        iface = interface_lattice(
            LossPattern.trivial(0.7), LossPattern.topological(0.7), 2, 2, self.base()
        )
        onsite = iface.onsite_values() * J
        lossy = np.abs(onsite.imag + 2 * 0.7 * J) < 1e-15
        assert lossy.sum() == 8
        expected_pattern = [0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0]
        assert np.array_equal(lossy.astype(int), expected_pattern)

    def test_zero_cells_rejected(self):
        with pytest.raises(ConfigurationError):
            interface_lattice(
                LossPattern.trivial(1.0), LossPattern.topological(1.0), 0, 3, self.base()
            )


class TestLatticeSpec:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            LatticeSpec(n_sites=0, hopping_J=J, spacing_d=D, pattern=LossPattern.lossless())
        with pytest.raises(ConfigurationError):
            LatticeSpec(n_sites=4, hopping_J=-1, spacing_d=D, pattern=LossPattern.lossless())

    @pytest.mark.parametrize("field", ["hopping_J", "spacing_d", "re_beta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        kwargs = dict(n_sites=4, hopping_J=J, spacing_d=D, re_beta=6.6)
        kwargs[field] = value
        with pytest.raises(ConfigurationError):
            LatticeSpec(pattern=LossPattern.lossless(), **kwargs)
