import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from nhlattice import spectral
from nhlattice.errors import ConfigurationError, ModeTrackingError
from nhlattice.lattice import (
    LatticeSpec,
    LossPattern,
    bloch_hamiltonian,
    interface_lattice,
    real_space_hamiltonian,
)
from nhlattice.spectral import (
    eig_full,
    ep_sweep,
    _rayleigh_quotient_iteration,
    _scaled_interface,
    find_zero_modes,
)

J = 0.045
D = 1.4


def lattice(pattern, n_sites=40, re_beta=0.0):
    return LatticeSpec(
        n_sites=n_sites, hopping_J=J, spacing_d=D, pattern=pattern, re_beta=re_beta
    )


def ii_iii_interface(g, n_cells=6, re_beta=0.0):
    base = lattice(LossPattern.lossless(), n_sites=4, re_beta=re_beta)
    return interface_lattice(
        LossPattern.trivial(g), LossPattern.topological(g), n_cells, n_cells, base
    )


amplitudes = st.floats(0.05, 3.0)
patterns = st.one_of(
    st.just(LossPattern.lossless()),
    amplitudes.map(LossPattern.trivial),
    amplitudes.map(LossPattern.topological),
    st.builds(
        LossPattern.custom,
        st.lists(st.complex_numbers(max_magnitude=3.0), min_size=4, max_size=4),
        g0=st.floats(0.0, 3.0),
    ),
)
# with re_beta = 0, H is J times a dimensionless matrix, so J stays fixed
lattices = st.one_of(
    st.builds(lambda p, n: lattice(p, n_sites=n), patterns, st.integers(2, 48)),
    st.builds(
        lambda left, right, n_left, n_right: interface_lattice(
            left, right, n_left, n_right, lattice(LossPattern.lossless(), n_sites=4)
        ),
        patterns, patterns, st.integers(1, 6), st.integers(1, 6),
    ),
)


class TestComplexSymmetricDomain:
    @settings(deadline=None, max_examples=25)
    @given(spec=lattices)
    def test_chain_is_symmetric_tridiagonal(self, spec):
        h = real_space_hamiltonian(spec).matrix
        assert np.array_equal(h, h.T)
        assert np.array_equal(h, np.triu(np.tril(h, 1), -1))
        assert eig_full(h).dimension == spec.n_sites

    @settings(deadline=None, max_examples=25)
    @given(spec=lattices)
    def test_c_product_condition_matches_left_solve(self, spec):
        # reference: unit-norm left vectors from a separate left solve
        h = real_space_hamiltonian(spec).matrix
        spec_full = eig_full(h)
        w_ref, vl, vr = sla.eig(h, left=True, right=True)
        cond_ref = (np.linalg.norm(vl, axis=0) * np.linalg.norm(vr, axis=0)
                    / np.abs(np.einsum("ij,ij->j", vl.conj(), vr)))
        w = spec_full.eigenvalues
        dist = np.abs(w[:, None] - w[None, :])
        np.fill_diagonal(dist, np.inf)
        gap = dist.min(axis=1)
        match = np.abs(w[:, None] - w_ref[None, :]).argmin(axis=1)
        rel = np.abs(spec_full.condition_numbers / cond_ref[match] - 1.0)
        assert np.max(rel * gap / np.linalg.norm(h, 2)) <= 1e-13


class TestEigFull:
    def test_diagonal_matrix(self):
        spec = eig_full(np.diag([1 + 2j, 3 + 0j]))
        assert np.allclose(np.sort_complex(spec.eigenvalues), [1 + 2j, 3])
        for i in range(2):
            v = np.abs(spec.right_vectors[:, i])
            assert np.isclose(v.max(), 1.0) and np.isclose(v.min(), 0.0)

    def test_symmetric_coupler(self):
        spec = eig_full(np.array([[0, J], [J, 0]]))
        assert np.allclose(np.sort(spec.eigenvalues.real), [-J, J])
        for i in range(2):
            assert np.allclose(np.abs(spec.right_vectors[:, i]), 1 / np.sqrt(2))

    def test_phase_iii_imaginary_parts_in_bendixson_range(self):
        # oracle: diagonal imaginary parts bound Im(E) since hopping is Hermitian
        g = 1.1
        spec = eig_full(real_space_hamiltonian(lattice(LossPattern.topological(g))))
        assert np.all(spec.eigenvalues.imag <= 1e-12)
        assert np.all(spec.eigenvalues.imag >= -2 * g * J - 1e-12)

    def test_left_vectors_belong_to_adjoint(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        m = m + m.T
        spec = eig_full(m)
        resid = m.conj().T @ spec.left_vectors - spec.left_vectors * spec.eigenvalues.conj()
        assert np.abs(resid).max() < 1e-12

    def test_eigenvalue_sum_matches_trace(self):
        rng = np.random.default_rng(11)
        for n in (5, 20, 60):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m = m + m.T
            spec = eig_full(m)
            assert abs(spec.eigenvalues.sum() - np.trace(m)) < 1e-9 * abs(np.trace(m)) + 1e-9

    def test_residual_contract(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        m = m + m.T
        spec = eig_full(m)
        resid = np.linalg.norm(m @ spec.right_vectors - spec.right_vectors * spec.eigenvalues, axis=0)
        assert resid.max() <= 1e-9 * np.linalg.norm(m)

    def test_pseudospectral_stability(self):
        # eigenvalues move at most cond * ||dH|| to first order
        rng = np.random.default_rng(5)
        m = rng.normal(size=(16, 16))
        m = m + m.T  # real symmetric, so well conditioned
        spec = eig_full(m)
        dh = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        dh = dh + dh.T
        eps = 1e-8 * np.linalg.norm(m) / np.linalg.norm(dh)
        pert = eig_full(m + eps * dh)
        move = np.abs(
            np.sort_complex(pert.eigenvalues) - np.sort_complex(spec.eigenvalues)
        )
        bound = spec.condition_numbers.max() * eps * np.linalg.norm(dh) * 1.01
        assert move.max() <= bound

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            eig_full(np.zeros((2, 3)))
        with pytest.raises(ConfigurationError):
            eig_full(np.array([[np.inf, 0], [0, 1]]))


class TestBiorthonormalize:
    """The derived left vectors conj(r / r^T r) are biorthonormal to the right ones."""

    def test_hermitian_left_equals_right(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(8, 8))
        m = m + m.T
        spec = eig_full(m)
        overlap = spec.left_vectors.conj().T @ spec.right_vectors
        assert np.abs(overlap - np.eye(8)).max() < 1e-10
        # left and right span the same one-dimensional eigenspaces
        for i in range(8):
            c = spec.left_vectors[:, i].conj() @ spec.right_vectors[:, i]
            assert np.isclose(abs(c), 1.0, atol=1e-10)

    def test_bloch_matrix_overlaps(self):
        # direct overlap-matrix oracle on a cleanly diagonalizable Bloch
        # point; at k = 0 the corner phases are 1 and the matrix is symmetric
        spec_lat = lattice(LossPattern.topological(1.1), n_sites=4)
        h = bloch_hamiltonian(0.0, spec_lat).matrix
        spec = eig_full(h)
        overlap = spec.left_vectors.conj().T @ spec.right_vectors
        assert np.abs(overlap - np.eye(4)).max() < 1e-10

    def test_phase_iii_chain_overlaps(self):
        # the edge pair's gap (6.5e-8 J) limits the off-diagonal overlap
        h = real_space_hamiltonian(lattice(LossPattern.topological(1.1)))
        spec = eig_full(h)
        overlap = spec.left_vectors.conj().T @ spec.right_vectors
        assert np.abs(overlap - np.eye(40)).max() < 1e-9

    def test_exceptional_bloch_point_is_defective(self):
        # at g0=g1=g2=1 the k=0 Bloch matrix has two exact exceptional
        # points (double eigenvalues with one eigenvector each)
        spec_lat = lattice(LossPattern.topological(1.0), n_sites=4)
        h = bloch_hamiltonian(0.0, spec_lat).matrix
        spec = eig_full(h)
        assert spec.condition_numbers.max() > 1e6

    def test_symmetric_jordan_block_is_defective(self):
        # [[i, 1], [1, -i]] squares to zero: one eigenvector (1, i), r^T r = 0
        spec = eig_full(np.array([[1j, 1.0], [1.0, -1j]]))
        assert spec.condition_numbers.max() > 1e6

    def test_jordan_block_raises(self):
        # outside the complex-symmetric domain
        with pytest.raises(ConfigurationError):
            eig_full(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_condition_explodes_at_refined_ep(self):
        # refine the hopping to the coalescence point of the interface pair;
        # the eigenvector condition number grows without bound there
        def pair_separation(j_hop):
            g = 0.1 / (2 * j_hop)
            base = LatticeSpec(
                n_sites=4, hopping_J=j_hop, spacing_d=D,
                pattern=LossPattern.lossless(), re_beta=0.0,
            )
            iface = interface_lattice(
                LossPattern.trivial(g), LossPattern.topological(g), 6, 6, base
            )
            spec = eig_full(real_space_hamiltonian(iface))
            w = (
                np.abs(spec.right_vectors[iface.interface_index - 1, :]) ** 2
                + np.abs(spec.right_vectors[-1, :]) ** 2
            )
            a, b = np.argsort(w)[-2:]
            return (
                abs(spec.eigenvalues[a] - spec.eigenvalues[b]),
                spec.condition_numbers[[a, b]].max(),
            )

        res = minimize_scalar(
            lambda x: pair_separation(x)[0],
            bracket=(0.091, 0.093, 0.095),
            options={"xtol": 1e-12},
        )
        sep, cond = pair_separation(res.x)
        assert sep < 1e-6
        assert cond > 1e4


class TestZeroModes:
    def test_phase_iii_two_midgap_modes(self):
        spec_lat = lattice(LossPattern.topological(1.1))
        report = find_zero_modes(eig_full(real_space_hamiltonian(spec_lat)), spec_lat)
        assert len(report) == 2
        assert all(w > 0.5 for w in report.edge_weights)
        assert all(r2 > 0.99 for r2 in report.fit_r_squared)
        assert all(ell > 0 for ell in report.localization_lengths)

    def test_phase_iii_zero_modes_are_lossy(self):
        spec_lat = lattice(LossPattern.topological(1.1))
        spec = eig_full(real_space_hamiltonian(spec_lat))
        report = find_zero_modes(spec, spec_lat)
        for i in report.indices:
            assert spec.eigenvalues[i].imag < 0

    def test_phase_ii_has_no_midgap_modes(self):
        spec_lat = lattice(LossPattern.trivial(1.1))
        report = find_zero_modes(eig_full(real_space_hamiltonian(spec_lat)), spec_lat)
        assert len(report) == 0

    def test_lossless_chain_has_no_midgap_modes(self):
        spec_lat = lattice(LossPattern.lossless())
        report = find_zero_modes(eig_full(real_space_hamiltonian(spec_lat)), spec_lat)
        assert len(report) == 0

    def test_re_beta_offset_is_removed(self):
        spec_lat = lattice(LossPattern.topological(1.1), re_beta=6.6)
        report = find_zero_modes(eig_full(real_space_hamiltonian(spec_lat)), spec_lat)
        assert len(report) == 2


def reference_sweep(base, J_values, overlap_min=0.5):
    """The tracked pair from an eig_full at every J, continued by maximal
    joint eigenvector overlap. Returns (pair eigenvalues (n_J, 2), the
    larger condition number of each pair, ||H|| at each J, whether a
    continuation was a tie). A tie, two columns overlapping a tracked mode
    equally, happens where the mode has passed a coalescence with an
    untracked one; rounding then picks the branch."""
    if0 = base.interface_index - 1
    sel = list(range(if0, min(if0 + 4, base.n_sites))) + list(range(base.n_sites - 4, base.n_sites))
    pairs, conds, norms, prev, tie = [], [], [], None, False
    for j_hop in J_values:
        h = real_space_hamiltonian(_scaled_interface(base, j_hop)).matrix
        spec = eig_full(h)
        vr = spec.right_vectors
        if prev is None:
            idx = list(np.argsort((np.abs(vr[sel]) ** 2).sum(axis=0))[-2:])
        else:
            ov = np.abs(prev.conj().T @ vr)
            o0, o1 = np.argsort(ov[0])[::-1], np.argsort(ov[1])[::-1]
            tie |= any(abs(o[k[0]] - o[k[1]]) <= 1e-9 for o, k in ((ov[0], o0), (ov[1], o1)))
            a, b = o0[0], o1[0]
            if a == b:
                if ov[0, o0[0]] * ov[1, o1[1]] >= ov[0, o0[1]] * ov[1, o1[0]]:
                    b = o1[1]
                else:
                    a = o0[1]
            if min(ov[0, a], ov[1, b]) < overlap_min:
                raise ModeTrackingError("reference lost the pair", {"J": j_hop})
            idx = [a, b]
        prev = vr[:, idx]
        pairs.append(spec.eigenvalues[idx])
        conds.append(spec.condition_numbers[idx].max())
        norms.append(np.linalg.norm(h))
    return np.array(pairs), np.array(conds), np.array(norms), tie


def assert_matches_reference(res, pairs, conds, norms):
    # same column labels: each tracked mode matches its own reference column
    assert np.all(np.abs(res.pair_eigenvalues - pairs) <= 1e-12 * norms[:, None])
    i_min = int(np.argmin(np.abs(pairs[:, 0] - pairs[:, 1])))
    assert res.J_ep_estimate == res.J_values[i_min]
    assert res.J_ep_at_scan_edge == (i_min in (0, res.J_values.size - 1))
    assert res.coalescence_condition == pytest.approx(conds[i_min], rel=1e-8)


im_betas = st.floats(0.05, 0.15)
g_values = st.floats(0.2, 2.5)


def ii_iii_domains(im_beta, flip):
    """(left, right) phase II and III domains at one im_beta, at J = 0.045."""
    g = im_beta / (2 * J)
    pair = (LossPattern.trivial(g), LossPattern.topological(g))
    return pair[::-1] if flip else pair


symmetric_domains = st.builds(ii_iii_domains, im_betas, st.booleans())
asymmetric_domains = st.builds(
    lambda g0, g1, g2: (LossPattern.from_g(g0, g1, -g2), LossPattern.from_g(g0, g1, g2)),
    st.floats(0.0, 2.5), g_values, g_values,
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEPSweepTracking:
    """Rayleigh-quotient tracking against an eig_full at every J."""

    @settings(deadline=None, max_examples=6)
    @given(domains=st.one_of(symmetric_domains, asymmetric_domains))
    def test_matches_eig_full_at_every_J(self, domains):
        base = interface_lattice(*domains, 6, 6, lattice(LossPattern.lossless(), n_sites=4))
        J_values = np.arange(0.04, 0.12001, 0.002)
        try:
            pairs, conds, norms, tie = reference_sweep(base, J_values)
        except ModeTrackingError:
            with pytest.raises(ModeTrackingError):
                ep_sweep(base, J_values)
            return
        assume(not tie)
        assert_matches_reference(ep_sweep(base, J_values), pairs, conds, norms)

    @pytest.mark.parametrize("left, right, J_values", [
        (LossPattern.trivial(1.1111111111111112), LossPattern.topological(1.1111111111111112),
         np.arange(0.04, 0.12001, 0.001)),
        (LossPattern.from_g(2.0, 0.5, -1.0), LossPattern.from_g(2.0, 0.5, 1.0),
         np.arange(0.04, 0.12001, 0.001)),
        (LossPattern.trivial(1.1111111111111112), LossPattern.topological(1.1111111111111112),
         np.arange(0.04, 0.06001, 0.001)),
    ], ids=["fig4c", "asymmetric", "below-ep"])
    def test_sweeps_match_eig_full_at_every_J(self, left, right, J_values):
        # fig4c's sweep, the benchmark's asymmetric one, and a scan below the
        # coalescence whose minimum, at its last J, is a tracked row
        base = interface_lattice(
            left, right, 6, 6, lattice(LossPattern.lossless(), n_sites=4, re_beta=6.6)
        )
        pairs, conds, norms, _ = reference_sweep(base, J_values)
        assert_matches_reference(ep_sweep(base, J_values), pairs, conds, norms)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEPSweep:
    def test_locates_exceptional_point(self):
        res = ep_sweep(ii_iii_interface(1.1111111111111112), np.arange(0.04, 0.12001, 0.001))
        # regression anchor 0.093, inside the reported 0.095 +- 0.01
        assert abs(res.J_ep_estimate - 0.095) <= 0.01
        assert res.edge_pair_separation.min() == res.edge_pair_separation[
            list(res.J_values).index(res.J_ep_estimate)
        ]
        assert not res.J_ep_at_scan_edge

    def test_flags_minimum_at_scan_end(self):
        # the scan stops below the coalescence, so its last J is the minimum
        res = ep_sweep(ii_iii_interface(1.1111111111111112), np.arange(0.04, 0.08001, 0.004))
        assert res.J_ep_estimate == res.J_values[-1]
        assert res.J_ep_at_scan_edge

    def test_ordering_flip_across_ep(self):
        res = ep_sweep(ii_iii_interface(1.1111111111111112), np.arange(0.04, 0.12001, 0.002))
        i_ep = int(np.argmin(res.edge_pair_separation))
        below = res.pair_eigenvalues[max(0, i_ep - 5)]
        above = res.pair_eigenvalues[min(len(res.J_values) - 1, i_ep + 5)]
        d_re_b = abs(below[0].real - below[1].real)
        d_im_b = abs(below[0].imag - below[1].imag)
        d_re_a = abs(above[0].real - above[1].real)
        d_im_a = abs(above[0].imag - above[1].imag)
        assert d_re_b < d_im_b  # imaginary splitting below the EP
        assert d_re_a > d_im_a  # real splitting above it

    def test_below_ep_modes_sit_at_zero_energy(self):
        res = ep_sweep(ii_iii_interface(1.1111111111111112), [0.04, 0.045, 0.05])
        for pair in res.pair_eigenvalues:
            assert abs(pair[0].real) < 1e-8 and abs(pair[1].real) < 1e-8

    def test_lossless_pattern_has_no_ep(self):
        base = lattice(LossPattern.lossless(), n_sites=4)
        iface = interface_lattice(
            LossPattern.lossless(), LossPattern.lossless(), 6, 6, base
        )
        res = ep_sweep(iface, np.arange(0.04, 0.121, 0.004))
        assert res.edge_pair_separation.min() > 1e-3 * J

    @pytest.mark.parametrize("left, right", [
        (LossPattern.from_g(2.0, 0.5, -1.0), LossPattern.from_g(2.0, 0.5, 1.0)),
        (LossPattern.trivial(1.1111111111111112), LossPattern.topological(1.1111111111111112)),
    ], ids=["asymmetric", "symmetric"])
    def test_rebuild_at_base_hopping_is_the_base(self, left, right):
        base = interface_lattice(left, right, 6, 6, lattice(LossPattern.lossless(), n_sites=4))
        rebuilt = _scaled_interface(base, base.hopping_J)
        assert np.array_equal(rebuilt.onsite_values(), base.onsite_values())

    def test_rebuild_holds_every_site_beta(self):
        custom = LossPattern.custom([0.3 - 0.2j, -1.5j, 0.1, -0.7j], g0=0.4)
        base = interface_lattice(
            LossPattern.from_g(2.0, 0.5, -1.0), custom, 3, 3,
            lattice(LossPattern.lossless(), n_sites=4),
        )
        rebuilt = _scaled_interface(base, 0.07)
        np.testing.assert_allclose(
            0.07 * rebuilt.onsite_values(), J * base.onsite_values(), rtol=1e-15
        )

    def test_asymmetric_domains_track_the_configured_lattice(self):
        base = interface_lattice(
            LossPattern.from_g(2.0, 0.5, -1.0), LossPattern.from_g(2.0, 0.5, 1.0), 6, 6,
            lattice(LossPattern.lossless(), n_sites=4),
        )
        beta = base.re_beta + J * base.onsite_values()  # held fixed across the sweep
        hop = np.eye(base.n_sites, k=1) + np.eye(base.n_sites, k=-1)
        res = ep_sweep(base, np.arange(0.04, 0.12001, 0.001))
        for j_hop, pair in zip(res.J_values, res.pair_eigenvalues):
            spectrum = np.linalg.eigvals(np.diag(beta) + j_hop * hop)
            for e in pair:
                assert np.abs(spectrum - e).min() < 1e-9

    def test_requires_interface_lattice(self):
        with pytest.raises(ConfigurationError):
            ep_sweep(lattice(LossPattern.topological(1.1)), [0.04, 0.05])

    @pytest.mark.parametrize("J_values, overlap_min", [
        ([0.04, 0.12], 0.9),
        (np.arange(0.04, 0.06001, 0.001), 0.9999),
    ], ids=["across-ep", "tracked-step"])
    def test_overlap_drop_still_raises(self, J_values, overlap_min):
        # one step across the coalescence leaves no continuation above 0.9;
        # below it, each 0.001 step turns the tracked vectors by more than
        # 1 - 0.9999 while predictor and residual checks pass
        with pytest.raises(ModeTrackingError):
            ep_sweep(ii_iii_interface(1.1111111111111112), J_values, overlap_min=overlap_min)

    def test_exactly_singular_shift_falls_back(self, monkeypatch):
        # a lossless chain without re_beta is J times a fixed matrix, so
        # doubling J doubles every eigenvalue exactly and the predicted shift
        # is an exact eigenvalue with an exactly singular pivot
        base = LatticeSpec(
            n_sites=4, hopping_J=0.5, spacing_d=D, pattern=LossPattern.lossless(), re_beta=0.0
        )
        iface = interface_lattice(LossPattern.lossless(), LossPattern.lossless(), 1, 1, base)
        found = []
        rqi = spectral._rayleigh_quotient_iteration
        monkeypatch.setattr(
            spectral, "_rayleigh_quotient_iteration",
            lambda *args: found.append(rqi(*args)) or found[-1],
        )
        res = ep_sweep(iface, [0.5, 1.0, 2.0])
        assert None in found
        assert np.all(np.isfinite(res.pair_eigenvalues))
        pairs, _, norms, _ = reference_sweep(iface, res.J_values)
        assert np.all(np.abs(res.pair_eigenvalues - pairs) <= 1e-12 * norms[:, None])

    def test_singular_shift_stops_the_iteration(self):
        # 3-site chain [[0,1,0],[1,0,1],[0,1,0]] with eigenvalue 0
        x = np.array([1.0, 0.0, 0.0], dtype=complex)
        assert _rayleigh_quotient_iteration(
            np.zeros(3, dtype=complex), np.ones(2, dtype=complex), 0.0, x, 0.0
        ) is None
