import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from nhlattice import spectral
from nhlattice.errors import ConfigurationError
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
    _best_overlap,
    _rayleigh_quotient_iteration,
    find_zero_modes,
)

J = 0.045
D = 1.4


def lattice(pattern, n_sites=40, re_beta=0.0):
    return LatticeSpec(
        n_sites=n_sites, hopping_J=J, spacing_d=D, pattern=pattern, re_beta=re_beta
    )


def ii_iii_interface(g, n_cells=6, re_beta=0.0):
    return interface_lattice(
        LossPattern.trivial(g), LossPattern.topological(g), n_cells, n_cells, J, D, re_beta
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
            left, right, n_left, n_right, J, D, re_beta=0.0
        ),
        patterns, patterns, st.integers(1, 6), st.integers(1, 6),
    ),
)


class TestComplexSymmetricDomain:
    @settings(deadline=None, max_examples=25)
    @given(spec=lattices)
    def test_chain_is_symmetric_tridiagonal(self, spec):
        h = real_space_hamiltonian(spec)
        assert np.array_equal(h, h.T)
        assert np.array_equal(h, np.triu(np.tril(h, 1), -1))
        assert eig_full(h).eigenvalues.shape == (spec.n_sites,)

    @settings(deadline=None, max_examples=25)
    @given(spec=lattices)
    def test_c_product_condition_matches_left_solve(self, spec):
        # reference: unit-norm left vectors from a separate left solve
        h = real_space_hamiltonian(spec)
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
        h = bloch_hamiltonian(0.0, LossPattern.topological(1.1), D)
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
        h = bloch_hamiltonian(0.0, LossPattern.topological(1.0), D)
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
            iface = interface_lattice(
                LossPattern.trivial(g), LossPattern.topological(g), 6, 6, j_hop, D, re_beta=0.0
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

    @pytest.mark.parametrize("n_sites", [1, 2, 3])
    def test_chains_shorter_than_a_fit(self, n_sites):
        # no dominant half holds 3 sublattice points: no decay length
        spec_lat = lattice(LossPattern.topological(1.1), n_sites=n_sites)
        spec = eig_full(real_space_hamiltonian(spec_lat))
        report = find_zero_modes(spec, spec_lat, tol=np.inf)
        assert len(report) == n_sites
        assert report.localization_lengths == (np.inf,) * n_sites
        assert report.fit_r_squared == (0.0,) * n_sites
        assert report.edge_weights == (1.0,) * n_sites

    def test_re_beta_offset_is_removed(self):
        spec_lat = lattice(LossPattern.topological(1.1), re_beta=6.6)
        report = find_zero_modes(eig_full(real_space_hamiltonian(spec_lat)), spec_lat)
        assert len(report) == 2


def hopping_chain(base, j_hop):
    """diag(beta) + J*T of ``base`` at hopping ``j_hop``, with beta held fixed."""
    beta = base.re_beta + base.hopping_J * base.onsite_values()
    n = base.n_sites
    return np.diag(beta) + j_hop * (np.eye(n, k=1) + np.eye(n, k=-1))


def higher_re_first(pair, tol):
    """The pair with the higher Re E first; if the Re E agree within tol,
    the lower Im E first."""
    a, b = pair
    swap = a.imag > b.imag if abs(a.real - b.real) <= tol else a.real < b.real
    return pair[::-1] if swap else pair


def reference_sweep(base, J_values):
    """The pair of the stateless rule from an eig_full at every J, each row
    in ``higher_re_first`` order. The central modes are those whose
    |Re E - re_beta| is within 1e-13 ||H|| of the second smallest; of them,
    the two of largest interface weight, and of weights within 1e-9 of the
    largest one left, the lowest Re E, then the lowest Im E. Returns (pair
    eigenvalues (n_J, 2), the larger condition number of each pair, ||H||
    at each J, the central eigenvalues at each J)."""
    if0 = base.interface_index - 1
    sel = list(range(if0, min(if0 + 4, base.n_sites))) + list(range(base.n_sites - 4, base.n_sites))
    pairs, conds, norms, centrals = [], [], [], []
    for j_hop in J_values:
        h = hopping_chain(base, j_hop)
        norm = np.linalg.norm(h)
        spec = eig_full(h)
        e = spec.eigenvalues
        dist = np.abs(e.real - base.re_beta)
        central = [i for i in range(e.size) if dist[i] <= sorted(dist)[1] + 1e-13 * norm]
        weight = (np.abs(spec.right_vectors[sel]) ** 2).sum(axis=0)
        idx = []
        for _ in range(2):
            left = [i for i in central if i not in idx]
            top = max(weight[left])
            near = [i for i in left if weight[i] >= (1 - 1e-9) * top]
            idx.append(min(near, key=lambda i: (e[i].real, e[i].imag)))
        pairs.append(higher_re_first(e[idx], 1e-12 * norm))
        conds.append(spec.condition_numbers[idx].max())
        norms.append(norm)
        centrals.append(e[central])
    return np.array(pairs), np.array(conds), np.array(norms), centrals


def assert_matches_reference(res, pairs, conds, norms):
    # same row order: each column matches its own reference column
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


def gain_domains(g0, g1, g2):
    """(left, right) domains with g2 of opposite sign."""
    return LossPattern.from_g(g0, g1, -g2), LossPattern.from_g(g0, g1, g2)


symmetric_domains = st.builds(ii_iii_domains, im_betas, st.booleans())
asymmetric_domains = st.builds(gain_domains, st.floats(0.0, 2.5), g_values, g_values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEPSweepTracking:
    """Rayleigh-quotient tracking against an eig_full at every J."""

    @settings(deadline=None, max_examples=6)
    @given(domains=st.one_of(symmetric_domains, asymmetric_domains))
    @example(domains=gain_domains(0.0, 0.375, 2.5))  # four central modes at J = 0.056
    def test_matches_eig_full_at_every_J(self, domains):
        base = interface_lattice(*domains, 6, 6, J, D, re_beta=0.0)
        J_values = np.arange(0.04, 0.12001, 0.002)
        pairs, conds, norms, central = reference_sweep(base, J_values)
        res = ep_sweep(base, J_values)
        if all(c.size == 2 for c in central):
            assert_matches_reference(res, pairs, conds, norms)
            return
        # with more than two central modes a tracked row keeps the pair of
        # the last dense solve, whose weights may have crossed since: the
        # first row follows the rule, and every row stays central
        assert np.abs(res.pair_eigenvalues[0] - pairs[0]).max() <= 1e-12 * norms[0]
        for row, c, norm in zip(res.pair_eigenvalues, central, norms):
            assert np.abs(c[:, None] - row).min(axis=0).max() <= 1e-12 * norm

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
        base = interface_lattice(left, right, 6, 6, J, D, re_beta=6.6)
        pairs, conds, norms, _ = reference_sweep(base, J_values)
        assert_matches_reference(ep_sweep(base, J_values), pairs, conds, norms)

    @settings(deadline=None, max_examples=5)
    @given(domains=st.one_of(symmetric_domains, asymmetric_domains),
           kick=st.floats(-1e-13, 1e-13))
    # II|III domains with gain sites, whose pair turns complex at one J and
    # real again
    @example(domains=gain_domains(0.0, 2.234375, 1.0), kick=0.0)
    @example(domains=gain_domains(0.0, 2.21875, 0.9375), kick=0.0)
    @example(domains=gain_domains(0.0, 2.15625, 0.875), kick=0.0)
    @example(domains=gain_domains(0.0, 2.46875, 1.0), kick=0.0)
    def test_rounding_change_of_beta_keeps_row_order(self, domains, kick):
        # beta scaled by 1 + kick, a change the size of its rounding, must
        # not swap the columns of any row or move J_ep
        J_values = np.arange(0.04, 0.12001, 0.002)
        runs = []
        for hop in (J, J * (1.0 + kick)):
            runs.append(ep_sweep(interface_lattice(*domains, 6, 6, hop, D, re_beta=6.6), J_values))
        a, b = (r.pair_eigenvalues for r in runs)
        assert np.all(np.abs(a - b).max(axis=1) < np.abs(a - b[:, ::-1]).max(axis=1))
        assert runs[0].J_ep_estimate == runs[1].J_ep_estimate
        assert runs[0].J_ep_at_scan_edge == runs[1].J_ep_at_scan_edge

    def test_first_J_weight_tie_takes_lower_re(self):
        # two modes mirrored about re_beta carry the same interface weight
        # to rounding, but neither is central: the tie is never consulted,
        # and the first row is the central pair
        base = interface_lattice(
            LossPattern.from_g(2.0, 0.5, -1.0), LossPattern.from_g(2.0, 0.5, 1.0), 6, 6,
            J, D, re_beta=6.6,
        )
        spec = eig_full(hopping_chain(base, 0.04))
        sel = list(range(24, 28)) + list(range(44, 48))
        weight = (np.abs(spec.right_vectors[sel]) ** 2).sum(axis=0)
        second, third = np.sort(weight)[::-1][1:3]
        assert second - third <= 1e-9 * weight.max()
        tied = spec.eigenvalues[np.abs(weight - second) <= 1e-9 * weight.max()]
        assert tied.size == 2
        low, high = sorted(tied, key=lambda e: e.real)
        assert high.real - low.real > 0.1
        first = ep_sweep(base, np.arange(0.04, 0.12001, 0.001)).pair_eigenvalues[0]
        assert np.abs(first.real - 6.6).max() <= 1e-12 * np.linalg.norm(hopping_chain(base, 0.04))
        assert np.abs(first - low).min() > 0.01 and np.abs(first - high).min() > 0.01

        # weights w, w - 0.8 tol, w - 1.6 tol do not chain into one tie: the
        # third is farther than tol from the largest, so its lower Re E
        # does not win the first pick; ep_sweep takes its pair as
        # first = _best_overlap(weight, E), then _best_overlap(weight, E, first)
        tol = spectral.OVERLAP_TIE_RTOL
        weight = np.array([0.3, 1.0, 1.0 - 0.8 * tol, 1.0 - 1.6 * tol])
        for re_e, pair in (([-5.0, 3.0, 2.0, 1.0], [2, 1]), ([-5.0, 1.0, 2.0, 3.0], [1, 2])):
            eigs = np.array(re_e, dtype=complex)
            first = _best_overlap(weight, eigs)
            assert [first, _best_overlap(weight, eigs, first)] == pair

    def test_flipped_domains_pair_the_left_edge_with_the_interface(self):
        # III|II: the central pair is the III domain's two edge modes, at the
        # outer left edge and at the interface, hybridized; the lossy modes
        # at the trivial right end carry more weight on the selected sites
        # but are not central
        base = interface_lattice(*ii_iii_domains(0.125, True), 6, 6, J, D, re_beta=6.6)
        first = ep_sweep(base, np.arange(0.04, 0.12001, 0.002)).pair_eigenvalues[0]
        spec = eig_full(hopping_chain(base, 0.04))
        nearest = np.argsort(np.abs(spec.eigenvalues.real - 6.6))
        assert np.abs(spec.eigenvalues[nearest[2]].real - 6.6) > 0.5 * J
        for e in first:
            i = np.argmin(np.abs(spec.eigenvalues - e))
            assert abs(spec.eigenvalues[i] - e) <= 1e-12 * np.linalg.norm(hopping_chain(base, 0.04))
            assert i in nearest[:2]
            dens = np.abs(spec.right_vectors[:, i]) ** 2
            assert dens[:4].sum() > 0.4 and dens[24:28].sum() > 0.2 and dens[-4:].sum() < 1e-9

    def test_overdamped_chain_picks_two_central_modes(self):
        # 24 modes have Re E = re_beta, so all are central; the first row is
        # the two of largest interface weight, and a change of beta at the
        # size of its rounding moves no row
        J_values = np.arange(0.04, 0.12001, 0.002)
        runs = []
        for hop in (J, J * (1.0 + 1e-13)):
            base = interface_lattice(*gain_domains(1.0, 0.5, 2.5), 6, 6, hop, D, re_beta=6.6)
            runs.append(ep_sweep(base, J_values).pair_eigenvalues)
        pairs, _, norms, central = reference_sweep(base, J_values[:1])
        assert central[0].size == 24
        assert np.abs(runs[1][0] - pairs[0]).max() <= 1e-12 * norms[0]
        assert np.abs(runs[0] - runs[1]).max() <= 1e-12 * norms[0]

    def test_overlap_tie_takes_lower_re(self):
        # overlaps within the tolerance tie, and the lower Re E, then the
        # lower Im E, wins; a column farther off does not join the tie
        tol = spectral.OVERLAP_TIE_RTOL
        ov = np.array([0.3, 0.9, 0.9 * (1 - 0.5 * tol), 0.9 * (1 - 2 * tol), 0.9])
        eigs = np.array([-9.0, 1.0 + 1j, 0.5, -1.0, 1.0 - 1j])
        assert _best_overlap(ov, eigs) == 2
        assert _best_overlap(ov, eigs, skip=2) == 4
        assert _best_overlap(ov[:2], eigs[:2], skip=1) == 0


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
        # two lossless domains are one uniform chain: no interface to sweep
        lossless = LossPattern.lossless()
        with pytest.raises(ConfigurationError, match="no interface"):
            ep_sweep(interface_lattice(lossless, lossless, 6, 6, J, D, re_beta=0.0),
                     np.arange(0.04, 0.121, 0.004))
        # a lossless step in Re beta is Hermitian: its pair never coalesces
        iface = interface_lattice(
            lossless, LossPattern.custom([0.5] * 4), 6, 6, J, D, re_beta=0.0
        )
        res = ep_sweep(iface, np.arange(0.04, 0.121, 0.004))
        assert res.edge_pair_separation.min() > 1e-3 * J

    def test_asymmetric_domains_track_the_configured_lattice(self):
        base = interface_lattice(
            LossPattern.from_g(2.0, 0.5, -1.0), LossPattern.from_g(2.0, 0.5, 1.0), 6, 6,
            J, D, re_beta=0.0,
        )
        beta = base.re_beta + J * base.onsite_values()  # held fixed across the sweep
        hop = np.eye(base.n_sites, k=1) + np.eye(base.n_sites, k=-1)
        res = ep_sweep(base, np.arange(0.04, 0.12001, 0.001))
        for j_hop, pair in zip(res.J_values, res.pair_eigenvalues):
            spectrum = np.linalg.eigvals(np.diag(beta) + j_hop * hop)
            for e in pair:
                assert np.abs(spectrum - e).min() < 1e-9

    def test_only_rows_near_the_coalescence_fall_back(self, monkeypatch):
        # fig4c's sweep: the first row and 18 rows with J in [0.074, 0.096],
        # next to the coalescence at 0.093, need eig_full; the other 62 of
        # its 81 rows are tracked
        calls = []
        eig = spectral.eig_full
        monkeypatch.setattr(spectral, "eig_full", lambda h: calls.append(1) or eig(h))
        ep_sweep(ii_iii_interface(1.1111111111111112, re_beta=6.6),
                 np.arange(0.04, 0.12001, 0.001))
        assert len(calls) == 19

    def test_requires_interface_lattice(self):
        with pytest.raises(ConfigurationError):
            ep_sweep(lattice(LossPattern.topological(1.1)), [0.04, 0.05])

    @pytest.mark.parametrize("left, right", [
        (LossPattern.topological(1.1), LossPattern.topological(1.1)),
        # a custom cell equal to a preset's cell_diagonal is the same domain
        (LossPattern.topological(1.0), LossPattern.custom([0, -2j, -2j, 0])),
    ], ids=["same-preset", "custom-equal-to-preset"])
    def test_equal_domains_form_no_interface(self, left, right):
        # both outer edges carry a mode, degenerate to rounding: a sweep
        # would report that pair as a coalescence
        iface = interface_lattice(left, right, 6, 6, J, D)
        with pytest.raises(ConfigurationError, match="no interface"):
            ep_sweep(iface, np.arange(0.04, 0.12001, 0.001))

    def test_exactly_singular_shift_falls_back(self, monkeypatch):
        # at J = 0 the chain is diag(beta), so the tracked vectors are exact
        # unit vectors and the predicted step 2 dJ sum r_i r_(i+1) vanishes:
        # the shift predicted at J = 1 is beta = 0 of site 5, an exact
        # eigenvalue of diag(beta) + T whose last tridiagonal pivot is
        # exactly zero in binary arithmetic
        iface = interface_lattice(
            LossPattern.custom([-1, -2, -4, -1]), LossPattern.custom([0, 2, 1, 4]), 1, 1,
            1.0, D, re_beta=0.0,
        )
        found = []
        rqi = spectral._rayleigh_quotient_iteration
        monkeypatch.setattr(
            spectral, "_rayleigh_quotient_iteration",
            lambda *args: found.append(rqi(*args)) or found[-1],
        )
        res = ep_sweep(iface, [0.0, 1.0])
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
