import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings
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


def reference_sweep(base, J_values, overlap_min=0.5):
    """The tracked pair from an eig_full at every J, continued by maximal
    joint eigenvector overlap, each row in ``higher_re_first`` order.
    Returns (pair eigenvalues (n_J, 2), the larger condition number of each
    pair, ||H|| at each J, whether a continuation was a tie). A tie, two
    columns overlapping a tracked mode equally, happens where the mode has
    passed a coalescence with an untracked one; rounding then picks the
    branch."""
    if0 = base.interface_index - 1
    sel = list(range(if0, min(if0 + 4, base.n_sites))) + list(range(base.n_sites - 4, base.n_sites))
    pairs, conds, norms, prev, tie = [], [], [], None, False
    for j_hop in J_values:
        h = hopping_chain(base, j_hop)
        spec = eig_full(h)
        vr = spec.right_vectors
        if prev is None:
            # largest interface weight first; of weights within 1e-9 of the
            # largest one left, the lowest Re E, then the lowest Im E
            weight = (np.abs(vr[sel]) ** 2).sum(axis=0)
            idx = []
            for _ in range(2):
                left = [i for i in range(weight.size) if i not in idx]
                top = max(weight[left])
                near = [i for i in left if weight[i] >= (1 - 1e-9) * top]
                e = spec.eigenvalues
                idx.append(min(near, key=lambda i: (e[i].real, e[i].imag)))
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
        norm = np.linalg.norm(h)
        pairs.append(higher_re_first(spec.eigenvalues[idx], 1e-12 * norm))
        conds.append(spec.condition_numbers[idx].max())
        norms.append(norm)
    return np.array(pairs), np.array(conds), np.array(norms), tie


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
        base = interface_lattice(*domains, 6, 6, J, D, re_beta=0.0)
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
        base = interface_lattice(left, right, 6, 6, J, D, re_beta=6.6)
        pairs, conds, norms, _ = reference_sweep(base, J_values)
        assert_matches_reference(ep_sweep(base, J_values), pairs, conds, norms)

    @settings(deadline=None, max_examples=5)
    @given(domains=st.one_of(symmetric_domains, asymmetric_domains),
           kick=st.floats(-1e-13, 1e-13))
    @example(
        domains=(LossPattern.from_g(0.0, 2.234375, -1.0), LossPattern.from_g(0.0, 2.234375, 1.0)),
        kick=0.0,
    ).xfail(raises=ModeTrackingError,
            reason="ep_sweep loses the pair of II|III domains with gain sites (overlap "
                   "0.46 < 0.5 at J = 0.07); the eig-at-every-J reference loses it too")
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
        # to rounding; the one with lower Re E is tracked, the other is not
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
        assert np.abs(first - low).min() <= 1e-12 * np.linalg.norm(hopping_chain(base, 0.04))
        assert np.abs(first - high).min() > 0.01

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

    def test_overlap_tie_takes_lower_re(self, monkeypatch):
        # at J = 0.06 a tracked mode has just passed a coalescence and
        # overlaps the two modes it split into equally, to 4e-16; beta
        # changed at the size of its rounding must not flip the sign of the
        # tracked Re E from then on
        J_values = np.arange(0.04, 0.12001, 0.005)
        onsite = LatticeSpec.onsite_values
        runs = []
        for scale in (1.0, 1.0 + 4e-16, 1.0 - 4e-16):
            monkeypatch.setattr(LatticeSpec, "onsite_values",
                                lambda self, s=scale: onsite(self) * s)
            base = interface_lattice(
                LossPattern.from_g(0, 0.25, -1.25), LossPattern.from_g(0, 0.25, 1.25), 4, 4,
                J, D, re_beta=0.0,
            )
            runs.append(ep_sweep(base, J_values).pair_eigenvalues[J_values > 0.0599])
        for run in runs:
            assert np.array_equal(np.sign(run.real), np.sign(runs[0].real))
        assert np.all(runs[0][:, 0].real < 0)  # the lower of the two split modes

        # the benchmark's asymmetric sweep on the J grid an ep-sweep config
        # scans, j_min + i * j_step, meets such a tie (to 6e-13) at J = 0.067.
        # Rounding used to take the upper branch there: from then on mode a
        # is the mirror image 2 re_beta - conj(E) of those rows, which are
        # kept here as written by the earlier ep_sweep.csv
        base = interface_lattice(
            LossPattern.from_g(2.0, 0.5, -1.0), LossPattern.from_g(2.0, 0.5, 1.0), 6, 6,
            J, D, re_beta=6.6,
        )
        res = ep_sweep(base, [0.04 + i * 0.001 for i in range(81)])
        earlier = {
            26: (6.6000000000000414 - 0.085500484280553027j,
                 6.4856833182826215 - 0.099894650672245011j),
            27: (6.6009335669443185 - 0.086380997495529813j,
                 6.4836727134576453 - 0.099586664205758693j),
            80: (6.6077063131469718 - 0.088693211181667328j,
                 6.3782893041667528 - 0.09293192456121932j),
        }
        bound = 1e-12 * np.linalg.norm(hopping_chain(base, 0.12))
        for row, (a, b) in earlier.items():
            if row > 26:
                a = 2 * 6.6 - np.conj(a)
            assert np.abs(res.pair_eigenvalues[row] - [a, b]).max() <= bound

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
