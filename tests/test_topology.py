import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhlattice.topology as topology
from nhlattice.errors import ConfigurationError, GaplessSpectrumError
from nhlattice.lattice import LossPattern, bloch_hamiltonian, cell_diagonal
from nhlattice.topology import GAP_MIN, winding_number, winding_phase_diagram

D = 1.4


class TestWindingNumber:
    def test_nontrivial_anchor(self):
        res = winding_number(LossPattern.topological(1.0), D)
        assert res.W == pytest.approx(1.0, abs=1e-6)
        assert res.quantization_residual < 1e-6

    def test_trivial_anchor(self):
        res = winding_number(LossPattern.trivial(1.0), D)
        assert res.W == pytest.approx(0.0, abs=1e-6)
        assert res.quantization_residual < 1e-6

    def test_lossless_is_gapless(self):
        with pytest.raises(GaplessSpectrumError):
            winding_number(LossPattern.lossless(), D)

    def test_grid_convergence(self):
        for n in (64, 128):
            w_n = winding_number(LossPattern.topological(1.1), D, k_grid_size=n).W
            w_2n = winding_number(LossPattern.topological(1.1), D, k_grid_size=2 * n).W
            assert abs(w_n - w_2n) < 1e-8

    def test_grid_refinement_stability(self):
        w_64 = winding_number(LossPattern.trivial(0.7), D, k_grid_size=64).W
        w_256 = winding_number(LossPattern.trivial(0.7), D, k_grid_size=256).W
        assert w_64 == pytest.approx(w_256, abs=1e-8)

    def test_per_band_phases_pin_to_zero_or_pi(self):
        res = winding_number(LossPattern.topological(1.1), D)
        snapped = [min(abs(p), abs(p - np.pi)) for p in res.per_band_phase]
        assert max(snapped) < 1e-2
        assert sum(res.per_band_phase) == pytest.approx(2 * np.pi, abs=1e-8)

    def test_grid_size_floor(self):
        with pytest.raises(ConfigurationError):
            winding_number(LossPattern.topological(1.1), D, k_grid_size=8)

    @pytest.mark.parametrize("d", [0.0, -1.4, np.nan, np.inf])
    def test_spacing_must_be_finite_and_positive(self, d):
        with pytest.raises(ConfigurationError):
            winding_number(LossPattern.topological(1.1), d)


# the Re E gap between the doublets closes when |g1| and |g2| differ by a
# factor of about five or more, or grow large; 0.5 to 2 keeps away from that
magnitudes = st.floats(0.5, 2.0)
signs = st.sampled_from([-1.0, 1.0])
gapped_patterns = st.builds(
    lambda g0, g1, g2, s1, s2: LossPattern.from_g(g0, s1 * g1, s2 * g2),
    st.floats(0.0, 2.5), magnitudes, magnitudes, signs, signs,
)


class TestWindingGridIndependence:
    @settings(deadline=None, max_examples=10)
    @given(pattern=gapped_patterns, sizes=st.lists(st.integers(16, 96), min_size=2, max_size=2))
    def test_w_does_not_depend_on_k_grid_size(self, pattern, sizes):
        w = [winding_number(pattern, D, k_grid_size=n).W for n in sizes]
        assert w[0] == pytest.approx(w[1], abs=1e-8)
        assert w[0] == pytest.approx(1.0 if pattern.g1 * pattern.g2 > 0 else 0.0, abs=1e-6)


class TestPhaseDiagram:
    def test_step_function_at_reference_points(self):
        rows = winding_phase_diagram([-1.1, -0.7, 0.7, 1.1], D)
        got = {g2: w for g2, w, _ in rows}
        assert got[-1.1] == pytest.approx(0.0, abs=1e-6)
        assert got[-0.7] == pytest.approx(0.0, abs=1e-6)
        assert got[0.7] == pytest.approx(1.0, abs=1e-6)
        assert got[1.1] == pytest.approx(1.0, abs=1e-6)

    def test_exclusion_window_skips_near_zero(self):
        rows = winding_phase_diagram([-0.04, 0.0, 0.04, 0.7], D, exclusion=0.05)
        assert [g2 for g2, _, _ in rows] == [0.7]

    def test_residuals_are_reported(self):
        rows = winding_phase_diagram([0.7, 1.1], D)
        assert all(res < 1e-6 for _, _, res in rows)


def gl2(rng):
    """A random complex 2x2 matrix of condition number at most 3, so that
    the gauge change costs no more than a few ulps."""
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    scale = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
    return scale * (np.eye(2) + 0.5 * x / np.linalg.norm(x, 2))


def schur_wilson_reference(pattern, d, k_grid_size, rng):
    """W and per-band phases from the biorthogonal Wilson matrix
    G_0^-1 L_0^dag R_1 ... G_{N-1}^-1 L_{N-1}^dag R_0, G_m = L_m^dag R_m, of
    Schur bases R_m, L_m of each doublet, after random GL(2) changes of both
    bases at every k (``gl2``)."""
    import scipy.linalg as sla

    dk = (np.pi / (2.0 * d)) / k_grid_size
    bases = []
    for m in range(k_grid_size):
        h = bloch_hamiltonian(m * dk, pattern, d)
        pair = []
        for sel in (lambda w: w.real < 0, lambda w: w.real >= 0):
            _, right, sdim = sla.schur(h, output="complex", sort=sel)
            _, left, sdim_l = sla.schur(
                h.conj().T, output="complex", sort=lambda w: sel(np.conj(w))
            )
            assert sdim == sdim_l == 2
            a, b = (gl2(rng) for _ in range(2))
            pair.append((right[:, :2] @ a, left[:, :2] @ b))
        bases.append(pair)
    total, per_band = 0.0, []
    for c in range(2):
        wilson = np.eye(2, dtype=complex)
        for m in range(k_grid_size):
            right, left = bases[m][c]
            right_next = bases[(m + 1) % k_grid_size][c][0]
            wilson = wilson @ np.linalg.solve(left.conj().T @ right, left.conj().T @ right_next)
        total += topology._branch(-np.angle(np.linalg.det(wilson)))
        per_band.extend(np.sort(topology._branch(-np.angle(np.linalg.eigvals(wilson)))))
    return total / (2.0 * np.pi), per_band


def assert_matches_schur_reference(pattern, k_grid_size, seed):
    res = winding_number(pattern, D, k_grid_size=k_grid_size)
    w, per_band = schur_wilson_reference(pattern, D, k_grid_size, np.random.default_rng(seed))
    assert abs(res.W - w) <= 1e-12
    assert np.max(np.abs(np.subtract(res.per_band_phase, per_band))) <= 1e-12


class TestSchurReference:
    """The projector loop against the Wilson matrix of gauged Schur bases."""

    @settings(deadline=None, max_examples=10)
    @given(pattern=gapped_patterns, k_grid_size=st.integers(16, 64), seed=st.integers(0, 2**32 - 1))
    def test_gapped_patterns(self, pattern, k_grid_size, seed):
        assert_matches_schur_reference(pattern, k_grid_size, seed)

    @pytest.mark.parametrize("g2", [-1.1, -0.7, 0.7, 1.1])  # configs/figs/winding_diagram.json
    def test_winding_diagram_points(self, g2):
        pattern = LossPattern.topological(g2) if g2 > 0 else LossPattern.trivial(-g2)
        assert_matches_schur_reference(pattern, 128, 42)
        # winding.csv's W and residual columns: the Schur path's values lay
        # within 6e-16 of the integers
        assert winding_number(pattern, D).quantization_residual <= 1e-15


class TestProjectors:
    @settings(deadline=None, max_examples=20)
    @given(pattern=gapped_patterns, ks=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=16))
    def test_stacked_bloch_matrices_have_the_scalar_bits(self, pattern, ks):
        stack = bloch_hamiltonian(np.array(ks), pattern, D)
        assert stack.shape == (len(ks), 4, 4)
        for m, k in enumerate(ks):
            assert np.array_equal(stack[m], bloch_hamiltonian(k, pattern, D))

    @settings(deadline=None, max_examples=20)
    @given(pattern=gapped_patterns, ks=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8))
    def test_projectors_are_spectral(self, pattern, ks):
        h = bloch_hamiltonian(np.array(ks), pattern, D)
        scale = np.linalg.norm(h, axis=(-2, -1))
        for p in topology._projectors(h):
            assert np.all(np.linalg.norm(p @ p - p, axis=(-2, -1)) <= 1e-12 * scale)
            assert np.all(np.linalg.norm(p @ h - h @ p, axis=(-2, -1)) <= 1e-12 * scale)
            assert np.all(np.abs(np.trace(p, axis1=-2, axis2=-1) - 2.0) <= 1e-12)

    def test_band_on_the_imaginary_axis_stops_the_sign_iteration(self):
        # Newton's map keeps a purely imaginary eigenvalue on the axis
        with pytest.raises(GaplessSpectrumError) as err:
            topology._projectors(np.diag([2j, -1.0, 1.0, 3.0])[None])
        assert err.value.diagnostics["steps"] == topology._SIGN_STEPS

    def test_uneven_split_is_reported(self):
        # a real shift of 5 J puts all four bands at Re E > 0, gap intact
        shifted = LossPattern.custom(cell_diagonal(LossPattern.topological(1.1)) + 5.0)
        with pytest.raises(GaplessSpectrumError) as err:
            winding_number(shifted, D)
        assert err.value.diagnostics == {"k": 0.0, "lower_rank": 0.0}

    @settings(deadline=None, max_examples=10)
    @given(k_grid_size=st.integers(16, 256), d=st.floats(0.5, 3.0))
    def test_lossless_diagnostics_name_the_first_gapless_point(self, k_grid_size, d):
        with pytest.raises(GaplessSpectrumError) as err:
            winding_number(LossPattern.lossless(), d, k_grid_size=k_grid_size)
        diagnostics = err.value.diagnostics
        assert set(diagnostics) == {"k", "re_gap", "threshold"}
        dk = (np.pi / (2.0 * d)) / k_grid_size
        gaps = [np.diff(np.sort(np.linalg.eigvals(
            bloch_hamiltonian(m * dk, LossPattern.lossless(), d)).real))[1]
            for m in range(k_grid_size)]
        first = next(m for m, gap in enumerate(gaps) if gap <= GAP_MIN)
        assert diagnostics["k"] == first * dk
        assert diagnostics["re_gap"] == pytest.approx(gaps[first], abs=1e-15)
