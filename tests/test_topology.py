import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhlattice.topology as topology
from nhlattice.errors import ConfigurationError, GaplessSpectrumError
from nhlattice.lattice import LossPattern
from nhlattice.topology import winding_number, winding_phase_diagram

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

    def test_gauge_invariance(self, monkeypatch):
        # random GL(2) changes of the subspace bases must leave W untouched
        rng = np.random.default_rng(42)
        original = topology._cluster_bases

        def gauged(h):
            out = []
            for right, left in original(h):
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                out.append((right @ a, left @ b))
            return tuple(out)

        w_plain = winding_number(LossPattern.topological(1.1), D, k_grid_size=64).W
        monkeypatch.setattr(topology, "_cluster_bases", gauged)
        w_gauged = winding_number(LossPattern.topological(1.1), D, k_grid_size=64).W
        assert abs(w_plain - w_gauged) < 1e-10

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
