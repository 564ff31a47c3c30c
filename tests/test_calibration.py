import json

import numpy as np
import pytest

from nhlattice.calibration import (
    IMBETA_VS_W_ANCHORS,
    J_VS_D_ANCHORS,
    default_hopping_curve,
    default_imbeta_curve,
    fit_curve,
    g2_of,
    load_points,
)
from nhlattice.errors import ConfigurationError, FitError


class TestG2:
    def test_reference_loss(self):
        # Im(beta) = 0.1, J = 0.045 realizes the g = 1.1 experiments
        assert g2_of(0.1, 0.045) == pytest.approx(0.1 / 0.09)
        assert abs(g2_of(0.1, 0.045) - 1.1) < 0.02

    def test_weaker_loss(self):
        assert abs(g2_of(0.06, 0.045) - 0.7) < 0.04

    def test_lossless(self):
        assert g2_of(0.0, 0.045) == 0.0

    def test_domain_error(self):
        with pytest.raises(ConfigurationError):
            g2_of(0.1, 0.0)
        with pytest.raises(ConfigurationError):
            g2_of(0.1, -1.0)

    def test_scale_invariance(self):
        # homogeneous of degree zero under joint rescaling
        for c in (0.1, 3.0, 17.0):
            assert g2_of(0.1 * c, 0.045 * c) == pytest.approx(g2_of(0.1, 0.045))


class TestFitCurve:
    def test_exponential_exact_recovery(self):
        xs = np.linspace(0.5, 3.0, 7)
        ys = 0.62 * np.exp(-xs / 0.53)
        curve = fit_curve(list(zip(xs, ys)), "exponential")
        assert curve.params["amplitude"] == pytest.approx(0.62, rel=1e-9)
        assert curve.params["decay_x0"] == pytest.approx(0.53, rel=1e-9)

    def test_single_point_with_fixed_decay(self):
        curve = fit_curve([(0.7, 0.1)], "exponential", fixed_x0=0.5)
        assert float(curve.predict(0.7)) == pytest.approx(0.1, rel=1e-12)

    def test_underdetermined_rejected(self):
        with pytest.raises(FitError):
            fit_curve([(0.7, 0.1)], "exponential")
        with pytest.raises(FitError):
            fit_curve([], "table_interp")
        with pytest.raises(FitError):
            fit_curve([(1.0, 2.0)], "table_interp")

    def test_growing_data_rejected(self):
        with pytest.raises(FitError):
            fit_curve([(0.0, 1.0), (1.0, 2.0)], "exponential")

    def test_linear_through_origin(self):
        curve = fit_curve([(1.0, 2.0), (2.0, 4.0)], "linear_through_origin")
        assert curve.params["slope"] == pytest.approx(2.0)
        assert float(curve.predict(3.0)) == pytest.approx(6.0)

    def test_table_interp_and_extrapolation(self):
        curve = fit_curve([(0.0, 0.0), (1.0, 1.0), (2.0, 1.5)], "table_interp")
        assert float(curve.predict(0.5)) == pytest.approx(0.5)
        assert float(curve.predict(3.0)) == pytest.approx(2.0)  # end-slope extension
        assert float(curve.predict(-1.0)) == pytest.approx(-1.0)


class TestBuiltinCurves:
    def test_anchor_round_trip(self):
        # every stored anchor reproduced within 2 percent
        for curve in (default_imbeta_curve(), default_hopping_curve()):
            assert curve.max_anchor_error() < 0.02

    def test_hopping_curve_anchors(self):
        curve = default_hopping_curve()
        assert float(curve.predict(1.4)) == pytest.approx(0.045, rel=1e-9)
        assert float(curve.predict(1.0)) == pytest.approx(0.095, rel=1e-9)

    def test_hopping_monotone_in_spacing(self):
        curve = default_hopping_curve()
        j = [float(curve.predict(d)) for d in (1.8, 1.6, 1.4, 1.2, 1.0)]
        assert all(a < b for a, b in zip(j, j[1:]))

    def test_inferred_anchor_is_labeled(self):
        tags = {x: p for x, _, p in J_VS_D_ANCHORS}
        assert tags[1.4] == "measured"
        assert tags[1.0] == "inferred"
        assert all(p == "measured" for _, _, p in IMBETA_VS_W_ANCHORS)

    def test_imbeta_curve_hits_reference_width(self):
        curve = default_imbeta_curve()
        assert float(curve.predict(0.7)) == pytest.approx(0.1, abs=1e-12)
        assert float(curve.predict(0.25)) == pytest.approx(0.06, abs=1e-12)

    def test_positive_over_validity_range(self):
        curve = default_hopping_curve()
        xs = np.linspace(*curve.validity, 50)
        assert np.all(curve.predict(xs) > 0)


class TestCalibrationFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(json.dumps([
            {"x": 1.4, "y": 0.045, "units": "um:1/um", "provenance": "measured"},
            {"x": 1.0, "y": 0.095, "provenance": "inferred"},
        ]))
        points, provenance = load_points(path)
        assert points == ((1.4, 0.045), (1.0, 0.095))
        assert provenance == ("measured", "inferred")
        curve = fit_curve(points, "exponential", provenance=provenance)
        assert float(curve.predict(1.4)) == pytest.approx(0.045, rel=1e-9)

    def test_bad_entries_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"x": 1.0}]))
        with pytest.raises(ConfigurationError):
            load_points(path)
        path.write_text(json.dumps([{"x": 1.0, "y": 2.0, "extra": 1}]))
        with pytest.raises(ConfigurationError):
            load_points(path)
        path.write_text("{}")
        with pytest.raises(ConfigurationError):
            load_points(path)
        path.write_bytes(b"\xff")  # not UTF-8
        with pytest.raises(ConfigurationError):
            load_points(path)

    @pytest.mark.parametrize(
        "value", ["1.0", True, [1.0], None, float("nan"), float("inf"), 10**400],
        ids=["string", "bool", "list", "null", "nan", "inf", "huge_int"],
    )
    def test_non_numbers_rejected_by_index(self, tmp_path, value):
        path = tmp_path / "points.json"
        path.write_text(json.dumps([{"x": 1.0, "y": 2.0}, {"x": 1.5, "y": value}]))
        with pytest.raises(ConfigurationError, match="entry 1: y must be a finite number"):
            load_points(path)
