"""Sensitivity, gain and success-probability figures of merit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacfilter.detectors import (
    Apd,
    HomodyneRandomized,
    HomodyneStabilized,
    IdealOnOff,
    threshold_for_error,
)
from vacfilter.metrics import (
    gain,
    gain_columns,
    sensitivity,
    success_probability,
)

E_MATCH = 5.3e-3


class TestSensitivity:
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_ideal_filter_scores_r(self, r):
        assert sensitivity(IdealOnOff(), r) / r == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("pd", [1e-4, 5e-3, 0.05])
    def test_apd_unit_efficiency_identity(self, pd):
        det = Apd(eta=1.0, dark_prob=pd)
        assert sensitivity(det, 0.5) / 0.5 == pytest.approx((1 - pd) ** 2, abs=1e-6)

    def test_apd_efficiency_scales_linearly(self):
        det = Apd(eta=0.63, dark_prob=1.4e-4)
        assert sensitivity(det, 0.4) / 0.4 == pytest.approx(
            0.63 * (1 - 1.4e-4) ** 2, abs=1e-8
        )

    def test_hds_finite_difference_vs_analytic_curvature(self):
        det = HomodyneStabilized(eta=0.84, threshold=threshold_for_error(E_MATCH))
        fd = sensitivity(det, 0.5)
        closed = sensitivity(det, 0.5, analytic=True)
        assert fd == pytest.approx(closed, abs=1e-8)

    def test_hdr_finite_difference_vs_analytic_curvature(self):
        det = HomodyneRandomized(eta=0.84, threshold=threshold_for_error(E_MATCH))
        assert sensitivity(det, 0.5) == pytest.approx(
            sensitivity(det, 0.5, analytic=True), abs=1e-7
        )

    def test_invalid_reflectivity(self):
        with pytest.raises(ValueError):
            sensitivity(IdealOnOff(), 0.0)


class TestSuccessProbability:
    def test_extremes(self):
        assert success_probability(1.0, 0.7, 0.1) == pytest.approx(0.7)
        assert success_probability(0.0, 0.7, 0.1) == pytest.approx(0.1)

    def test_reference_working_point(self):
        # acceptance 0.808 (ideal on/off at R|alpha|^2 = 1.65) with the
        # matched error floor gives P_S = 0.021354
        p_s = success_probability(0.02, 0.808, E_MATCH)
        assert p_s == pytest.approx(0.02 * 0.808 + 0.98 * E_MATCH, abs=1e-15)
        assert p_s == pytest.approx(0.02134, abs=2e-5)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            success_probability(1.2, 0.5, 0.1)

    def test_array_inputs_checked_elementwise(self):
        p_acc = np.array([0.2, 0.5, 0.9])
        p_s = success_probability(0.3, p_acc, 0.1)
        np.testing.assert_array_equal(p_s, [success_probability(0.3, a, 0.1) for a in p_acc])
        np.testing.assert_array_equal(gain(0.3, p_s, 0.1, p_accept=p_acc),
                                      [gain(0.3, s, 0.1, p_accept=a) for s, a in zip(p_s, p_acc)])
        with pytest.raises(ValueError):
            success_probability(0.3, np.array([0.2, 1.5]), 0.1)
        with pytest.raises(ValueError):
            gain(0.3, np.array([0.2, 0.0]), 0.1)


class TestGain:
    def test_error_free_gain_is_inverse_p(self):
        assert gain(0.02, success_probability(0.02, 0.6, 0.0), 0.0) == pytest.approx(50.0)

    def test_uninformative_filter_gain_is_one(self):
        p_s = success_probability(0.3, 0.2, 0.2)
        assert gain(0.3, p_s, 0.2, p_accept=0.2) == pytest.approx(1.0)

    def test_identity_with_acceptance_ratio(self):
        p, p_acc, e = 0.02, 0.808, E_MATCH
        p_s = success_probability(p, p_acc, e)
        assert gain(p, p_s, e, p_accept=p_acc) == pytest.approx(p_acc / p_s, abs=1e-12)

    def test_inconsistent_inputs_detected(self):
        with pytest.raises(ValueError, match="disagree"):
            gain(0.02, 0.05, E_MATCH, p_accept=0.9)

    def test_zero_success_rejected(self):
        with pytest.raises(ValueError):
            gain(0.02, 0.0, 0.0)

    @given(
        p=st.floats(0.005, 0.995),
        p_acc=st.floats(0.0, 1.0),
        e=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_gain_identity_and_bound(self, p, p_acc, e):
        # two algebraic forms of the gain agree to 1e-12, and G <= 1/p with
        # equality exactly when the filter makes no errors
        e = min(e, p_acc)
        p_s = success_probability(p, p_acc, e)
        if p_s <= 1e-12:
            return
        g = gain(p, p_s, e, p_accept=p_acc)
        assert g <= 1.0 / p + 1e-9
        if e == 0.0:
            assert g == pytest.approx(1.0 / p, rel=1e-12)
        elif (1 - p) * e / p_s > 1e-12:  # error term resolvable in floats
            assert g < 1.0 / p


    @given(
        log_p=st.floats(-9.0, -1.0),
        p_acc=st.floats(0.0, 1.0),
        e=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_consistency_check_holds_at_small_p(self, log_p, p_acc, e):
        # P_S = p P + (1-p) E is checked relative to P_S, a sum of nonnegative
        # terms, so consistent inputs pass however small p is, while the two
        # forms of G differ by rounding of order eps / p
        p = 10.0 ** log_p
        e = min(e, p_acc)
        p_s = success_probability(p, p_acc, e)
        if p_s <= 1e-12:
            return
        g = gain(p, p_s, e, p_accept=p_acc)
        assert g == pytest.approx(p_acc / p_s, rel=1e-12, abs=4.0 * np.finfo(float).eps / p)


class TestGainVsSuccessCurve:
    def test_points_satisfy_gain_relation(self):
        det = Apd(eta=1.0, dark_prob=E_MATCH)
        p = 0.02
        for p_s, g in zip(*gain_columns(det, p, np.linspace(0.0, 1.65, 12))[1:]):
            assert g == pytest.approx((1 - (1 - p) * E_MATCH / p_s) / p, abs=1e-12)

    def test_three_detectors_fall_on_one_curve(self):
        # with matched error probabilities the (P_S, G) relation is detector
        # independent: same P_S -> same G to 1e-12
        p = 0.02
        b = threshold_for_error(E_MATCH)
        dets = [
            Apd(eta=1.0, dark_prob=E_MATCH),
            HomodyneStabilized(eta=1.0, threshold=b),
            HomodyneRandomized(eta=1.0, threshold=b),
        ]
        grid = np.linspace(0.0, 1.65, 18)
        def curve(p_s):
            return (1 - (1 - p) * E_MATCH / p_s) / p
        for det in dets:
            for p_s, g in zip(*gain_columns(det, p, grid)[1:]):
                assert abs(g - curve(p_s)) < 1e-12

    def test_zero_photon_endpoint(self):
        det = Apd(eta=1.0, dark_prob=E_MATCH)
        _, (p_s,), (g,) = gain_columns(det, 0.02, [0.0])
        assert p_s == pytest.approx(E_MATCH, rel=1e-12)
        assert g == pytest.approx(1.0, rel=1e-9)

    def test_sensitivity_ordering_at_matched_error(self):
        b = threshold_for_error(E_MATCH)
        s_apd = sensitivity(Apd(eta=1.0, dark_prob=E_MATCH), 0.5)
        s_hds = sensitivity(HomodyneStabilized(eta=1.0, threshold=b), 0.5)
        s_hdr = sensitivity(HomodyneRandomized(eta=1.0, threshold=b), 0.5)
        assert s_apd > s_hds > s_hdr
