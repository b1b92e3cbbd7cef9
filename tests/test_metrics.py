"""Sensitivity, gain and success-probability figures of merit."""

import math

import numpy as np
import pytest
from finite_difference import FD_ABS, FD_REL, richardson_sensitivity
from hypothesis import assume, given, settings
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
B_E12 = threshold_for_error(1e-12)


@st.composite
def detectors(draw):
    """Any filter detector: all four kinds, both homodyne efficiency models."""
    kind = draw(st.sampled_from(["ideal", "apd", "hds", "hdr"]))
    if kind == "ideal":
        return IdealOnOff()
    eta = draw(st.floats(0.0, 1.0, exclude_min=True))
    if kind == "apd":
        return Apd(eta=eta, dark_prob=draw(st.floats(0.0, 1.0, exclude_max=True)))
    cls = HomodyneStabilized if kind == "hds" else HomodyneRandomized
    return cls(eta=eta, threshold=draw(st.floats(0.0, 4.0)),
               efficiency_model=draw(st.sampled_from(["linear", "sqrt"])))


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

    @settings(max_examples=300, deadline=None)
    @given(det=detectors(), tap=st.floats(0.0, 1.0, exclude_min=True))
    def test_closed_form_matches_finite_difference(self, det, tap):
        s = sensitivity(det, tap)
        assume(s >= 1e-6)
        assert richardson_sensitivity(det, tap) == pytest.approx(s, rel=FD_REL, abs=FD_ABS)

    @pytest.mark.parametrize("det, curvature", [
        (Apd(eta=0.8, dark_prob=0.999999), 2 * 0.8 * (1 - 0.999999) ** 2),
        (Apd(eta=0.63, dark_prob=0.999), 2 * 0.63 * (1 - 0.999) ** 2),
        # 8 B phi(B) eta^2, phi the vacuum quadrature density (variance 1/4)
        (HomodyneStabilized(eta=0.8, threshold=B_E12),
         8 * B_E12 * math.exp(-2 * B_E12 ** 2) / math.sqrt(0.5 * math.pi) * 0.8 ** 2),
    ], ids=["apd-pd-0.999999", "apd-pd-0.999", "hds-E-1e-12"])
    def test_closed_form_where_finite_differences_lose_digits(self, det, curvature):
        # S is 4e-13 for the first APD and 3e-11 for the HDS
        assert sensitivity(det, 0.5) == pytest.approx(0.5 * 0.5 * curvature, rel=1e-12, abs=0.0)

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
        g = gain(0.3, p_s, 0.1)
        np.testing.assert_array_equal(g, [gain(0.3, s, 0.1) for s in p_s])
        np.testing.assert_allclose(g, p_acc / p_s, rtol=1e-12)
        with pytest.raises(ValueError):
            success_probability(0.3, np.array([0.2, 1.5]), 0.1)
        with pytest.raises(ValueError):
            gain(0.3, np.array([0.2, 0.0]), 0.1)


class TestGain:
    def test_error_free_gain_is_inverse_p(self):
        assert gain(0.02, success_probability(0.02, 0.6, 0.0), 0.0) == pytest.approx(50.0)

    def test_uninformative_filter_gain_is_one(self):
        p_s = success_probability(0.3, 0.2, 0.2)
        assert gain(0.3, p_s, 0.2) == pytest.approx(1.0)
        assert gain(0.3, p_s, 0.2) == pytest.approx(0.2 / p_s, rel=1e-12)

    def test_identity_with_acceptance_ratio(self):
        p, p_acc, e = 0.02, 0.808, E_MATCH
        p_s = success_probability(p, p_acc, e)
        assert gain(p, p_s, e) == pytest.approx(p_acc / p_s, abs=1e-12)

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
        g = gain(p, p_s, e)
        assert g == pytest.approx(p_acc / p_s, rel=1e-12, abs=4.0 * np.finfo(float).eps / p)
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
        # with P_S = p P + (1-p) E the two forms of G, (1/p)(1 - (1-p) E / P_S)
        # and P / P_S, differ only by rounding of order eps / p, however small p is
        p = 10.0 ** log_p
        e = min(e, p_acc)
        p_s = success_probability(p, p_acc, e)
        if p_s <= 1e-12:
            return
        g = gain(p, p_s, e)
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
