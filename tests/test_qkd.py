"""Security analysis: the Gaussian-mixture reference evaluator (joint state,
click-conditioned covariance, key-rate formulas), the kernel against it, Fock
and a 50-digit evaluation, weak-squeezing behavior and threshold searches."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from qkd_reference import filtered_covariance, joint_state, key_rate, weak_squeezing_keyrate
from state_reference import number_state

from vacfilter import fock, qkd
from vacfilter.detectors import Apd, HomodyneStabilized, IdealOnOff
from vacfilter.gaussian import CovMatrix, NumericsError, mixture_covariance, symplectic_eigenvalues
from vacfilter.qkd import (
    KeyRateResult,
    QkdScenario,
    optimize_key_rate,
    p_min_search,
    scenario_key_rate,
)


def sym_cm(a, b, c):
    Z = np.diag([1.0, -1.0])
    m = np.zeros((4, 4))
    m[:2, :2] = a * np.eye(2)
    m[2:, 2:] = b * np.eye(2)
    m[:2, 2:] = c * Z
    m[2:, :2] = c * Z
    return m


class TestJointState:
    def test_perfect_channel_is_pure_squeezed_pair(self):
        state = joint_state(1.3, 1.0)
        nus = symplectic_eigenvalues(mixture_covariance(state))
        np.testing.assert_allclose(nus, [1.0, 1.0], atol=1e-10)

    def test_unit_variance_is_vacuum_everywhere(self):
        state = joint_state(1.0, 0.5)
        np.testing.assert_allclose(mixture_covariance(state), np.eye(4), atol=1e-12)

    def test_mixture_moments_match_fock(self):
        V, p, n_max = 1.2, 0.5, 25
        state = joint_state(V, p)
        cm = mixture_covariance(state)

        tmsv_cm = fock.covariance_matrix(fock.tmsv_state(V, n_max))
        # erased branch: Alice keeps her squeezed-pair marginal (thermal of
        # variance V, the reduced state of mode 0 of the pair), Bob gets vacuum
        erased_cm = np.eye(4)
        erased_cm[:2, :2] = tmsv_cm[:2, :2]
        np.testing.assert_allclose(cm, p * tmsv_cm + (1 - p) * erased_cm, atol=1e-6)

    def test_alphabet_variance_variant(self):
        V = 1.4
        state = joint_state(V, 0.0, erased_mode_variance="alphabet")
        cm = mixture_covariance(state)
        assert cm[0, 0] == pytest.approx((V + 1 / V) / 2)
        state = joint_state(V, 0.0, erased_mode_variance="marginal")
        assert mixture_covariance(state)[0, 0] == pytest.approx(V)


class TestFilteredCovariance:
    def test_unit_variance_never_clicks(self):
        sc = QkdScenario(V=1.0, p=1.0, filter=Apd(1.0, 0.0))
        with pytest.raises(NumericsError, match="degenerate"):
            filtered_covariance(sc)

    def test_ideal_filter_removes_vacuum_branch(self):
        # with an ideal tap detector the erased branch never clicks, so the
        # click-conditioned CM equals the click-conditioned squeezed branch,
        # computed here independently in the Fock basis
        V, p, T, n_max = 1.15, 0.6, 0.7, 25
        sc = QkdScenario(V=V, p=p, filter=Apd(1.0, 0.0), tap_reflectivity=1.0 - T)
        cv, p_s, p0 = filtered_covariance(sc)

        st = fock.tensor(fock.tmsv_state(V, n_max), fock.vacuum_state(n_max))
        st = fock.fock_beamsplitter(st, 1, 2, T)
        prob_click, cond = fock.povm_expectation(st, 2, fock.Click(1.0, 0.0))
        np.testing.assert_allclose(cv.mat, fock.covariance_matrix(cond)[:4, :4],
                                   atol=1e-9)
        assert p_s == pytest.approx(p * prob_click, abs=1e-9)

    def test_nonideal_filter_matches_fock_mixture(self):
        # full oracle: squeezed branch in the Fock basis plus the erased
        # branch decomposed into number states, recombined by the same
        # difference formula
        V, p, T, eta, pd, n_max = 1.1, 0.5, 0.7, 0.63, 0.005, 25
        sc = QkdScenario(V=V, p=p, filter=Apd(eta, pd), tap_reflectivity=1.0 - T)
        cv, p_s, p0 = filtered_covariance(sc)

        st = fock.tensor(fock.tmsv_state(V, n_max), fock.vacuum_state(n_max))
        st = fock.fock_beamsplitter(st, 1, 2, T)
        w1, cond1 = fock.povm_expectation(st, 2, fock.NoClick(eta, pd))
        cm1_all = fock.covariance_matrix(st)[:4, :4]
        cm1_cond = fock.covariance_matrix(cond1)[:4, :4]

        # erased branch: thermal(V) at Alice, vacuum at Bob and tap
        n_bar = (V - 1.0) / 2.0
        probs = n_bar ** np.arange(12) / (n_bar + 1.0) ** (np.arange(12) + 1.0)
        w2 = 0.0
        cm2_all = np.zeros((4, 4))
        cm2_cond = np.zeros((4, 4))
        for n, q in enumerate(probs):
            comp = number_state([n, 0, 0], n_max)
            comp = fock.fock_beamsplitter(comp, 1, 2, T)
            wn, condn = fock.povm_expectation(comp, 2, fock.NoClick(eta, pd))
            cm_n = fock.covariance_matrix(comp)[:4, :4]
            cm2_all += q * cm_n
            w2 += q * wn
            cm2_cond += q * wn * fock.covariance_matrix(condn)[:4, :4]
        tail = 1.0 - probs.sum()
        assert tail < 1e-8
        cm2_cond /= w2

        p0_oracle = p * w1 + (1 - p) * w2
        cv_all = p * cm1_all + (1 - p) * cm2_all
        cv_noclick = (p * w1 * cm1_cond + (1 - p) * w2 * cm2_cond) / p0_oracle
        cv_oracle = (cv_all - p0_oracle * cv_noclick) / (1.0 - p0_oracle)

        assert p0 == pytest.approx(p0_oracle, abs=1e-6)
        np.testing.assert_allclose(cv.mat, cv_oracle, atol=1e-6)

    def test_success_plus_failure_is_one(self):
        sc = QkdScenario(V=1.2, p=0.4, filter=Apd(0.8, 1e-3), tap_reflectivity=0.4)
        _, p_s, p0 = filtered_covariance(sc)
        assert p_s + p0 == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < p_s < 1.0

    def test_requires_filter(self):
        with pytest.raises(ValueError, match="filter"):
            filtered_covariance(QkdScenario(V=1.2, p=0.5))

    @pytest.mark.parametrize("p, T, eta, pd", [
        (0.05, 0.25, 1.0, math.exp(-16.1171875)),
        (0.7041724048309983, 0.4749403252543701, 0.14840452079743174, 1.1061454742371669e-07)])
    def test_vacuum_stays_vacuum_when_only_dark_counts_click(self, p, T, eta, pd):
        # V = 1 sends vacuum, so the clicks are dark counts and the kept state
        # is vacuum; forming it as CV_all - P0 CV_noclick over P_S ~ p_d leaves
        # rounding of order eps / p_d ~ 2e-9, below the physical set
        cv, p_s, _ = filtered_covariance(QkdScenario(1.0, p, Apd(eta, pd), tap_reflectivity=1.0 - T))
        np.testing.assert_allclose(cv.mat, np.eye(4), rtol=0.0, atol=1e-15)
        assert p_s == pytest.approx(pd, rel=1e-8)

    @pytest.mark.parametrize("erased", ["marginal", "alphabet"])
    @pytest.mark.parametrize("V", [1e3, 1e4])
    def test_corners_pass_the_covariance_checks(self, V, erased):
        # rounding is largest at the largest variances and the extreme p, T,
        # eta and p_d; every matrix must pass CovMatrix's checks as built (no
        # ValueError), while a degenerate P_S may raise NumericsError
        for p, T, eta, pd in itertools.product([0.0, 1e-6, 0.5, 1.0], [0.005, 0.995],
                                               [0.05, 1.0], [1e-7, 3e-2]):
            sc = QkdScenario(V, p, Apd(eta, pd), erased_mode_variance=erased,
                             tap_reflectivity=1.0 - T)
            try:
                _, p_s, p0 = filtered_covariance(sc)
            except NumericsError:
                continue
            assert 0.0 < p_s <= 1.0 and p_s + p0 == pytest.approx(1.0, abs=1e-12)


class TestKeyRate:
    def test_no_correlations_no_key(self):
        res = key_rate(CovMatrix(sym_cm(1.5, 1.2, 0.0)))
        assert res.i_ab == 0.0
        assert res.chi_be >= 0.0
        assert res.k_lower <= 0.0

    def test_pure_squeezed_pair_always_positive(self):
        for V in (1.01, 1.1, 1.5, 2.5, 4.0):
            res = scenario_key_rate(QkdScenario(V=V, p=1.0))
            assert res.k_lower > 0.0, f"V={V}"

    def test_information_quantities_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            a = rng.uniform(1.0, 4.0)
            b = rng.uniform(1.0, 4.0)
            cmax = np.sqrt(max((a - 1) * (b - 1), 0.0))
            c = rng.uniform(0.0, cmax)
            m = sym_cm(a, b, c)
            if symplectic_eigenvalues(m).min() < 1.0 - 1e-9:
                continue
            for protocol in ("heterodyne", "homodyne"):
                res = key_rate(CovMatrix(m), protocol=protocol)
                assert res.i_ab >= 0.0
                assert res.chi_be >= -1e-12

    def test_asymmetric_form_rejected(self):
        m = sym_cm(1.5, 1.2, 0.3)
        m[0, 0] += 1e-6  # x/p asymmetry beyond tolerance
        m[1, 1] -= 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            key_rate(CovMatrix(m))

    def test_multiplier_scales_rate(self):
        m = CovMatrix(sym_cm(1.5, 1.4, 0.8))
        r1 = key_rate(m, 1.0)
        r2 = key_rate(m, 0.25)
        assert r2.k_lower == pytest.approx(0.25 * r1.k_lower, rel=1e-12)


class TestWeakSqueezing:
    def test_trivial_zeros(self):
        assert weak_squeezing_keyrate(0.5, 0.1, 0.7, 1.0) == 0.0
        assert weak_squeezing_keyrate(0.5, 0.1, 0.0, 1.2) == 0.0

    def test_reference_arithmetic(self):
        # 1 * 0.1 * 0.5 * log2(e/2) * 0.9 * 0.01 = 1.9921e-4
        val = weak_squeezing_keyrate(1.0, 0.1, 0.9, 1.1)
        assert val == pytest.approx(1.992e-4, abs=1e-6)

    def test_against_full_rate_at_moderate_squeezing(self):
        # exact bound at V = 1.1, T = 0.9 sits within 15% of the closed form
        # with the P_S slot read as the tap fraction 1 - T
        sc = QkdScenario(V=1.1, p=1.0, filter=Apd(1.0, 0.0), tap_reflectivity=0.1)
        numeric = scenario_key_rate(sc).k_lower
        approx = weak_squeezing_keyrate(1.0, 0.1, 0.9, 1.1)
        assert approx == pytest.approx(numeric, rel=0.15)

    @pytest.mark.parametrize("T", [0.2, 0.5, 0.9])
    def test_ratio_approaches_one_toward_unit_variance(self, T):
        sc = QkdScenario(V=1.01, p=1.0, filter=Apd(1.0, 0.0), tap_reflectivity=1.0 - T)
        numeric = scenario_key_rate(sc).k_lower
        approx = weak_squeezing_keyrate(1.0, 1.0 - T, T, 1.01)
        assert approx / numeric == pytest.approx(1.0, abs=0.05)

    def test_nan_variance_rejected(self):
        with pytest.raises(ValueError, match="squeezing variance"):
            weak_squeezing_keyrate(0.5, 0.5, 0.5, float("nan"))

    def test_prefactor_conventions_coincide_at_unit_p(self):
        det = Apd(1.0, 0.0)
        a = scenario_key_rate(QkdScenario(V=1.05, p=1.0, filter=det, prefactor="ps"))
        b = scenario_key_rate(QkdScenario(V=1.05, p=1.0, filter=det, prefactor="p_ps"))
        assert a.k_lower == pytest.approx(b.k_lower, rel=1e-12)

    def test_prefactor_conventions_differ_by_p(self):
        det = Apd(1.0, 0.0)
        a = scenario_key_rate(QkdScenario(V=1.05, p=0.5, filter=det, prefactor="ps"))
        b = scenario_key_rate(QkdScenario(V=1.05, p=0.5, filter=det, prefactor="p_ps"))
        assert b.k_lower == pytest.approx(0.5 * a.k_lower, rel=1e-12)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def reference_rate(scenario):
    """The reference evaluator: the Gaussian-mixture covariance matrix of the
    scenario, then ``key_rate`` with the filter success probability as
    multiplier (times p under the "p_ps" prefactor)."""
    if scenario.filter is None:
        cm = mixture_covariance(
            joint_state(scenario.V, scenario.p, scenario.erased_mode_variance))
        return key_rate(CovMatrix(cm), 1.0, scenario.protocol, p_s=1.0)
    cm, p_s, _ = filtered_covariance(scenario)
    mult = p_s if scenario.prefactor == "ps" else scenario.p * p_s
    return key_rate(cm, mult, scenario.protocol, p_s=p_s)


def _terms(res):
    return res.k_lower, res.i_ab, res.chi_be, res.p_s


def _mp_entropy_g(y):
    return mpmath.mpf(0) if y <= 0 else (y + 1) * mpmath.log(y + 1, 2) - y * mpmath.log(y, 2)


def mp_kernel_terms(V, T, p, det, protocol, erased):
    """(K, I_ab, chi_bE, P_S) of the kernel's closed form in mpmath, at the
    working precision set by the caller; T is read only with a filter ``det``."""
    mpf, sqrt = mpmath.mpf, mpmath.sqrt
    V, p = mpf(V), mpf(p)
    w = V if erased == "marginal" else (V + 1 / V) / 2
    C = sqrt(V * V - 1)
    a, b, c = p * V + (1 - p) * w, p * V + 1 - p, p * C
    p_s = mpf(1)
    if det is not None:
        T, eta, pd = mpf(T), mpf(det.eta), mpf(det.dark_prob)
        r = 1 - T
        b, c = T * b + r, sqrt(T) * c
        p0 = 0
        for weight, A, B, Ck in ((p, V, V, C), (1 - p, w, mpf(1), mpf(0))):
            s = r * B + T + (2 / eta - 1)
            w_off = weight * (1 - pd) * (2 / eta) / s
            p0 += w_off
            a -= w_off * (A - r * Ck * Ck / s)
            b -= w_off * (T * B + r - T * r * (1 - B) ** 2 / s)
            c -= w_off * sqrt(T) * Ck * (1 + r * (1 - B) / s)
        p_s = 1 - p0
        a, b, c = a / p_s, b / p_s, c / p_s
    nu_plus = sqrt((a * a + b * b - 2 * c * c + abs(a - b) * sqrt((a + b) ** 2 - 4 * c * c)) / 2)
    nu_minus = (a * b - c * c) / nu_plus
    if protocol == "heterodyne":
        i_ab = mpmath.log((a + 1) / (a + 1 - c * c / (b + 1)), 2)
        nu3 = a - c * c / (b + 1)
    else:
        i_ab = mpmath.log((a + 1) / (a + 1 - c * c / b), 2) / 2
        nu3 = sqrt(max(a * (a - c * c / b), 0))
    chi = (_mp_entropy_g((nu_plus - 1) / 2) + _mp_entropy_g((nu_minus - 1) / 2)
           - _mp_entropy_g((nu3 - 1) / 2))
    return p_s * (i_ab - chi), i_ab, chi, p_s


_BRANCH_DOMAIN = dict(
    T=st.floats(0.005, 0.995),
    eta=st.floats(0.05, 1.0),
    pd=_log_uniform(1e-7, 3e-2),
    erased=st.sampled_from(["marginal", "alphabet"]))
_SCENARIO_DOMAIN = dict(
    _BRANCH_DOMAIN,
    filtered=st.booleans(),
    protocol=st.sampled_from(["heterodyne", "homodyne"]))
# Falsified the reference comparison while the kernel's click weights were
# 1 - P0 differences: the kernel's chi_bE was 1.24e-10 off (P_S ~ 0.01).
_CANCELLATION_EXAMPLE = dict(V=math.exp(3.0), p=1.0, T=0.995, eta=0.078125, pd=math.exp(-5.0),
                             filtered=True, erased="marginal")


class TestKeyRateKernel:
    """``scenario_key_rate`` runs the closed-form kernel; the Gaussian-mixture
    reference evaluator and a 50-digit evaluation of the closed form stay its
    oracles."""

    @settings(max_examples=300, deadline=None)
    @given(V=st.one_of(st.just(1.0), _log_uniform(1.001, 60.0)),
           p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
           **_SCENARIO_DOMAIN)
    @example(**_CANCELLATION_EXAMPLE, protocol="heterodyne")
    @example(**_CANCELLATION_EXAMPLE, protocol="homodyne")
    def test_kernel_matches_the_reference_evaluator(self, V, p, T, eta, pd, filtered,
                                                    protocol, erased):
        sc = QkdScenario(V, p, Apd(eta, pd) if filtered else None, protocol, erased,
                         tap_reflectivity=1.0 - T)
        res, ref = scenario_key_rate(sc), reference_rate(sc)
        assert abs(res.k_lower - ref.k_lower) <= 1e-10
        assert abs(res.p_s - ref.p_s) <= 1e-10
        # worst cases over this domain (1e5 random scenarios and 2,688 corners):
        # 8.0e-14 for I_ab, 3.0e-11 for chi_bE, whose symplectic spectrum the
        # reference takes from a non-symmetric eigenproblem
        assert abs(res.i_ab - ref.i_ab) <= 1e-12
        assert abs(res.chi_be - ref.chi_be) <= 1e-10

    @settings(max_examples=300, deadline=None)
    @given(V=_log_uniform(1.001, 60.0), p=st.floats(0.0, 1.0, exclude_min=True),
           **_SCENARIO_DOMAIN)
    @example(**_CANCELLATION_EXAMPLE, protocol="heterodyne")
    @example(**_CANCELLATION_EXAMPLE, protocol="homodyne")
    def test_kernel_matches_a_50_digit_evaluation(self, V, p, T, eta, pd, filtered,
                                                  protocol, erased):
        det, R = Apd(eta, pd) if filtered else None, 1.0 - T
        k = scenario_key_rate(QkdScenario(V, p, det, protocol, erased, tap_reflectivity=R)).k_lower
        with mpmath.workdps(50):
            exact = mp_kernel_terms(V, 1.0 - R, p, det, protocol, erased)[0]
        assert abs(k - float(exact)) <= 1e-10 * max(1.0, abs(k))

    @pytest.mark.parametrize("det, R", [(None, 0.5), (Apd(1.0, 1e-7), 0.005),
                                        (Apd(0.63, 5e-4), 0.5)])
    @pytest.mark.parametrize("p", [0.5, 0.999, 1.0])
    def test_every_term_within_1e_6_up_to_the_variance_limit(self, p, det, R):
        # near-pure states lose digits in a b - c^2 as V^2 (p = 1, no filter)
        for V in np.linspace(9e3, qkd.MAX_VARIANCE, 7):
            res = scenario_key_rate(QkdScenario(V, p, det, tap_reflectivity=R))
            with mpmath.workdps(50):
                exact = mp_kernel_terms(V, 1.0 - R, p, det, "heterodyne", "marginal")
            for term, x in zip(_terms(res), exact):
                assert abs(term - float(x)) <= 1e-6 * max(1.0, abs(float(x))), f"V={V}"

    def test_degenerate_success_probability_raises(self):
        # V = 1 is vacuum everywhere: an ideal tap detector never clicks
        with pytest.raises(NumericsError, match="degenerate"):
            qkd.filtered_covariance(np.array([1.0, 1.2]), np.array([0.5, 0.5]), 0.5,
                                    Apd(1.0, 0.0), "marginal")

    @pytest.mark.parametrize("det", [None, Apd(0.63, 5e-4)])
    def test_non_finite_rate_raises(self, det):
        # np.argmax would return the index of the NaN as the optimum
        with pytest.raises(NumericsError, match="finite"):
            qkd.key_rate(*qkd.filtered_covariance(np.array([1.2, np.nan]),
                                                  np.array([0.5, 0.5]), 0.5, det, "marginal"),
                         "heterodyne")


class TestKernelAgainstFock:
    """``qkd.filtered_covariance`` against the truncated-Fock oracle on the
    squeezed branch (p = 1), against the closed values of the erased branch
    (p = 0), and as the weight-mixed combination of the two at any p."""

    @settings(max_examples=25, deadline=None)
    @given(V=st.floats(1.0, 3.5), T=st.floats(0.005, 0.995), eta=st.floats(0.05, 1.0),
           pd=_log_uniform(1e-7, 3e-2))
    def test_squeezed_branch_matches_fock(self, V, T, eta, pd):
        # n_max 40 keeps the squeezed pair's truncated tail below 1e-10 up to V = 3.5
        a, b, c, p_s = qkd.filtered_covariance(V, T, 1.0, Apd(eta, pd), "marginal")
        state = fock.tensor(fock.tmsv_state(V, 40), fock.vacuum_state(40))
        state = fock.fock_beamsplitter(state, 1, 2, T)
        prob_click, cond = fock.povm_expectation(state, 2, fock.Click(eta, pd))
        assert abs(p_s - prob_click) <= 1e-10
        np.testing.assert_allclose(sym_cm(a, b, c), fock.covariance_matrix(cond)[:4, :4],
                                   rtol=0.0, atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(V=_log_uniform(1.0, 1e4), **_BRANCH_DOMAIN)
    def test_erased_branch_closed_values(self, V, T, eta, pd, erased):
        # vacuum at Bob: only dark counts click, and Alice keeps her variance w
        a, b, c, p_s = qkd.filtered_covariance(V, T, 0.0, Apd(eta, pd), erased)
        w = V if erased == "marginal" else (V + 1.0 / V) / 2.0
        assert p_s == pytest.approx(pd, rel=1e-14)
        assert (a, b, c) == (pytest.approx(w, rel=1e-14), pytest.approx(1.0, rel=1e-14), 0.0)

    @settings(max_examples=100, deadline=None)
    @given(V=_log_uniform(1.001, 1e4), p=st.floats(0.0, 1.0), **_BRANCH_DOMAIN)
    def test_any_p_mixes_the_two_branches(self, V, p, T, eta, pd, erased):
        det = Apd(eta, pd)
        a, b, c, p_s = qkd.filtered_covariance(V, T, p, det, erased)
        a1, b1, c1, q1 = qkd.filtered_covariance(V, T, 1.0, det, erased)
        a0, b0, c0, q0 = qkd.filtered_covariance(V, T, 0.0, det, erased)
        assert p_s == pytest.approx(p * q1 + (1.0 - p) * q0, rel=1e-12)
        for x, x1, x0 in ((a, a1, a0), (b, b1, b0), (c, c1, c0)):
            mixed = (p * q1 * x1 + (1.0 - p) * q0 * x0) / (p * q1 + (1.0 - p) * q0)
            assert x == pytest.approx(mixed, rel=1e-12, abs=1e-300)


# The seed formula: the kernel as first written, one loop over the two
# branches and key_rate's expression, frozen verbatim.  The two-stage kernel
# (p-independent branch terms, then the weights p and 1 - p) must reproduce it
# bit for bit, so that no published threshold or golden file moves.
def _seed_entropy_g(y):
    y = np.asarray(y, dtype=float)
    off = y <= 0.0
    y_on = np.where(off, 1.0, y)  # keeps log2 away from zero and negatives
    g = np.where(off, 0.0, (y_on + 1.0) * np.log2(y_on + 1.0) - y_on * np.log2(y_on))
    return float(g) if g.ndim == 0 else g


def _seed_filtered_covariance(V, T, p, det, erased_mode_variance):
    w = V if erased_mode_variance == "marginal" else (V + 1.0 / V) / 2.0
    C = np.sqrt(V * V - 1.0)
    if det is None:
        a = p * V + (1.0 - p) * w
        return a, p * V + 1.0 - p, p * C, np.ones_like(a)
    r = 1.0 - T
    kappa = (1.0 - det.dark_prob) * (2.0 / det.eta)
    a = b = c = p_s = 0.0
    for weight, A, B, Ck in ((p, V, V, C), (1.0 - p, w, 1.0, 0.0)):
        s = r * B + T + (2.0 / det.eta - 1.0)
        q = (r * (B - 1.0) + 2.0 * det.dark_prob / det.eta) / s  # 1 - kappa / s
        loss = kappa * r / (s * s)
        p_s = p_s + weight * q
        a = a + weight * (A * q + loss * Ck * Ck)
        b = b + weight * ((T * B + r) * q + loss * T * (B - 1.0) ** 2)
        c = c + weight * np.sqrt(T) * Ck * (q + loss * (B - 1.0))
    if np.any(p_s <= qkd.MIN_SUCCESS_PROB):
        raise NumericsError(f"filter success probability degenerate (P_S = {np.min(p_s):.3e})")
    return a / p_s, b / p_s, c / p_s, p_s


def _seed_key_rate(a, b, c, p_s, protocol):
    D = a * b - c * c
    nu_plus = np.sqrt((a * a + b * b - 2.0 * c * c
                       + np.abs(a - b) * np.sqrt((a + b) ** 2 - 4.0 * c * c)) / 2.0)
    if protocol == "heterodyne":
        i_ab = np.log2((a + 1.0) / (a + 1.0 - c * c / (b + 1.0)))
        nu3 = a - c * c / (b + 1.0)
    else:
        i_ab = 0.5 * np.log2((a + 1.0) / (a + 1.0 - c * c / b))
        nu3 = np.sqrt(np.maximum(a * (a - c * c / b), 0.0))
    g_plus = _seed_entropy_g((nu_plus - 1.0) / 2.0)
    g_minus = _seed_entropy_g((D / nu_plus - 1.0) / 2.0)
    g3 = _seed_entropy_g((nu3 - 1.0) / 2.0)
    k = p_s * (i_ab - g_plus - g_minus + g3)
    if not np.all(np.isfinite(k)):
        raise NumericsError("key rate not finite on the (V, T) grid")
    return k, i_ab, g_plus + g_minus - g3, p_s


def _kernel_terms(filtered_covariance, key_rate, V, T, p, det, erased, protocol):
    """(a, b, c, P_S, K, I_ab, chi_bE) of one kernel, or its NumericsError's message."""
    try:
        a, b, c, p_s = filtered_covariance(V, T, p, det, erased)
        return (a, b, c, p_s, *key_rate(a, b, c, p_s, protocol)[:3])
    except NumericsError as exc:
        return str(exc)


_P_DRAWS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestKernelIsTheSeedFormula:
    """The two-stage kernel against the frozen seed formula, with
    ``np.array_equal`` (exact), not a tolerance."""

    def _assert_bit_identical(self, V, T, p, det, erased, protocol):
        # the seed formula runs on arrays, where x ** 2 is x * x; on Python
        # floats it would be C pow(), which the kernel avoids, so a scalar
        # (V, T) is scored by the seed formula as a one-point grid
        seed = _kernel_terms(_seed_filtered_covariance, _seed_key_rate, np.full((1, 1), V)
                             if np.ndim(V) == 0 else V, T, p, det, erased, protocol)
        kernel = _kernel_terms(qkd.filtered_covariance, qkd.key_rate, V, T, p, det, erased,
                               protocol)
        if isinstance(seed, str) or isinstance(kernel, str):
            assert kernel == seed
            return
        for name, x, y in zip(["a", "b", "c", "P_S", "K", "I_ab", "chi_bE"], kernel, seed):
            assert np.array_equal(x, np.reshape(y, np.shape(x))), name

    @settings(max_examples=300, deadline=None)
    @given(V=st.one_of(st.just(1.0), _log_uniform(1.0, 1e4)), p=_P_DRAWS, **_SCENARIO_DOMAIN)
    def test_scalars(self, V, p, T, eta, pd, filtered, protocol, erased):
        self._assert_bit_identical(V, T, p, Apd(eta, pd) if filtered else None, erased,
                                   protocol)

    @settings(max_examples=100, deadline=None)
    @given(vs=st.lists(_log_uniform(1.0, 1e4), min_size=1, max_size=7),
           ts=st.lists(_BRANCH_DOMAIN["T"], min_size=1, max_size=7), p=_P_DRAWS,
           **{k: v for k, v in _SCENARIO_DOMAIN.items() if k != "T"})
    def test_grids(self, vs, ts, p, eta, pd, filtered, protocol, erased):
        self._assert_bit_identical(np.array(vs)[:, None], np.array(ts)[None, :], p,
                                   Apd(eta, pd) if filtered else None, erased, protocol)

    @pytest.mark.parametrize("protocol", ["heterodyne", "homodyne"])
    @pytest.mark.parametrize("p, det, erased", [(0.9, None, "marginal"),
                                                (0.3, Apd(0.63, 5e-3), "alphabet"),
                                                (0.02685, Apd(0.63, 5e-4), "marginal"),
                                                (0.01, Apd(1.0, 0.0), "marginal")])
    def test_coarse_grid_points_equal_one_point_calls(self, p, det, erased, protocol):
        # the argmax reads the hoisted coarse grid, so each of its points must
        # score what a one-point (V, T) grid would, wherever it sits
        coarse = qkd._branch_terms(qkd._V_COARSE[:, None], qkd._T_COARSE[None, :], det, erased)
        grid = qkd.key_rate(*qkd._mix(coarse, p, det), protocol)
        ts = qkd._T_COARSE if det is not None else [1.0]
        for i, V in enumerate(qkd._V_COARSE):
            for j, T in enumerate(ts):
                point = qkd.key_rate(*qkd.filtered_covariance(np.array([[V]]), np.array([[T]]), p,
                                                              det, erased), protocol)
                for x, y in zip(grid, point):
                    assert np.array_equal(x[i, j], y[0, 0]), (V, T)

    @pytest.mark.parametrize("protocol", ["heterodyne", "homodyne"])
    @pytest.mark.parametrize("det", [Apd(1.0, 0.0), Apd(0.63, 5e-4), None])
    def test_coarse_grid_points_equal_python_float_calls(self, det, protocol):
        # single-point `qkd keyrate` calls the kernel on Python floats; a square
        # taken there with C pow() instead of the grid's x * x moves 8 of these
        # 27,648 points (all with Apd(1, 0)) in their last bits
        coarse = qkd._branch_terms(qkd._V_COARSE[:, None], qkd._T_COARSE[None, :], det,
                                   "marginal")
        for p in (0.01, 0.05, 0.5):
            grid = qkd.key_rate(*qkd._mix(coarse, p, det), protocol)
            for i, V in enumerate(qkd._V_COARSE):
                for j, T in enumerate(qkd._T_COARSE):
                    point = qkd.key_rate(*qkd.filtered_covariance(float(V), float(T), p, det,
                                                                  "marginal"), protocol)
                    for x, y in zip(grid, point):
                        assert x[i, j if det is not None else 0] == y, (p, V, T)


class TestCoarseTermsHoisted:
    @pytest.mark.parametrize("precision", [1e-3, 1e-6])
    def test_one_coarse_branch_evaluation_per_search(self, precision, monkeypatch):
        shapes = []
        branch_terms = qkd._branch_terms

        def counted(V, T, det, erased):
            shapes.append(np.broadcast_shapes(np.shape(V), np.shape(T)))
            return branch_terms(V, T, det, erased)

        monkeypatch.setattr(qkd, "_branch_terms", counted)
        res = p_min_search(Apd(0.63, 5e-4), precision=precision)
        coarse = (len(qkd._V_COARSE), len(qkd._T_COARSE))
        assert coarse == (48, 32)
        assert shapes.count(coarse) == 1
        # each step scores its two refinement rounds through filtered_covariance
        assert len(shapes) == 1 + qkd.REFINE_ROUNDS * len(res.trace)


def _brute_optimum(p, det):
    """The optimizer's grid schedule with one reference evaluation per point."""
    def scan(vs, ts, best, best_vt):
        for V in vs:
            for T in ts:
                res = reference_rate(QkdScenario(V=V, p=p, filter=det,
                                                 tap_reflectivity=1.0 - T))
                if best is None or res.k_lower > best.k_lower:
                    best, best_vt = res, (V, T)
        return best, best_vt

    t_values = [1.0] if det is None else list(qkd._T_COARSE)
    best, best_vt = scan(qkd._V_COARSE, t_values, None, None)
    v_span = float(qkd._V_COARSE[1] - qkd._V_COARSE[0]) * 2.0
    t_span = float(qkd._T_COARSE[1] - qkd._T_COARSE[0]) * 2.0 if det is not None else 0.0
    for _ in range(qkd.REFINE_ROUNDS):
        v0, t0 = best_vt
        vs = np.linspace(max(1.0005, v0 - v_span), v0 + v_span, 9)
        ts = [1.0] if det is None else np.linspace(
            max(0.005, t0 - t_span), min(0.995, t0 + t_span), 9)
        best, best_vt = scan(vs, ts, best, best_vt)
        v_span /= 3.0
        t_span /= 3.0
    return best, best_vt


class TestOptimizerHotPath:
    @pytest.mark.parametrize("p, det", [(0.01, Apd(1.0, 0.0)), (0.9, None)])
    def test_no_reference_call_and_same_optimum_as_brute_loop(self, p, det, monkeypatch,
                                                              no_reference_evaluator):
        res = optimize_key_rate(p, det)

        monkeypatch.undo()
        brute, brute_vt = _brute_optimum(p, det)
        assert res.optimizer == brute_vt
        assert abs(res.k_lower - brute.k_lower) <= 1e-12


class TestOptimizationAndThresholds:
    def test_no_filter_threshold(self):
        res = p_min_search(None, precision=2e-3)
        assert res.p_min == pytest.approx(0.87, abs=0.01)
        assert not res.bounded_below
        assert len(res.trace) > 4

    def test_ideal_filter_secure_at_tiny_p(self):
        res = optimize_key_rate(0.01, Apd(1.0, 0.0))
        assert res.k_lower > 0.0
        assert res.optimizer is not None

    def test_ideal_filter_beats_no_filter(self):
        for p in (0.3, 0.6, 0.9):
            with_filter = optimize_key_rate(p, Apd(1.0, 0.0)).k_lower
            without = optimize_key_rate(p, None).k_lower
            assert with_filter >= without - 1e-9, f"p={p}"

    def test_dark_counts_hurt_at_fixed_point(self):
        # more dark counts, less key at the same working point
        quiet = optimize_key_rate(0.1, Apd(0.63, 5e-5)).k_lower
        noisy = optimize_key_rate(0.1, Apd(0.63, 5e-3)).k_lower
        assert quiet > noisy

    def test_homodyne_fallback_close_to_heterodyne(self):
        het = p_min_search(None, precision=5e-3, protocol="heterodyne").p_min
        hom = p_min_search(None, precision=5e-3, protocol="homodyne").p_min
        assert abs(het - hom) < 0.02

    def test_alphabet_variance_shifts_threshold(self):
        res = p_min_search(None, precision=5e-3, erased_mode_variance="alphabet")
        assert res.p_min == pytest.approx(0.846, abs=0.01)

    @staticmethod
    def _forbid_evaluation(monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a key rate was evaluated")

        monkeypatch.setattr(qkd, "optimize_key_rate", never)
        monkeypatch.setattr(qkd, "_branch_terms", never)
        monkeypatch.setattr(qkd, "filtered_covariance", never)
        monkeypatch.setattr(qkd, "key_rate", never)

    @pytest.mark.parametrize("precision", [float("nan"), 0.0, -1.0, 1.0])
    def test_invalid_precision_rejected_before_any_optimization(self, precision, monkeypatch):
        self._forbid_evaluation(monkeypatch)
        with pytest.raises(ValueError, match="precision"):
            p_min_search(None, precision=precision)
        with pytest.raises(ValueError, match="precision"):
            p_min_search(Apd(0.63, 5e-4), precision=precision)

    @pytest.mark.parametrize("kwargs, message", [
        ({"protocol": "direct"}, "protocol"),
        ({"erased_mode_variance": "thermal"}, "erased_mode_variance"),
    ])
    def test_invalid_scenario_rejected_before_any_optimization(self, kwargs, message,
                                                               monkeypatch):
        self._forbid_evaluation(monkeypatch)
        with pytest.raises(ValueError, match=message):
            p_min_search(None, **kwargs)
        with pytest.raises(ValueError, match=message):
            p_min_search(Apd(0.63, 5e-4), **kwargs)


# p_min at the published settings (filter APD efficiency 0.63) and precision
# 1e-3, as first computed with one Gaussian-mixture evaluation per bisection step
PUBLISHED_P_MIN = {
    None: 0.8697592764741212,
    5e-3: 0.21806787087646484,
    5e-4: 0.026853027317871096,
    5e-5: 0.002463378904785157,
}


def _published_filter(pd):
    return None if pd is None else Apd(0.63, pd)


class TestPminOnTheKernel:
    """The bisection and the optimizer read one kernel grid optimum."""

    @pytest.mark.parametrize("precision", [1e-3, 1e-6])
    @pytest.mark.parametrize("pd", list(PUBLISHED_P_MIN))
    def test_trace_matches_the_optimizer(self, pd, precision):
        det = _published_filter(pd)
        for p, k in p_min_search(det, precision=precision).trace:
            assert k == optimize_key_rate(p, det).k_lower, f"p={p}"

    @pytest.mark.parametrize("pd, p_min", list(PUBLISHED_P_MIN.items()))
    def test_published_thresholds_unchanged(self, pd, p_min):
        assert p_min_search(_published_filter(pd), precision=1e-3).p_min == p_min


class TestResultTypes:
    def test_key_rate_result_fields(self):
        res = scenario_key_rate(QkdScenario(V=1.2, p=1.0))
        assert isinstance(res, KeyRateResult)
        assert res.k_lower == pytest.approx(res.multiplier * (res.i_ab - res.chi_be))

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            QkdScenario(V=0.9, p=0.5)
        for V in (float("nan"), float("inf"), np.nextafter(qkd.MAX_VARIANCE, np.inf)):
            with pytest.raises(ValueError, match=r"squeezing variance must lie in \[1, 10000\]"):
                QkdScenario(V=V, p=0.5, filter=Apd(0.63, 5e-4))
        with pytest.raises(ValueError):
            QkdScenario(V=1.1, p=1.5)
        with pytest.raises(ValueError):
            QkdScenario(V=1.1, p=0.5, protocol="direct")

    @pytest.mark.parametrize("det", [HomodyneStabilized(eta=0.9, threshold=0.5), IdealOnOff()])
    def test_filter_must_be_an_apd(self, det):
        with pytest.raises(TypeError, match="must be a detectors.Apd"):
            QkdScenario(V=1.1, p=0.5, filter=det)

    @pytest.mark.parametrize("R", [0.0, 1.0, float("nan")])
    def test_tap_reflectivity_checked_only_with_a_filter(self, R):
        # the tap is checked before V
        with pytest.raises(ValueError, match=r"tap reflectivity must lie in \(0, 1\), got "):
            QkdScenario(V=0.9, p=0.5, filter=Apd(0.63, 5e-4), tap_reflectivity=R)
        assert QkdScenario(V=1.1, p=0.5, tap_reflectivity=R).filter is None

    def test_positional_fields_keep_their_order(self):
        # the tap is the last field, so positional calls written before it
        # existed still reach protocol, erased_mode_variance and prefactor
        sc = QkdScenario(1.1, 0.5, None, "homodyne", "alphabet", "p_ps")
        assert (sc.protocol, sc.erased_mode_variance, sc.prefactor) == ("homodyne", "alphabet",
                                                                        "p_ps")
        assert sc.tap_reflectivity == 0.5
