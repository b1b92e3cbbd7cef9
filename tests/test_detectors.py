"""Detector closed forms: acceptance probabilities, error probabilities,
threshold inversion, and the orderings behind the detector comparison."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfc

from vacfilter import detectors, fock
from vacfilter.detectors import (
    Apd,
    Homodyne,
    HomodyneRandomized,
    HomodyneStabilized,
    IdealOnOff,
    acceptance_curvature,
    acceptance_probability,
    effective_displacement,
    error_probability,
    threshold_for_error,
)

E_MATCH = 5.3e-3


class TestAcceptanceProbability:
    def test_apd_at_zero_is_dark_count(self):
        det = Apd(eta=0.63, dark_prob=1.4e-4)
        assert acceptance_probability(det, 0.0) == pytest.approx(1.4e-4, rel=1e-12)

    def test_homodyne_zero_threshold_accepts_everything(self):
        for cls in (HomodyneStabilized, HomodyneRandomized):
            det = cls(eta=0.84, threshold=0.0)
            for a in (0.0, 0.3, 1.2):
                assert acceptance_probability(det, a) == pytest.approx(1.0, abs=1e-9)

    def test_ideal_on_off_closed_form_vs_photon_counting(self):
        # independent oracle: Poisson photon statistics, accept iff n >= 1
        n_mean = 1.65
        expected = 1.0 - np.exp(-n_mean)
        assert acceptance_probability(IdealOnOff(), np.sqrt(n_mean)) == pytest.approx(
            expected, rel=1e-12
        )
        rng = np.random.default_rng(901)
        draws = rng.poisson(n_mean, size=10**6)
        p_hat = np.mean(draws > 0)
        se = np.sqrt(expected * (1 - expected) / 10**6)
        assert abs(p_hat - expected) < 3 * se

    def test_apd_matches_fock_povm(self):
        # the APD closed form equals a click POVM with effective efficiency
        # eta (1 - p_d) on Poisson statistics
        eta, pd, n_mean = 0.63, 1.4e-4, 1.65
        det = Apd(eta=eta, dark_prob=pd)
        beta = np.sqrt(n_mean)
        st = fock.coherent_state(beta, 40)
        prob, _ = fock.povm_expectation(st, 0, fock.Click(eta * (1 - pd), pd))
        assert acceptance_probability(det, beta) == pytest.approx(prob, abs=1e-9)

    def test_hds_matches_fock_quadrature_interval(self):
        # microscopic check of the threshold rule at unit efficiency:
        # accept iff |x| > B on a coherent state's quadrature distribution
        B, beta = 0.9, 0.7
        det = HomodyneStabilized(eta=1.0, threshold=B)
        st = fock.coherent_state(beta, 40)
        prob_in, _ = fock.povm_expectation(st, 0, fock.QuadratureInterval(-B, B))
        assert acceptance_probability(det, beta) == pytest.approx(1.0 - prob_in, abs=1e-9)

    def test_hdr_reduces_to_error_at_zero_amplitude(self):
        det = HomodyneRandomized(eta=0.84, threshold=1.1)
        assert acceptance_probability(det, 0.0) == pytest.approx(
            erfc(np.sqrt(2) * 1.1), rel=1e-12
        )

    def test_hdr_quadrature_against_dense_sum(self):
        det = HomodyneRandomized(eta=0.84, threshold=1.0)
        a = 0.84 * 1.2
        thetas = np.linspace(-np.pi, np.pi, 200001)
        riemann = np.trapezoid(erfc(np.sqrt(2) * (1.0 - a * np.cos(thetas))), thetas) / (2 * np.pi)
        assert acceptance_probability(det, 1.2) == pytest.approx(riemann, abs=1e-9)

    def test_hdr_grid_in_bounded_memory(self):
        # 20,001 amplitudes up to a = 10 take 112 nodes: one (points x nodes)
        # array of them would hold 17.9 MB
        det = HomodyneRandomized(eta=1.0, threshold=1.0)
        b = np.linspace(0.0, 10.0, 20001)
        tracemalloc.start()
        try:
            p = acceptance_probability(det, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        n = 32 + 8 * 10
        cos = np.cos((np.arange(n) + 0.5) * (np.pi / n))
        whole = erfc(np.sqrt(2.0) * (1.0 - b[..., None] * cos)).mean(axis=-1)
        np.testing.assert_array_equal(p, whole)
        np.testing.assert_array_equal(acceptance_probability(det, b.reshape(3, -1)),
                                      whole.reshape(3, -1))

    def test_hdr_memory_does_not_grow_with_the_largest_amplitude(self):
        # R|alpha|^2 up to 1e8 takes 80,032 nodes; 1,024-row chunks of them
        # once peaked at 124 MiB
        det = HomodyneRandomized(eta=1.0, threshold=threshold_for_error(0.01))
        b = np.sqrt(np.linspace(0.0, 1e8, 101))
        tracemalloc.start()
        try:
            p = acceptance_probability(det, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert p[0] == pytest.approx(0.01, rel=1e-12)
        assert np.all(np.diff(p) > 0.0) and p[-1] < 1.0

    def test_hdr_memory_stays_bounded_above_2_20_nodes(self):
        # a = 1e6 takes 8,000,032 nodes, summed in slices of 2**20; one array
        # of them would hold 61 MiB
        det = HomodyneRandomized(eta=1.0, threshold=threshold_for_error(0.01))
        tracemalloc.start()
        try:
            p = acceptance_probability(det, 1e6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # far above the threshold only the phases with a cos t < B reject
        assert p == pytest.approx(2.0 / np.pi * np.arccos(det.threshold / 1e6), abs=1e-12)

    def test_hdr_sliced_nodes_match_the_whole_node_set(self):
        # a = 131,100 takes 1,048,832 nodes, just above 2**20
        det = HomodyneRandomized(eta=1.0, threshold=0.7)
        b = np.array([0.0, 50.0, 131_100.0])
        n = 32 + 8 * 131_100
        cos = np.cos((np.arange(n) + 0.5) * (np.pi / n))
        whole = [erfc(np.sqrt(2.0) * (0.7 - x * cos)).mean() for x in b]
        np.testing.assert_allclose(acceptance_probability(det, b), whole, rtol=1e-15, atol=0.0)

    def test_hdr_values_do_not_depend_on_the_chunking(self):
        # a = 300 takes 2,432 nodes and 431-row chunks; with the largest
        # amplitude first, each value also comes from a two-row call
        det = HomodyneRandomized(eta=1.0, threshold=0.7)
        b = np.random.default_rng(3).uniform(0.0, 300.0, 1000)
        b[0] = 300.0
        vals = acceptance_probability(det, b)
        pairs = [acceptance_probability(det, np.array([b[0], x]))[1] for x in b[1:]]
        np.testing.assert_array_equal(vals[1:], pairs)

    def test_apd_reduces_to_ideal(self):
        det = Apd(eta=1.0, dark_prob=0.0)
        for b in (0.0, 0.4, 1.0, 1.7):
            assert acceptance_probability(det, b) == pytest.approx(
                acceptance_probability(IdealOnOff(), b), rel=1e-12
            )

    def test_strictly_increasing_in_amplitude(self):
        b_grid = np.linspace(0.0, 1.6, 33)
        dets = [
            IdealOnOff(),
            Apd(eta=0.63, dark_prob=1.4e-4),
            HomodyneStabilized(eta=0.84, threshold=threshold_for_error(E_MATCH)),
            HomodyneRandomized(eta=0.84, threshold=threshold_for_error(E_MATCH)),
        ]
        for det in dets:
            vals = [acceptance_probability(det, b) for b in b_grid]
            assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_complex_amplitude_uses_magnitude(self):
        det = Apd(eta=0.8, dark_prob=1e-3)
        assert acceptance_probability(det, 0.6 + 0.8j) == pytest.approx(
            acceptance_probability(det, 1.0), rel=1e-12
        )

    def test_sqrt_efficiency_model(self):
        lin = HomodyneStabilized(eta=0.81, threshold=1.0)
        srt = HomodyneStabilized(eta=0.81, threshold=1.0, efficiency_model="sqrt")
        assert acceptance_probability(srt, 1.0) == pytest.approx(
            acceptance_probability(HomodyneStabilized(eta=0.9, threshold=1.0), 1.0),
            rel=1e-12,
        )
        assert acceptance_probability(srt, 1.0) > acceptance_probability(lin, 1.0)


ARRAY_DETECTORS = [
    IdealOnOff(),
    Apd(eta=0.63, dark_prob=1.4e-4),
    HomodyneStabilized(eta=0.84, threshold=threshold_for_error(E_MATCH)),
    HomodyneRandomized(eta=0.84, threshold=threshold_for_error(E_MATCH)),
    HomodyneRandomized(eta=0.81, threshold=0.7, efficiency_model="sqrt"),
]


@pytest.mark.parametrize("det", ARRAY_DETECTORS, ids=lambda d: type(d).__name__)
def test_array_input_matches_scalar_calls_and_hdr_quad_oracle(det):
    # displacements a = eta |beta| from vacuum up to 50
    beta = np.concatenate([np.linspace(0.0, 2.0, 41), np.linspace(2.5, 60.0, 24)])
    vals = acceptance_probability(det, beta)
    scalars = np.array([acceptance_probability(det, b) for b in beta])
    assert vals.shape == beta.shape
    if not isinstance(det, HomodyneRandomized):
        np.testing.assert_array_equal(vals, scalars)
        return
    # the midpoint node count follows the largest displacement in the call
    np.testing.assert_allclose(vals, scalars, rtol=1e-15, atol=0.0)
    B = det.threshold
    for b, v in zip(beta, vals):
        a = effective_displacement(det, b)
        if a > 50.0:
            continue
        ref, _ = quad(lambda t: erfc(np.sqrt(2.0) * (B - a * np.cos(t))), 0.0, np.pi,
                      epsabs=0.0, epsrel=1e-13, limit=200)
        assert v == pytest.approx(ref / np.pi, rel=1e-13, abs=0.0), f"a={a}"


@pytest.mark.parametrize("det", ARRAY_DETECTORS, ids=lambda d: type(d).__name__)
def test_non_finite_amplitudes_give_nan_and_certain_acceptance(det):
    # Every detector reads nan as nan and an infinite amplitude as a sure
    # click; the randomized homodyne once sized its node set from the largest
    # entry and raised on both.  A finite entry keeps its own value.
    assert np.isnan(acceptance_probability(det, np.nan))
    assert acceptance_probability(det, np.inf) == 1.0
    finite = acceptance_probability(det, 0.5)
    with_nan = acceptance_probability(det, np.array([0.5, np.nan]))
    assert with_nan[0] == finite and np.isnan(with_nan[1])
    np.testing.assert_array_equal(acceptance_probability(det, np.array([0.5, np.inf])),
                                  [finite, 1.0])


def test_hdr_huge_amplitude_raises_at_once():
    # |beta| = 1e150 once asked for ~8e150 midpoint nodes and never returned
    det = HomodyneRandomized(eta=1.0, threshold=threshold_for_error(0.01))
    with pytest.raises(ValueError, match=r"1 point\(s\) up to displacement 1e\+150"):
        acceptance_probability(det, 1e150)


def test_hdr_term_cap_sits_at_points_times_nodes(monkeypatch):
    # three points up to a = 0.8 take 32 + 8 = 40 nodes each: 120 terms
    det = HomodyneRandomized(eta=0.8, threshold=0.5)
    beta = np.array([0.0, 0.5, 1.0])
    expected = acceptance_probability(det, beta)
    monkeypatch.setattr(detectors, "MAX_HDR_TERMS", 120)
    np.testing.assert_array_equal(acceptance_probability(det, beta), expected)
    monkeypatch.setattr(detectors, "MAX_HDR_TERMS", 119)
    with pytest.raises(ValueError, match=r"3 point\(s\) up to displacement 0\.8 "):
        acceptance_probability(det, beta)


class TestErrorProbability:
    def test_ideal_is_zero(self):
        assert error_probability(IdealOnOff()) == 0.0

    def test_apd_is_dark_count(self):
        assert error_probability(Apd(eta=0.63, dark_prob=1.4e-4)) == 1.4e-4

    def test_homodyne_error_equals_acceptance_at_zero(self):
        for cls in (HomodyneStabilized, HomodyneRandomized):
            det = cls(eta=0.84, threshold=1.37)
            assert error_probability(det) == pytest.approx(
                acceptance_probability(det, 0.0), rel=1e-10
            )


class TestThresholdForError:
    def test_full_error_means_zero_threshold(self):
        assert threshold_for_error(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_full_error_threshold_is_positive_zero(self):
        # erfcinv(1) is -0.0, which would print as a threshold of "-0.0"
        assert math.copysign(1.0, threshold_for_error(1.0)) == 1.0

    def test_inverse_consistency(self):
        assert threshold_for_error(erfc(np.sqrt(2))) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_and_bisection_oracle(self):
        b = threshold_for_error(E_MATCH)
        assert erfc(np.sqrt(2) * b) == pytest.approx(E_MATCH, abs=1e-12)
        b_bisect = brentq(lambda x: erfc(np.sqrt(2) * x) - E_MATCH, 0.0, 10.0, xtol=1e-14)
        assert b == pytest.approx(b_bisect, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            threshold_for_error(0.0)
        with pytest.raises(ValueError):
            threshold_for_error(1.5)


class TestDetectorOrdering:
    def test_acceptance_ordering_at_matched_error(self):
        # unit-efficiency curves at the same error probability:
        # on/off beats stabilized homodyne beats randomized homodyne
        b = threshold_for_error(E_MATCH)
        apd = Apd(eta=1.0, dark_prob=E_MATCH)
        hds = HomodyneStabilized(eta=1.0, threshold=b)
        hdr = HomodyneRandomized(eta=1.0, threshold=b)
        for n_mean in np.linspace(0.0, 1.65, 34):
            beta = np.sqrt(n_mean)
            pa = acceptance_probability(apd, beta)
            ps = acceptance_probability(hds, beta)
            pr = acceptance_probability(hdr, beta)
            assert pa >= ps - 1e-12
            assert ps >= pr - 1e-12

    def test_curvature_ordering_at_matched_error(self):
        b = threshold_for_error(E_MATCH)
        c_apd = acceptance_curvature(Apd(eta=1.0, dark_prob=E_MATCH))
        c_hds = acceptance_curvature(HomodyneStabilized(eta=1.0, threshold=b))
        c_hdr = acceptance_curvature(HomodyneRandomized(eta=1.0, threshold=b))
        assert c_apd > c_hds > c_hdr
        assert c_hdr == pytest.approx(0.5 * c_hds, rel=1e-12)


class TestValidation:
    def test_bad_parameters_rejected(self):
        for eta in (0.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"APD efficiency must lie in \(0, 1\]"):
                Apd(eta=eta)
        for pd in (1.0, float("nan")):
            with pytest.raises(ValueError, match=r"dark-count probability must lie in \[0, 1\)"):
                Apd(eta=0.5, dark_prob=pd)
        with pytest.raises(ValueError):
            HomodyneStabilized(eta=0.8, threshold=-0.1)
        with pytest.raises(ValueError):
            HomodyneStabilized(eta=0.8, threshold=np.inf)
        with pytest.raises(ValueError):
            HomodyneRandomized(eta=0.8, threshold=1.0, efficiency_model="bogus")

    def test_homodyne_variants_share_one_base_and_stay_distinct(self):
        b = threshold_for_error(E_MATCH)
        hds, hdr = HomodyneStabilized(0.8, b), HomodyneRandomized(0.8, b)
        assert isinstance(hds, Homodyne) and isinstance(hdr, Homodyne)
        assert hds != hdr
        assert hds == HomodyneStabilized(0.8, b) and hdr == HomodyneRandomized(0.8, b)
        assert repr(hdr) == f"HomodyneRandomized(eta=0.8, threshold={b!r}, efficiency_model='linear')"
        with pytest.raises(AttributeError):
            hds.eta = 0.5  # frozen
        with pytest.raises(TypeError):
            Homodyne(0.8, b)  # neither local-oscillator variant
