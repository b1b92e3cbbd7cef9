"""Erasure mixture, tap split, posterior update and quadrature marginals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from vacfilter.detectors import Apd, acceptance_probability, error_probability
from vacfilter.signal_model import (
    CoherentAmplitude,
    ErasureMixture,
    marginal_cdf,
    marginal_density,
    posterior_mixture,
)


class TestTapSplit:
    def test_tap_mean_photon_number(self):
        # R |alpha|^2 = 1.65 in the filter arm conditioned on the signal branch
        mix = ErasureMixture(CoherentAmplitude(math.sqrt(3.3)), p=0.02, tap_reflectivity=0.5)
        assert (math.sqrt(mix.tap_reflectivity) * mix.alpha.magnitude) ** 2 == pytest.approx(1.65)

    def test_amplitude_bookkeeping(self):
        mix = ErasureMixture(CoherentAmplitude(1.0), p=0.5, tap_reflectivity=0.25)
        assert mix.transmissivity == pytest.approx(0.75)
        assert mix.transmitted_amplitude.magnitude ** 2 == pytest.approx(0.75)
        assert (math.sqrt(mix.tap_reflectivity) * mix.alpha.magnitude) ** 2 == pytest.approx(0.25)


class TestPosteriorMixture:
    def test_unambiguous_filter(self):
        mix = ErasureMixture(CoherentAmplitude(1.0), p=0.3, tap_reflectivity=0.5)
        post = posterior_mixture(mix, p_accept=0.6, error_prob=0.0)
        assert post[0][0] == pytest.approx(1.0)

    def test_uninformative_filter(self):
        mix = ErasureMixture(CoherentAmplitude(1.0), p=0.3, tap_reflectivity=0.5)
        post = posterior_mixture(mix, p_accept=0.2, error_prob=0.2)
        assert post[0][0] == pytest.approx(0.3)

    def test_branches_are_the_transmitted_signal_and_vacuum(self):
        mix = ErasureMixture(CoherentAmplitude(2.0), p=0.3, tap_reflectivity=0.36)
        (w_sig, amp_sig), (w_vac, amp_vac) = posterior_mixture(mix, p_accept=0.6, error_prob=0.2)
        p_prime = 0.3 * 0.6 / (0.3 * 0.6 + 0.7 * 0.2)
        assert w_sig == pytest.approx(p_prime, rel=1e-15)
        assert amp_sig == pytest.approx(1.6, rel=1e-15)
        assert (w_vac, amp_vac) == (1.0 - w_sig, 0.0)

    def test_posterior_matches_monte_carlo_frequency(self):
        # reference working point: acceptance 0.808 (the ideal on/off value at
        # R|alpha|^2 = 1.65) with the measured error floor 5.3e-3; the
        # posterior must match plain frequency counting over 1e6 trials
        p, e, p_acc = 0.02, 5.3e-3, 0.808
        mix = ErasureMixture(CoherentAmplitude(math.sqrt(3.3)), p=p, tap_reflectivity=0.5)
        post = posterior_mixture(mix, p_acc, e)

        rng = np.random.default_rng(77)
        n = 10**6
        truth = rng.random(n) < p
        accept = rng.random(n) < np.where(truth, p_acc, e)
        p_prime_hat = truth[accept].mean()
        n_acc = accept.sum()
        p_prime = post[0][0]
        se = math.sqrt(p_prime * (1 - p_prime) / n_acc)
        assert abs(p_prime_hat - p_prime) < 3 * se

    def test_rejects_inconsistent_probabilities(self):
        mix = ErasureMixture(CoherentAmplitude(1.0), p=0.5, tap_reflectivity=0.5)
        with pytest.raises(ValueError):
            posterior_mixture(mix, p_accept=0.1, error_prob=0.2)

    def test_never_accepting_filter_is_an_error(self):
        mix = ErasureMixture(CoherentAmplitude(1.0), p=0.5, tap_reflectivity=0.5)
        with pytest.raises(ValueError, match="never accepts"):
            posterior_mixture(mix, p_accept=0.0, error_prob=0.0)

    @given(
        p=st.floats(0.01, 0.99),
        e=st.floats(1e-6, 0.5),
        d1=st.floats(1e-6, 0.49),
        d2=st.floats(1e-6, 0.49),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_acceptance(self, p, e, d1, d2):
        # increasing P at fixed E never decreases the posterior
        mix = ErasureMixture(CoherentAmplitude(1.0), p=p, tap_reflectivity=0.5)
        lo, hi = e + d1, min(e + d1 + d2, 1.0)
        p_lo = posterior_mixture(mix, lo, e)[0][0]
        p_hi = posterior_mixture(mix, hi, e)[0][0]
        assert p_hi >= p_lo - 1e-12


class TestMarginalDensity:
    def test_vacuum_density(self):
        mix = ErasureMixture(CoherentAmplitude(0.0), p=1.0, tap_reflectivity=0.5)
        x = np.linspace(-2, 2, 101)
        expected = np.exp(-x**2 / 0.5) / np.sqrt(2 * np.pi * 0.25)
        np.testing.assert_allclose(marginal_density(mix, x), expected, atol=1e-12)

    def test_density_normalizes(self):
        mix = ErasureMixture(CoherentAmplitude(math.sqrt(3.3)), p=0.02, tap_reflectivity=0.5)
        total, _ = quad(lambda x: marginal_density(mix, x), -10, 10, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)
        post = [(0.76, mix.transmitted_amplitude.magnitude), (1.0 - 0.76, 0.0)]
        total, _ = quad(lambda x: marginal_density(post, x), -10, 10, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_filtering_enhances_coherent_peak(self):
        mix = ErasureMixture(CoherentAmplitude(math.sqrt(3.3)), p=0.02, tap_reflectivity=0.5)
        det = Apd(eta=1.0, dark_prob=5.3e-3)
        p_acc = acceptance_probability(det, math.sqrt(mix.tap_reflectivity) * mix.alpha.magnitude)
        post = posterior_mixture(mix, p_acc, error_probability(det))
        peak = mix.transmitted_amplitude.magnitude
        assert marginal_density(post, peak) > marginal_density(mix, peak)
        assert marginal_density(post, 0.0) < marginal_density(mix, 0.0)
        assert post[0][0] > mix.p

    def test_nonnegative(self):
        mix = ErasureMixture(CoherentAmplitude(math.hypot(1.1, -0.4)), p=0.4, tap_reflectivity=0.2)
        x = np.linspace(-6, 6, 501)
        assert np.all(marginal_density(mix, x) >= 0.0)

    def test_far_tails_are_zero_without_overflow_warning(self):
        # (x - amp)^2 once overflowed there and warned; warnings are errors here
        mix = ErasureMixture(CoherentAmplitude(1.0), p=0.5, tap_reflectivity=0.5)
        np.testing.assert_array_equal(marginal_density(mix, np.array([-1e300, 1e300])), 0.0)
        assert marginal_density(mix, 1e300) == 0.0


class TestValidation:
    def test_probability_ranges(self):
        with pytest.raises(ValueError):
            ErasureMixture(CoherentAmplitude(1.0), p=1.2, tap_reflectivity=0.5)
        with pytest.raises(ValueError):
            ErasureMixture(CoherentAmplitude(1.0), p=0.5, tap_reflectivity=-0.1)

    # non-finite values, and complex ones with a non-finite part
    @pytest.mark.parametrize("amp", [math.nan, math.inf, complex(1.0, -math.inf),
                                     complex(0.0, math.nan)],
                             ids=["nan", "inf", "complex-inf", "complex-nan"])
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match=r"coherent amplitude must be a finite real number "
                                             r">= 0, got "):
            CoherentAmplitude(amp)

    @pytest.mark.parametrize("amp", [1.5j, complex(-1.5, 0.0), np.complex128(1.0),
                                     np.complex64(0.5)])
    def test_complex_amplitude_rejected(self, amp):
        # a phase once gave the signal two readings: the Monte-Carlo layer took
        # |alpha| and the marginals Re(alpha)
        with pytest.raises(ValueError, match="coherent amplitude must be a finite real number"):
            CoherentAmplitude(amp)

    @pytest.mark.parametrize("amp", [-1.5, -5e-324, np.float64(-0.1), -math.inf])
    def test_negative_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match=r">= 0, got -"):
            CoherentAmplitude(amp)

    @pytest.mark.parametrize("branches", [[(1.0, 1.5j)], [(0.5, 1.0), (0.5, -1.0)],
                                          [(1.0, math.nan)]], ids=["complex", "negative", "nan"])
    def test_branch_list_amplitudes_are_checked(self, branches):
        for marginal in (marginal_density, marginal_cdf):
            with pytest.raises(ValueError, match="coherent amplitude"):
                marginal(branches, [0.0, 1.0])

    def test_nan_amplitude_gives_no_density(self):
        # a NaN amplitude once came back from marginal_density as [nan nan]
        with pytest.raises(ValueError, match="coherent amplitude"):
            marginal_density(ErasureMixture(CoherentAmplitude(math.nan), 0.5, 0.5), [0.0, 1.0])
