"""Gaussian covariance calculus: constructors, beam splitter, no-click
conditioning, spectra and entropies, all cross-checked against the
truncated-Fock reference where the spec demands it."""

import numpy as np
import pytest

from state_reference import coherent, gaussian_entropy, mix, thermal, von_neumann_entropy

from vacfilter import fock, gaussian
from vacfilter.gaussian import (
    CovMatrix,
    GaussianComponent,
    GaussianMixtureState,
    apply_beamsplitter,
    condition_on_noclick,
    mixture_covariance,
    symplectic_eigenvalues,
)
from vacfilter.qkd import entropy_g


def single(mean, cm):
    return GaussianMixtureState((GaussianComponent(1.0, np.asarray(mean, float), CovMatrix(cm)),))


class TestCovMatrixValidation:
    def test_vacuum_is_physical(self):
        CovMatrix(np.eye(4))

    def test_asymmetric_rejected(self):
        m = np.eye(2)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            CovMatrix(m)

    def test_below_vacuum_rejected(self):
        with pytest.raises(ValueError, match="unphysical"):
            CovMatrix(0.5 * np.eye(2))

    def test_marginal_violation_is_rejected(self):
        m = (1.0 - 5e-8) * np.eye(2)
        with pytest.raises(ValueError, match="unphysical"):
            CovMatrix(m)
        with pytest.raises(TypeError):  # no keyword lifts it into the physical set
            CovMatrix(m, repair=True)

    def test_mixture_weights_must_sum_to_one(self):
        comp = GaussianComponent(0.5, np.zeros(2), CovMatrix(np.eye(2)))
        with pytest.raises(ValueError, match="sum"):
            GaussianMixtureState((comp,))


class TestBeamSplitter:
    def test_coherent_split_means(self):
        # coherent alpha on mode 0, vacuum on mode 1, transmissivity 1-R:
        # means (2 sqrt(1-R) alpha, -2 sqrt(R) alpha) in this sign convention
        alpha, R = 0.8, 0.3
        state = gaussian.tensor(coherent(alpha), gaussian.vacuum(1))
        out = apply_beamsplitter(state, 0, 1, 1.0 - R)
        mean = out.components[0].mean
        expected = 2.0 * alpha * np.array([np.sqrt(1 - R), 0.0, -np.sqrt(R), 0.0])
        np.testing.assert_allclose(mean, expected, atol=1e-12)
        # magnitudes carry the split photon numbers R|alpha|^2 and (1-R)|alpha|^2
        assert (mean[2] ** 2 + mean[3] ** 2) / 4 == pytest.approx(R * alpha ** 2)

    def test_unit_transmissivity_is_identity(self):
        state = gaussian.tensor(gaussian.two_mode_squeezed(1.3), gaussian.vacuum(1))
        out = apply_beamsplitter(state, 1, 2, 1.0)
        np.testing.assert_allclose(out.components[0].cm.mat, state.components[0].cm.mat,
                                   atol=1e-12)

    def test_tmsv_tap_split_matches_fock_oracle(self):
        # TMSV(V=1.2) x vacuum, transmissivity 0.9 on (B, tap)
        V, T, n_max = 1.2, 0.9, 30
        state = gaussian.tensor(gaussian.two_mode_squeezed(V), gaussian.vacuum(1))
        out = apply_beamsplitter(state, 1, 2, T)
        st = fock.tensor(fock.tmsv_state(V, n_max), fock.vacuum_state(n_max))
        st = fock.fock_beamsplitter(st, 1, 2, T)
        np.testing.assert_allclose(out.components[0].cm.mat, fock.covariance_matrix(st),
                                   atol=1e-6)

    def test_invalid_modes_and_transmissivity(self):
        state = gaussian.vacuum(2)
        with pytest.raises(ValueError, match="out of range"):
            apply_beamsplitter(state, 0, 5, 0.5)
        with pytest.raises(ValueError, match="distinct"):
            apply_beamsplitter(state, 1, 1, 0.5)
        with pytest.raises(ValueError, match="transmissivity"):
            apply_beamsplitter(state, 0, 1, 1.2)

    def test_preserves_symplectic_spectrum(self):
        cm = np.diag([1.7, 1.7, 1.0, 1.0, 2.4, 2.4])
        state = single(np.zeros(6), cm)
        out = apply_beamsplitter(state, 0, 2, 0.37)
        nus_in = symplectic_eigenvalues(cm)
        nus_out = symplectic_eigenvalues(out.components[0].cm)
        np.testing.assert_allclose(sorted(nus_in), sorted(nus_out), atol=1e-10)


class TestConditionOnNoClick:
    def test_vacuum_tap_perfect_detector_is_identity(self):
        state = gaussian.tensor(gaussian.two_mode_squeezed(1.4), gaussian.vacuum(1))
        w, cond = condition_on_noclick(state, 2, eta=1.0, dark_prob=0.0)
        assert w == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(cond.components[0].cm.mat,
                                   gaussian.two_mode_squeezed_cm(1.4), atol=1e-12)

    def test_coherent_tap_weight_is_vacuum_overlap(self):
        beta = 1.3 + 0.4j
        state = gaussian.tensor(gaussian.vacuum(1), coherent(beta))
        w, _ = condition_on_noclick(state, 1, eta=1.0, dark_prob=0.0)
        assert w == pytest.approx(np.exp(-abs(beta) ** 2), rel=1e-12)

    def test_tmsv_tap_matches_fock_oracle(self):
        V, R, eta, pd, n_max = 1.1, 0.5, 0.63, 0.005, 30
        state = gaussian.tensor(gaussian.two_mode_squeezed(V), gaussian.vacuum(1))
        state = apply_beamsplitter(state, 1, 2, 1.0 - R)
        w, cond = condition_on_noclick(state, 2, eta, pd)

        st = fock.tensor(fock.tmsv_state(V, n_max), fock.vacuum_state(n_max))
        st = fock.fock_beamsplitter(st, 1, 2, 1.0 - R)
        prob, cond_f = fock.povm_expectation(st, 2, fock.NoClick(eta, pd))

        assert w == pytest.approx(prob, abs=1e-6)
        np.testing.assert_allclose(cond.components[0].cm.mat,
                                   fock.covariance_matrix(cond_f)[:4, :4], atol=1e-6)

    def test_dark_count_factorizes(self):
        state = gaussian.tensor(coherent(0.7), coherent(0.4))
        w0, _ = condition_on_noclick(state, 1, eta=0.8, dark_prob=0.0)
        w, _ = condition_on_noclick(state, 1, eta=0.8, dark_prob=0.03)
        assert w == pytest.approx((1 - 0.03) * w0, rel=1e-12)

    def test_weights_are_probabilities(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            alpha = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
            v = rng.uniform(1.0, 1.5)
            eta = rng.uniform(0.5, 1.0)
            pd = rng.uniform(0.0, 0.01)
            t = rng.uniform(0.1, 0.9)
            state = gaussian.tensor(coherent(alpha), thermal(v))
            state = apply_beamsplitter(state, 0, 1, t)
            w, _ = condition_on_noclick(state, 1, eta, pd)
            assert 0.0 <= w <= 1.0

    def test_eta_zero_rejected(self):
        state = gaussian.vacuum(2)
        with pytest.raises(ValueError, match="efficiency"):
            condition_on_noclick(state, 1, eta=0.0)


class TestSpectraAndEntropy:
    def test_vacuum_spectrum(self):
        np.testing.assert_allclose(symplectic_eigenvalues(np.eye(6)), [1, 1, 1])

    def test_tmsv_is_pure(self):
        nus = symplectic_eigenvalues(gaussian.two_mode_squeezed_cm(1.7))
        np.testing.assert_allclose(nus, [1.0, 1.0], atol=1e-10)

    def test_thermal_spectrum(self):
        np.testing.assert_allclose(symplectic_eigenvalues(2.5 * np.eye(2)), [2.5])

    def test_nonsymmetric_rejected(self):
        m = np.eye(2)
        m[0, 1] = 1e-3
        with pytest.raises(ValueError):
            symplectic_eigenvalues(m)

    def test_vacuum_entropy_zero(self):
        assert gaussian_entropy(np.eye(4)) == 0.0

    def test_nu3_gives_two_bits(self):
        # g(1) = 2 log2(2) - 0 = 2
        assert gaussian_entropy(3.0 * np.eye(2)) == pytest.approx(2.0, abs=1e-12)

    def test_thermal_entropy_matches_fock(self):
        # the thermal mode of this variance is either half of the two-mode
        # squeezed vacuum of the same variance
        variance = 1.5
        st = fock.tmsv_state(variance, 60)
        assert gaussian_entropy(variance * np.eye(2)) == pytest.approx(
            von_neumann_entropy(st, 0), abs=1e-6
        )

    def test_entropy_invariant_under_beamsplitter(self):
        cm = np.diag([1.9, 1.9, 1.2, 1.2])
        state = single(np.zeros(4), cm)
        out = apply_beamsplitter(state, 0, 1, 0.42)
        assert gaussian_entropy(out.components[0].cm) == pytest.approx(
            gaussian_entropy(cm), abs=1e-9
        )

    def test_entropy_g_values(self):
        assert entropy_g(0.0) == 0.0
        assert entropy_g(1.0) == pytest.approx(2.0)

    def test_entropy_g_array_matches_scalar_calls(self):
        ys = np.array([-3.0, -1.0, 0.0, 1e-300, 1e-9, 0.3, 1.0, 7.5, 1e6, np.nan])
        vals = entropy_g(ys)
        assert isinstance(vals, np.ndarray) and vals.shape == ys.shape
        scalars = [entropy_g(float(y)) for y in ys]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_array_equal(vals, scalars)  # bit for bit, NaN where NaN
        np.testing.assert_array_equal(vals[:3], 0.0)
        assert np.isnan(vals[-1]) and np.isnan(entropy_g(float("nan")))
        y = 0.3  # the scalar keeps the textbook operation order
        assert entropy_g(y) == (y + 1.0) * np.log2(y + 1.0) - y * np.log2(y)


class TestFockEquivalenceRandomized:
    def test_random_two_mode_mixtures(self):
        # displaced, rotated, mixed two-mode squeezed components: weights and
        # conditioned moments must agree with the oracle to 1e-6
        rng = np.random.default_rng(42)
        n_max = 40
        for _ in range(10):
            v = rng.uniform(1.0, 1.5)
            t_bs = rng.uniform(0.2, 0.8)
            phis = rng.uniform(0, 2 * np.pi, size=2)
            alphas = [rng.uniform(-1.4, 1.4) + 1j * rng.uniform(-1.4, 1.4) for _ in range(2)]
            eta = rng.uniform(0.5, 1.0)
            pd = rng.uniform(0.0, 0.01)

            st = fock.tmsv_state(v, n_max)
            for m, phi in enumerate(phis):
                st = fock.phase_rotate(st, m, phi)
            st = fock.fock_beamsplitter(st, 0, 1, t_bs)
            for m, a in enumerate(alphas):
                st = fock.displace(st, m, a)

            rot = np.zeros((4, 4))
            for m, phi in enumerate(phis):
                c, s = np.cos(phi), np.sin(phi)
                rot[2 * m: 2 * m + 2, 2 * m: 2 * m + 2] = [[c, -s], [s, c]]
            S = gaussian.beamsplitter_symplectic(2, 0, 1, t_bs)
            cm = S @ rot @ gaussian.two_mode_squeezed_cm(v) @ rot.T @ S.T
            mean = np.array([2 * alphas[0].real, 2 * alphas[0].imag,
                             2 * alphas[1].real, 2 * alphas[1].imag])
            gstate = single(mean, cm)

            w, cond = condition_on_noclick(gstate, 1, eta, pd)
            prob, cond_f = fock.povm_expectation(st, 1, fock.NoClick(eta, pd))
            assert w == pytest.approx(prob, abs=1e-6)
            np.testing.assert_allclose(cond.components[0].mean,
                                       fock.mean_vector(cond_f)[:2], atol=1e-6)
            np.testing.assert_allclose(cond.components[0].cm.mat,
                                       fock.covariance_matrix(cond_f)[:2, :2], atol=1e-6)


class TestMixtureMoments:
    def test_mixture_covariance_includes_mean_spread(self):
        state = mix([
            (0.5, coherent(1.0)),
            (0.5, coherent(-1.0)),
        ])
        cm = mixture_covariance(state)
        # x-variance 1 (vacuum) + 4 (spread of means +-2)
        assert cm[0, 0] == pytest.approx(5.0)
        assert cm[1, 1] == pytest.approx(1.0)
