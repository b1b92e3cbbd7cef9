"""Truncated-Fock reference implementation: state constructors, block-exact
beam splitter, POVMs and moments."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies
from scipy.linalg import expm
from scipy.special import erf, gammaln

from state_reference import number_state, reduced_density, von_neumann_entropy

from vacfilter import fock, gaussian

# Digests of fock_beamsplitter outputs on the generic states of _golden_case,
# recorded with one BLAS thread (conftest.py) before the beam splitter built
# only the cutoff's sector window.
_BS_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "fock_beamsplitter_golden.json").read_text())


def _golden_case(case):
    """The input state of a golden case and its beam-splitter output."""
    rng = np.random.default_rng(case["seed"])
    n_max = case["n_max"]
    shape = (n_max + 1,) * case["n_modes"]
    psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    st = fock.FockState(n_max, vec=psi / np.linalg.norm(psi))
    return fock.fock_beamsplitter(st, *case["modes"], case["transmissivity"])


def _golden_record(out):
    return {"sha256": hashlib.sha256(out.vec.tobytes()).hexdigest(),
            "strides": [s // out.vec.itemsize for s in out.vec.strides],
            "deficit": repr(out.deficit)}


class TestConstructors:
    def test_vacuum(self):
        st = fock.vacuum_state(10)
        assert st.vec[0] == 1.0
        assert np.sum(np.abs(st.vec)) == 1.0
        assert st.trace() == pytest.approx(1.0)

    def test_coherent_mean_photons(self):
        st = fock.coherent_state(1.0, 30)
        assert fock.mean_photon(st, 0) == pytest.approx(1.0, abs=1e-10)
        assert st.deficit < 1e-10

    def test_log_factorials_match_gammaln(self):
        np.testing.assert_allclose(fock._log_factorials(100), gammaln(np.arange(101.0) + 1.0),
                                   rtol=1e-13, atol=0)

    def test_coherent_cutoff_guard(self):
        with pytest.raises(fock.TruncationError):
            fock.coherent_state(4.0, 12)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, complex(0.5, np.nan)])
    def test_coherent_rejects_non_finite_amplitude(self, alpha):
        with pytest.raises(ValueError, match="must be finite"):
            fock.coherent_state(alpha, 10)

    def test_tmsv_rejects_nan_variance(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            fock.tmsv_state(np.nan, 10)

    def test_states_are_amplitude_tensors_only(self):
        with pytest.raises(TypeError):
            fock.FockState(5, rho=np.eye(6))

    def test_tmsv_reduced_variance(self):
        st = fock.tmsv_state(1.2, 30)
        rho_a = reduced_density(st, 0)
        n = np.arange(31)
        n_bar = float(np.real(np.diag(rho_a) @ n))
        assert 2 * n_bar + 1 == pytest.approx(1.2, abs=1e-8)

    def test_tmsv_covariance_matches_gaussian_form(self):
        st = fock.tmsv_state(1.3, 30)
        np.testing.assert_allclose(
            fock.covariance_matrix(st), gaussian.two_mode_squeezed_cm(1.3), atol=1e-8
        )

    def test_thermal_moments(self):
        # a thermal mode of mean photon number 0.25 is either half of the
        # two-mode squeezed vacuum of variance 2 * 0.25 + 1
        st = fock.tmsv_state(1.5, 60)
        assert fock.mean_photon(st, 0) == pytest.approx(0.25, abs=1e-10)
        cm = fock.covariance_matrix(st)[:2, :2]
        np.testing.assert_allclose(cm, 1.5 * np.eye(2), atol=1e-10)

    def test_number_state_moments(self):
        st = number_state([2], 10)
        np.testing.assert_allclose(fock.covariance_matrix(st), 5.0 * np.eye(2), atol=1e-12)

    def test_coherent_mean_vector_convention(self):
        st = fock.coherent_state(0.5 + 0.3j, 25)
        np.testing.assert_allclose(fock.mean_vector(st), [1.0, 0.6], atol=1e-10)


class TestBeamSplitter:
    def test_coherent_through_splitter_is_product(self):
        alpha, t = 1.1 - 0.2j, 0.7
        st = fock.tensor(fock.coherent_state(alpha, 30), fock.vacuum_state(30))
        out = fock.fock_beamsplitter(st, 0, 1, t)
        target = fock.tensor(
            fock.coherent_state(np.sqrt(t) * alpha, 30),
            fock.coherent_state(-np.sqrt(1 - t) * alpha, 30),
        )
        assert fock.fidelity(out, target) > 1.0 - 1e-10

    def test_identity_transmissivity(self):
        st = fock.tmsv_state(1.4, 20)
        st = fock.tensor(st, fock.vacuum_state(20))
        out = fock.fock_beamsplitter(st, 1, 2, 1.0)
        np.testing.assert_allclose(out.vec, st.vec, atol=1e-12)

    def test_norm_preserved_within_sectors(self):
        st = fock.tensor(fock.coherent_state(1.0, 25), fock.coherent_state(0.5, 25))
        out = fock.fock_beamsplitter(st, 0, 1, 0.35)
        assert out.trace() + out.deficit == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(transmissivity=strategies.floats(0.0, 1.0))
    @example(transmissivity=0.0)
    @example(transmissivity=1.0)
    def test_blocks_match_expm_and_stay_orthogonal(self, transmissivity):
        # reference: expm of the tridiagonal generator of theta (a†b - a b†) in
        # sector n, elements sqrt((k+1)(n-k)) on the basis |k, n-k>
        theta = np.arccos(np.sqrt(transmissivity))

        def reference(n):
            k = np.arange(n)
            gen = np.zeros((n + 1, n + 1))
            gen[k + 1, k] = theta * np.sqrt((k + 1.0) * (n - k))
            gen[k, k + 1] = -gen[k + 1, k]
            return expm(gen)

        full, windowed = fock._bs_blocks(theta, 80), fock._bs_blocks(theta, 40)
        assert (len(full), len(windowed)) == (161, 81)
        for n, (block, part) in enumerate(zip(full, windowed)):
            ref = reference(n)
            np.testing.assert_allclose(block, ref, rtol=0, atol=1e-11)
            np.testing.assert_allclose(block @ block.T, np.eye(n + 1), rtol=0, atol=1e-13)
            # above n_max = 40 only the columns k in [n - 40, 40] are built, with
            # the same arithmetic as the whole block's
            k0, k1 = max(0, n - 40), min(n, 40)
            assert part.shape == (n + 1, k1 - k0 + 1)
            np.testing.assert_array_equal(part, block[:, k0:k1 + 1])
            np.testing.assert_allclose(part, ref[:, k0:k1 + 1], rtol=0, atol=1e-11)
            np.testing.assert_allclose(part.T @ part, np.eye(k1 - k0 + 1), rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "case", _BS_GOLDEN["cases"],
        ids=lambda c: "{route}{n_modes}-modes{modes[0]}{modes[1]}-T{transmissivity}".format(**c))
    def test_output_matches_the_recorded_digests(self, case):
        assert _golden_record(_golden_case(case)) == {
            key: case[key] for key in ("sha256", "strides", "deficit")}


class TestPovms:
    def test_vacuum_never_clicks_perfect_detector(self):
        st = fock.vacuum_state(10)
        prob, _ = fock.povm_expectation(st, 0, fock.NoClick(1.0, 0.0))
        assert prob == pytest.approx(1.0, rel=1e-12)

    def test_noclick_on_coherent_matches_geometric_series(self):
        eta, beta = 0.63, 0.9
        st = fock.coherent_state(beta, 40)
        prob, cond = fock.povm_expectation(st, 0, fock.NoClick(eta, 0.0))
        assert prob == pytest.approx(np.exp(-eta * beta**2), abs=1e-10)
        assert cond.trace() == pytest.approx(1.0, abs=1e-10)

    def test_dark_count_exponent_discrepancy_is_quantified(self):
        # the microscopic no-click probability (1-p_d) exp(-eta |b|^2) differs
        # from the acceptance-model complement (1-p_d) exp(-eta (1-p_d) |b|^2)
        # by about (1-p_d) e^{-eta b^2} eta b^2 p_d
        eta, pd, beta = 0.63, 5e-3, np.sqrt(1.65)
        st = fock.coherent_state(beta, 40)
        prob, _ = fock.povm_expectation(st, 0, fock.NoClick(eta, pd))
        model = (1 - pd) * np.exp(-eta * (1 - pd) * beta**2)
        discrepancy = model - prob
        estimate = (1 - pd) * np.exp(-eta * beta**2) * eta * beta**2 * pd
        assert discrepancy == pytest.approx(estimate, rel=0.05)
        assert abs(discrepancy) < 2e-3

    def test_click_then_condition_keeps_unit_trace(self):
        st = fock.tmsv_state(1.3, 25)
        prob, cond = fock.povm_expectation(st, 1, fock.Click(0.8, 0.0))
        assert 0.0 < prob < 1.0
        assert cond.trace() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("povm", [fock.NoClick, fock.Click])
    @pytest.mark.parametrize("fields, name", [
        ((np.nan, 0.0), "eta"), ((1.5, 0.0), "eta"), ((-0.1, 0.0), "eta"),
        ((0.6, np.nan), "dark_prob"), ((0.6, 1.5), "dark_prob"),
    ])
    def test_on_off_detector_rejects_fields_outside_unit_interval(self, povm, fields, name):
        with pytest.raises(ValueError, match=f"{name} must lie in"):
            povm(*fields)

    def test_zero_probability_conditioning_raises(self):
        st = fock.vacuum_state(10)
        with pytest.raises(ValueError, match="zero-probability"):
            fock.povm_expectation(st, 0, fock.Click(1.0, 0.0))

    def test_quadrature_interval_on_vacuum(self):
        # symmetric interval around zero carries erf(sqrt2 B) of the vacuum
        B = 0.8
        st = fock.vacuum_state(30)
        prob, _ = fock.povm_expectation(st, 0, fock.QuadratureInterval(-B, B))
        assert prob == pytest.approx(erf(np.sqrt(2) * B), abs=1e-10)

    def test_quadrature_interval_on_coherent(self):
        # coherent quadrature distribution is N(Re beta, 1/4)
        from scipy.stats import norm

        beta, lo, hi = 0.6, -0.2, 1.1
        st = fock.coherent_state(beta, 40)
        prob, _ = fock.povm_expectation(st, 0, fock.QuadratureInterval(lo, hi))
        expected = norm.cdf(hi, loc=beta, scale=0.5) - norm.cdf(lo, loc=beta, scale=0.5)
        assert prob == pytest.approx(expected, abs=1e-9)

    def test_probabilities_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            beta = rng.uniform(0, 1.5) + 1j * rng.uniform(-1, 1)
            st = fock.coherent_state(beta, 35)
            for povm in (fock.NoClick(rng.uniform(0.1, 1.0), rng.uniform(0, 0.01)),
                         fock.QuadratureInterval(-1.0, 0.5)):
                prob, cond = fock.povm_expectation(st, 0, povm)
                assert 0.0 <= prob <= 1.0
                assert cond.trace() == pytest.approx(1.0, abs=1e-10)


class TestDisplacementAndRotation:
    def test_displace_vacuum_gives_coherent(self):
        st = fock.displace(fock.vacuum_state(30), 0, 0.7 - 0.3j)
        target = fock.coherent_state(0.7 - 0.3j, 30)
        assert fock.fidelity(st, target) > 1.0 - 1e-10

    @pytest.mark.parametrize("n_max", [5, 20, 40])
    @settings(max_examples=20, deadline=None)
    @given(re=strategies.floats(-2.0, 2.0), im=strategies.floats(-2.0, 2.0))
    @example(re=0.0, im=0.0)
    def test_displace_matches_expm_and_stays_unitary(self, n_max, re, im):
        alpha = complex(re, im)
        a = fock.lowering_matrix(n_max)
        ref = expm(alpha * a.conj().T - np.conj(alpha) * a)
        rng = np.random.default_rng(n_max)
        vec = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
        vec /= np.linalg.norm(vec)
        np.testing.assert_allclose(fock.displace(fock.FockState(n_max, vec=vec), 0, alpha).vec,
                                   ref @ vec, rtol=0, atol=1e-13)
        eye = np.eye(n_max + 1)
        d = np.column_stack([fock.displace(fock.FockState(n_max, vec=col.astype(complex)), 0,
                                           alpha).vec for col in eye])
        np.testing.assert_allclose(d, ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(d.conj().T @ d, eye, rtol=0, atol=1e-13)

    def test_displace_by_zero_is_the_identity(self):
        vec = np.arange(1.0, 12.0) * (1.0 - 0.5j)
        np.testing.assert_array_equal(fock.displace(fock.FockState(10, vec=vec), 0, 0.0).vec, vec)

    def test_displace_rejects_non_finite_amplitude(self):
        with pytest.raises(ValueError, match="must be finite"):
            fock.displace(fock.vacuum_state(10), 0, complex(np.nan, 0.0))

    def test_phase_rotation_moves_mean(self):
        st = fock.coherent_state(1.0, 30)
        out = fock.phase_rotate(st, 0, np.pi / 2)
        np.testing.assert_allclose(fock.mean_vector(out), [0.0, 2.0], atol=1e-10)


class TestTruncationConvergence:
    def test_doubling_cutoff_changes_nothing(self):
        # acceptance-suite style input: TMSV tap conditioning
        vals = []
        for n_max in (20, 40):
            st = fock.tensor(fock.tmsv_state(1.1, n_max), fock.vacuum_state(n_max))
            st = fock.fock_beamsplitter(st, 1, 2, 0.5)
            prob, cond = fock.povm_expectation(st, 2, fock.NoClick(0.63, 0.005))
            vals.append((prob, fock.covariance_matrix(cond)[:4, :4]))
        assert vals[0][0] == pytest.approx(vals[1][0], abs=1e-8)
        np.testing.assert_allclose(vals[0][1], vals[1][1], atol=1e-8)

    def test_entropy_of_pure_state_is_zero(self):
        # a mode of a product of pure states is pure; both halves of an
        # entangled pure pair carry the same entropy
        product = fock.tensor(fock.coherent_state(0.7 - 0.2j, 20), fock.vacuum_state(20))
        assert von_neumann_entropy(product, 0) == pytest.approx(0.0, abs=1e-12)
        assert von_neumann_entropy(product, 1) == 0.0
        tmsv = fock.tmsv_state(1.5, 20)
        assert von_neumann_entropy(tmsv, 0) == pytest.approx(
            von_neumann_entropy(tmsv, 1), abs=1e-12)
