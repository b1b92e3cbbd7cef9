"""Gaussian-mixture reference evaluator of the key-rate bound.

The program's security numbers come from the closed-form kernel
``qkd.filtered_covariance`` -> ``qkd.key_rate``.  This module computes the
same bound the long way, on explicit Gaussian mixtures from
``vacfilter.gaussian``: ``joint_state`` builds the Alice/Bob mixture after the
erasure channel, ``filtered_covariance`` conditions it on a tap click and
returns a ``CovMatrix``, and ``key_rate`` reads (a, b, c) off that matrix
(``_symmetric_form``) and its symplectic spectrum.  The tests hold the kernel
to it.  ``weak_squeezing_keyrate`` is the small-alphabet closed form the
bound approaches toward unit squeezing variance.
"""

import math

import numpy as np

from state_reference import mix, thermal

from vacfilter import gaussian
from vacfilter.gaussian import (CovMatrix, GaussianMixtureState, NumericsError,
                                symplectic_eigenvalues)
from vacfilter.qkd import MIN_SUCCESS_PROB, KeyRateResult, QkdScenario, entropy_g

SYMMETRIC_FORM_TOL = 1e-8


def joint_state(V: float, p: float,
                erased_mode_variance: str = "marginal") -> GaussianMixtureState:
    """Two-mode Alice/Bob mixture after the erasure channel: with weight p the
    two-mode squeezed vacuum, with weight 1-p Alice's thermal mode next to
    vacuum at Bob.  Reference evaluator only."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"transmission probability must lie in [0, 1], got {p}")
    w = V if erased_mode_variance == "marginal" else (V + 1.0 / V) / 2.0
    kept = gaussian.two_mode_squeezed(V)
    erased = gaussian.tensor(thermal(w), gaussian.vacuum(1))
    if p == 1.0:
        return kept
    if p == 0.0:
        return erased
    return mix([(p, kept), (1.0 - p, erased)])


def filtered_covariance(scenario: QkdScenario):
    """Click-conditioned covariance matrix of the Alice/Bob state behind the
    tap filter, with the success probability (reference evaluator).

    Returns (CovMatrix, P_S, P0).  Means vanish by symmetry (every mixture
    component is zero-mean and all operations preserve that); a nonzero mean
    raises NumericsError.  A component of weight w, blocks Gamma_T (tap), C
    (cross) and Gamma_R (Alice/Bob) and no-click weight w_off = w (1 - p_d)
    kappa, kappa = c / sqrt(det S), S = D + c I, c = 2/eta, adds
    q = w - w_off = w ((det S - c^2) / (sqrt(det S) (sqrt(det S) + c)) + p_d
    kappa) to P_S and q Gamma_R + w_off C S^-1 C^T to P_S CV_click.  The tap
    excess D = Gamma_T - I = R (Gamma_B - I) is formed from Bob's block before
    the beam splitter: read off its output, where t^2 + r^2 = 1 only to eps, a
    branch whose tap sees vacuum would get a click weight off by ~eps / P_S.
    """
    det = scenario.filter
    if det is None:
        raise ValueError("filtered_covariance needs a scenario with a filter")
    R = scenario.tap_reflectivity
    joint = joint_state(scenario.V, scenario.p, scenario.erased_mode_variance)
    state = gaussian.tensor(joint, gaussian.vacuum(1))  # tap mode, index 2
    state = gaussian.apply_beamsplitter(state, 1, 2, 1.0 - R)

    if any(np.max(np.abs(comp.mean)) >= 1e-12 for comp in state.components):
        raise NumericsError("filtered state must be zero-mean")

    c = 2.0 / det.eta
    p_s = p0 = 0.0
    moment = np.zeros((4, 4))
    for bob, comp in zip(joint.components, state.components, strict=True):
        g = comp.cm.mat
        excess = R * (bob.cm.mat[2:, 2:] - np.eye(2))  # D; S = D + c I, a 2 x 2 block
        rise = c * np.trace(excess) + np.linalg.det(excess)  # det S - c^2
        root = math.sqrt(c * c + rise)
        kappa = c / root
        q = comp.weight * (rise / (root * (root + c)) + det.dark_prob * kappa)
        w_off = comp.weight * (1.0 - det.dark_prob) * kappa
        gain = g[:4, 4:] @ np.linalg.solve(excess + c * np.eye(2), g[4:, :4])
        moment += q * g[:4, :4] + w_off * gain
        p_s, p0 = p_s + q, p0 + w_off
    if p_s <= MIN_SUCCESS_PROB:
        raise NumericsError(
            f"filter success probability degenerate (P_S = {p_s:.3e}); "
            "no click-conditioned state to analyze"
        )
    return CovMatrix(moment / p_s), p_s, p0


def _symmetric_form(cm) -> tuple:
    """Extract (a, b, c) from a CM of the form [[a I, c Z], [c Z, b I]],
    averaging the x/p blocks; asymmetry beyond 1e-8 is an error because the
    closed-form conditional eigenvalue below would be invalid."""
    m = cm.mat if isinstance(cm, CovMatrix) else np.asarray(cm, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"key-rate evaluation expects a two-mode CM, got {m.shape}")
    a = 0.5 * (m[0, 0] + m[1, 1])
    b = 0.5 * (m[2, 2] + m[3, 3])
    c = 0.5 * (m[0, 2] - m[1, 3])
    model = np.zeros((4, 4))
    model[0, 0] = model[1, 1] = a
    model[2, 2] = model[3, 3] = b
    model[0, 2] = model[2, 0] = c
    model[1, 3] = model[3, 1] = -c
    dev = float(np.max(np.abs(m - model)))
    if dev > SYMMETRIC_FORM_TOL:
        raise ValueError(
            f"covariance matrix departs from the symmetric (a, b, c) form by {dev:.3e}"
        )
    return a, b, c


def key_rate(cm, multiplier: float = 1.0, protocol: str = "heterodyne",
             p_s: float | None = None) -> KeyRateResult:
    """Reverse-reconciliation Gaussian key-rate bound from a two-mode CM of
    symmetric form [[a I, c Z], [c Z, b I]] (reference evaluator).

    heterodyne (Bob measures both quadratures):
        I_ab  = log2[(a+1) / (a+1 - c^2/(b+1))]
        chi   = g((nu1-1)/2) + g((nu2-1)/2) - g((nu3-1)/2),
                nu3 = a - c^2/(b+1)
    homodyne (Bob measures one quadrature):
        I_ab  = (1/2) log2[(a+1) / (a+1 - c^2/b)]
        nu3   = sqrt(a (a - c^2/b))

    K = multiplier * (I_ab - chi); the multiplier is the filter success
    probability for filtered scenarios (or p * P_S under the alternative
    convention) and 1 otherwise.
    """
    a, b, c = _symmetric_form(cm)
    nus = symplectic_eigenvalues(cm)
    if protocol == "heterodyne":
        denom = b + 1.0
        cond = a - c * c / denom
        i_ab = math.log2((a + 1.0) / (a + 1.0 - c * c / denom))
        nu3 = cond
    elif protocol == "homodyne":
        if b <= 0.0:
            raise ValueError("degenerate Bob variance")
        cond = a - c * c / b
        i_ab = 0.5 * math.log2((a + 1.0) / (a + 1.0 - c * c / b))
        nu3 = math.sqrt(max(a * cond, 0.0))
    else:
        raise ValueError(f"protocol must be heterodyne/homodyne, got {protocol!r}")
    chi = (
        entropy_g(max(nus[0] - 1.0, 0.0) / 2.0)
        + entropy_g(max(nus[1] - 1.0, 0.0) / 2.0)
        - entropy_g(max(nu3 - 1.0, 0.0) / 2.0)
    )
    rate = i_ab - chi
    return KeyRateResult(
        k_lower=multiplier * rate,
        i_ab=i_ab,
        chi_be=chi,
        p_s=p_s if p_s is not None else multiplier,
        multiplier=multiplier,
    )


def weak_squeezing_keyrate(p: float, p_s: float, transmissivity: float, V: float) -> float:
    """Small-alphabet closed form p * P_S * (1/2) log2(e/2) * T * (V-1)^2.

    The exact bound approaches this expression with the P_S slot instantiated
    as the tap fraction 1 - T; the test suite pins that correspondence.
    """
    if not V >= 1.0:
        raise ValueError(f"squeezing variance must be >= 1, got {V}")
    return p * p_s * 0.5 * math.log2(math.e / 2.0) * transmissivity * (V - 1.0) ** 2
