"""Closed-form acceptance and error probabilities of the four filter detectors.

A filter detector looks at the tap arm and decides "signal" or "vacuum".
Its acceptance probability P(beta) is the chance of deciding "signal" when a
coherent state of amplitude beta hits it; the error probability is E = P(0).

Homodyne thresholds live in the quadrature units where the vacuum variance
is 1/4 (standard deviation 1/2), which makes the threshold B and the
effective displacement a directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Randomized-homodyne erfc terms one call may evaluate (points x nodes), ~1 min
MAX_HDR_TERMS = 2**32


@dataclass(frozen=True)
class IdealOnOff:
    """Lossless, dark-count-free photon presence detector: P = 1 - exp(-|beta|^2)."""


@dataclass(frozen=True)
class Apd:
    """Avalanche photodiode in Geiger mode with quantum efficiency ``eta``
    and per-window dark-count probability ``dark_prob``."""

    eta: float
    dark_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"APD efficiency must lie in (0, 1], got {self.eta}")
        if not 0.0 <= self.dark_prob < 1.0:
            raise ValueError(f"dark-count probability must lie in [0, 1), got {self.dark_prob}")


@dataclass(frozen=True)
class Homodyne:
    """Homodyne filter that accepts when |x| exceeds ``threshold``; use one of
    the two local-oscillator variants below.

    ``efficiency_model`` selects how the detection efficiency scales the
    signal mean: 'linear' uses a = eta * |beta| (the model the acceptance
    probabilities below are calibrated against), 'sqrt' uses the loss-channel
    scaling a = sqrt(eta) * |beta|.
    """

    eta: float
    threshold: float
    efficiency_model: str = "linear"

    def __post_init__(self):
        if type(self) is Homodyne:
            raise TypeError("use HomodyneStabilized or HomodyneRandomized")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"homodyne efficiency must lie in (0, 1], got {self.eta}")
        if not (np.isfinite(self.threshold) and self.threshold >= 0.0):
            raise ValueError(f"threshold must be finite and >= 0, got {self.threshold}")
        if self.efficiency_model not in ("linear", "sqrt"):
            raise ValueError(
                f"efficiency_model must be 'linear' or 'sqrt', got {self.efficiency_model!r}")


class HomodyneStabilized(Homodyne):
    """Homodyne filter with a phase-locked local oscillator."""


class HomodyneRandomized(Homodyne):
    """Homodyne filter with a phase-randomized local oscillator."""


FilterDetector = IdealOnOff | Apd | HomodyneStabilized | HomodyneRandomized


def effective_displacement(det, beta_mag):
    """Mean quadrature displacement a seen by a homodyne filter for |beta|."""
    if det.efficiency_model == "linear":
        return det.eta * beta_mag
    return np.sqrt(det.eta) * beta_mag


def acceptance_probability(det: FilterDetector, beta):
    """Probability that the filter accepts a coherent state of amplitude beta.

    ``beta`` may be a scalar (returns a float) or an array (returns an array).

    Closed forms:
      ideal on/off      1 - exp(-|beta|^2)
      APD               1 - (1-p_d) exp(-eta (1-p_d) |beta|^2)
      stabilized HD     [erfc(sqrt2 (B+a)) + erfc(sqrt2 (B-a))] / 2, a = eta |beta|
      randomized HD     (1/2pi) int erfc(sqrt2 (B - a cos t)) dt over (-pi, pi)

    The randomized-HD integrand is even, periodic and entire in t, so the
    midpoint rule on (0, pi) with 32 + 8 ceil(max a) nodes is exact to rounding;
    more than ``MAX_HDR_TERMS`` points x nodes raise ValueError.
    """
    b = np.abs(beta)
    if isinstance(det, IdealOnOff):
        p = -np.expm1(-b * b)
    elif isinstance(det, Apd):
        q = 1.0 - det.dark_prob
        p = 1.0 - q * np.exp(-det.eta * q * b * b)
    elif isinstance(det, Homodyne):
        from scipy.special import erfc

        a = effective_displacement(det, b)
        B = det.threshold
        if isinstance(det, HomodyneStabilized):
            p = 0.5 * (erfc(np.sqrt(2.0) * (B + a)) + erfc(np.sqrt(2.0) * (B - a)))
        else:
            # one node set for all chunks, sized by the finite displacements
            a_max = np.max(a, initial=0.0, where=np.isfinite(a))
            n = 32 + 8 * math.ceil(a_max)
            if np.size(a) * n > MAX_HDR_TERMS:
                raise ValueError(
                    f"randomized-homodyne acceptance of {np.size(a)} point(s) up to "
                    f"displacement {a_max:.6g} needs over {MAX_HDR_TERMS} erfc terms")
            m = min(n, 2**20)  # nodes per slice
            rows = min(1024, 2**20 // m)  # at most ~2**20 terms per temporary
            flat, p = np.ravel(a), np.zeros(np.size(a))
            for j in range(0, n, m):
                cos = np.cos((np.arange(j, min(j + m, n)) + 0.5) * (np.pi / n))
                for i in range(0, flat.size, rows):
                    p[i:i + rows] += erfc(np.sqrt(2.0) * (B - flat[i:i + rows, None] * cos)).sum(-1)
            p = (p / n).reshape(np.shape(a))
    else:
        raise TypeError(f"unknown detector {det!r}")
    return float(p) if np.ndim(p) == 0 else p


def error_probability(det: FilterDetector) -> float:
    """Probability of accepting vacuum, E = P(0).

    Closed forms: 0 for the ideal detector, p_d for the APD and
    erfc(sqrt2 B) for both homodyne variants.
    """
    if isinstance(det, IdealOnOff):
        return 0.0
    if isinstance(det, Apd):
        return det.dark_prob
    from scipy.special import erfc

    return float(erfc(np.sqrt(2.0) * det.threshold))


def threshold_for_error(error_target: float) -> float:
    """Homodyne threshold B with erfc(sqrt2 B) = error_target, exact to 1e-12.

    The map B -> E is strictly decreasing, so the inverse is unique; the test
    suite cross-checks this value against an independent bisection root find.
    """
    from scipy.special import erfcinv

    if not 0.0 < error_target <= 1.0:
        raise ValueError(f"error target must lie in (0, 1], got {error_target}")
    # erfcinv(1) is -0.0; abs makes B = +0.0 there and changes no other value
    return abs(float(erfcinv(error_target) / np.sqrt(2.0)))


def acceptance_curvature(det: FilterDetector) -> float:
    """Analytic second derivative of P with respect to |beta| at |beta| = 0,
    the one source of the sensitivity :func:`vacfilter.metrics.sensitivity`
    (the test suite checks it against finite differences of P):
      ideal on/off      2
      APD               2 eta (1-p_d)^2
      stabilized HD     8 sqrt(2/pi) kappa^2 B exp(-2 B^2)
      randomized HD     half the stabilized value
    with kappa the efficiency scaling of the homodyne displacement.
    """
    if isinstance(det, IdealOnOff):
        return 2.0
    if isinstance(det, Apd):
        return 2.0 * det.eta * (1.0 - det.dark_prob) ** 2
    kappa = effective_displacement(det, 1.0)
    B = det.threshold
    hds = 8.0 * np.sqrt(2.0 / np.pi) * kappa * kappa * B * np.exp(-2.0 * B * B)
    if isinstance(det, HomodyneStabilized):
        return float(hds)
    return float(0.5 * hds)
