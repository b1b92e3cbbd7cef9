"""Figures of merit for the filtering protocol: sensitivity, gain and success
probability.  The sensitivity is the closed-form curvature of the acceptance
probability, scaled by the tap.  At matched error probability the (P_S, G)
points of :func:`gain_columns` for different detectors fall on the single
curve G = (1/p)(1 - (1-p) E / P_S)."""

from __future__ import annotations

import numpy as np

from .detectors import acceptance_curvature, acceptance_probability, error_probability


def sensitivity(det, tap_reflectivity: float) -> float:
    """Half the second derivative of the acceptance probability with respect
    to the signal amplitude |alpha|, at |alpha| = 0, for a tap of
    reflectivity R (the detector sees sqrt(R) |alpha|), from the closed-form
    curvature P''(0) of :func:`acceptance_curvature`: S = R P''(0) / 2.

    The derivative is taken with respect to the amplitude, not the photon
    number; this normalization makes the ideal on/off filter score exactly R.
    """
    R = tap_reflectivity
    if not 0.0 < R <= 1.0:
        raise ValueError(f"tap reflectivity must lie in (0, 1], got {R}")
    return 0.5 * R * acceptance_curvature(det)


def success_probability(p, p_accept, error_prob):
    """P_S = p P + (1-p) E, the overall rate of positive filter outcomes.

    Arguments may be scalars or arrays; the result broadcasts accordingly."""
    for name, v in (("p", p), ("p_accept", p_accept), ("error_prob", error_prob)):
        if not np.all((0.0 <= v) & (v <= 1.0)):
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return p * p_accept + (1.0 - p) * error_prob


def gain(p, p_s, error_prob):
    """Gain G = p'/p of the coherent-state probability through the filter,
    written as (1/p) (1 - (1-p) E / P_S).  Arguments may be scalars or arrays.

    With P_S = p P + (1-p) E this equals P / P_S; the two forms differ by
    rounding of order G eps ~ eps / p.
    """
    if np.any(p <= 0.0):
        raise ValueError("gain needs p > 0")
    if np.any(p_s <= 0.0):
        raise ValueError("gain undefined at vanishing success probability")
    return (1.0 - (1.0 - p) * error_prob / p_s) / p


def gain_columns(det, p: float, tap_photon_numbers) -> tuple:
    """Arrays (P_accept, P_S, G) of one detector over a grid of mean photon
    numbers R|alpha|^2 hitting the filter detector."""
    n_mean = np.asarray(tap_photon_numbers, dtype=float)
    if np.any(n_mean < 0.0):
        raise ValueError(f"mean photon numbers must be >= 0, got {n_mean}")
    e = error_probability(det)
    p_acc = acceptance_probability(det, np.sqrt(n_mean))
    p_s = success_probability(p, p_acc, e)
    return p_acc, p_s, gain(p, p_s, e)
