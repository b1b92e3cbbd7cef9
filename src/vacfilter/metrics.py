"""Figures of merit for the filtering protocol: sensitivity, gain and success
probability.  At matched error probability the (P_S, G) points of
:func:`gain_columns` for different detectors fall on the single curve
G = (1/p)(1 - (1-p) E / P_S)."""

from __future__ import annotations

import numpy as np

from .detectors import acceptance_curvature, acceptance_probability, error_probability

# Richardson extrapolation of the sensitivity: first step, halvings, agreement
RICHARDSON_H0 = 1e-2
RICHARDSON_LEVELS = 6
RICHARDSON_TOL = 1e-8


def sensitivity(det, tap_reflectivity: float, *, analytic: bool = False) -> float:
    """Half the second derivative of the acceptance probability with respect
    to the signal amplitude |alpha|, at |alpha| = 0, for a tap of
    reflectivity R (the detector sees sqrt(R) |alpha|).

    The derivative is taken with respect to the amplitude, not the photon
    number; this normalization makes the ideal on/off filter score exactly R.
    Computed by symmetric finite differences with Richardson extrapolation
    unless ``analytic=True``, in which case the closed-form curvature is used.
    """
    R = tap_reflectivity
    if not 0.0 < R <= 1.0:
        raise ValueError(f"tap reflectivity must lie in (0, 1], got {R}")
    if analytic:
        return 0.5 * R * acceptance_curvature(det)

    sqrt_r = np.sqrt(R)
    p0 = acceptance_probability(det, 0.0)

    def curvature(h):
        # f(t) = P(sqrt(R) t) is even in t, so 2 (f(h) - f(0)) / h^2 -> f''(0)
        return 2.0 * (acceptance_probability(det, sqrt_r * h) - p0) / (h * h)

    return 0.5 * _richardson_even(curvature)


def _richardson_even(d) -> float:
    """Richardson-extrapolate d(h) = c0 + c1 h^2 + c2 h^4 + ... toward h -> 0.

    Halves the step from RICHARDSON_H0 down to ~3e-4 and returns the deepest
    Neville column once consecutive estimates agree to RICHARDSON_TOL.
    """
    table = []
    best = None
    for k in range(RICHARDSON_LEVELS):
        h = RICHARDSON_H0 / 2.0 ** k
        row = [d(h)]
        for j, prev in enumerate(table[-1] if table else []):
            f = 4.0 ** (j + 1)
            row.append((f * row[j] - prev) / (f - 1.0))
        table.append(row)
        if best is not None and abs(row[-1] - best) < RICHARDSON_TOL:
            return row[-1]
        best = row[-1]
    return table[-1][-1]


def success_probability(p, p_accept, error_prob):
    """P_S = p P + (1-p) E, the overall rate of positive filter outcomes.

    Arguments may be scalars or arrays; the result broadcasts accordingly."""
    for name, v in (("p", p), ("p_accept", p_accept), ("error_prob", error_prob)):
        if not np.all((0.0 <= v) & (v <= 1.0)):
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return p * p_accept + (1.0 - p) * error_prob


def gain(p, p_s, error_prob, p_accept=None):
    """Gain G = p'/p of the coherent-state probability through the filter,
    written as (1/p) (1 - (1-p) E / P_S).  Arguments may be scalars or arrays.

    If ``p_accept`` is supplied, the inputs must satisfy P_S = p P + (1-p) E
    to 1e-12 relative, which makes G = P / P_S too.  Both sides of that
    identity are sums of nonnegative terms, so the check holds at any p; the
    two forms of G differ by rounding of order G eps ~ eps / p.
    """
    if np.any(p <= 0.0):
        raise ValueError("gain needs p > 0")
    if np.any(p_s <= 0.0):
        raise ValueError("gain undefined at vanishing success probability")
    g = (1.0 - (1.0 - p) * error_prob / p_s) / p
    if p_accept is not None:
        deviation = np.max(np.abs(p_s - (p * p_accept + (1.0 - p) * error_prob)) / p_s)
        if deviation > 1e-12:
            raise ValueError(f"inconsistent inputs: P_S and p P + (1-p) E disagree by up to "
                             f"{deviation:.3g} relative, so the gain forms do too")
    return g


def gain_columns(det, p: float, tap_photon_numbers) -> tuple:
    """Arrays (P_accept, P_S, G) of one detector over a grid of mean photon
    numbers R|alpha|^2 hitting the filter detector."""
    n_mean = np.asarray(tap_photon_numbers, dtype=float)
    if np.any(n_mean < 0.0):
        raise ValueError(f"mean photon numbers must be >= 0, got {n_mean}")
    e = error_probability(det)
    p_acc = acceptance_probability(det, np.sqrt(n_mean))
    p_s = success_probability(p, p_acc, e)
    return p_acc, p_s, gain(p, p_s, e, p_accept=p_acc)
