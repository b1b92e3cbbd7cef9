"""Coherent-state alphabet, erasure channel, tap split and quadrature marginals.

The channel transmits a coherent state |alpha> with probability p and
replaces it by vacuum otherwise.  A beam splitter of reflectivity R taps a
fraction of the signal for the filter detector; the transmitted amplitude is
sqrt(T) alpha with T = 1 - R, and the presence/absence of the signal is
perfectly correlated between the two arms.

Every filter and the verification homodyne respond only to the size of the
amplitude, so an amplitude is one real number >= 0 and a mixture's posterior
is a plain list of (weight, amplitude) branches.  Quadrature marginals use
the homodyne convention (vacuum variance 1/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

VACUUM_QUAD_VARIANCE = 0.25


@dataclass(frozen=True)
class CoherentAmplitude:
    """Real amplitude |alpha| >= 0 of a coherent state; its square is the
    mean photon number.  The phase is not modelled."""

    magnitude: float

    def __post_init__(self):
        m = self.magnitude
        if not (isinstance(m, Real) and math.isfinite(m) and m >= 0.0):
            raise ValueError(f"coherent amplitude must be a finite real number >= 0, got {m}")


@dataclass(frozen=True)
class ErasureMixture:
    """p |alpha><alpha| + (1-p) |0><0| entering a tap of reflectivity R."""

    alpha: CoherentAmplitude
    p: float
    tap_reflectivity: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"transmission probability must lie in [0, 1], got {self.p}")
        if not 0.0 <= self.tap_reflectivity <= 1.0:
            raise ValueError(
                f"tap reflectivity must lie in [0, 1], got {self.tap_reflectivity}"
            )

    @property
    def transmissivity(self) -> float:
        return 1.0 - self.tap_reflectivity

    @property
    def transmitted_amplitude(self) -> CoherentAmplitude:
        return CoherentAmplitude(math.sqrt(self.transmissivity) * self.alpha.magnitude)


def posterior_mixture(mix: ErasureMixture, p_accept: float, error_prob: float) -> list:
    """Signal-arm branches [(p', sqrt(T) |alpha|), (1 - p', 0.0)] after the
    filter accepted, with the posterior coherent-state probability

    p' = p P / (p P + (1-p) E).  Requires P >= E (the filter must accept the
    signal at least as often as vacuum) and a nonvanishing overall success
    probability.
    """
    if not 0.0 <= error_prob <= p_accept <= 1.0:
        raise ValueError(f"need 0 <= E <= P <= 1, got P={p_accept}, E={error_prob}")
    p_s = mix.p * p_accept + (1.0 - mix.p) * error_prob
    if p_s <= 0.0:
        raise ValueError("filter never accepts; posterior undefined")
    p_prime = mix.p * p_accept / p_s
    return [(p_prime, mix.transmitted_amplitude.magnitude), (1.0 - p_prime, 0.0)]


def _branches(mixture) -> list:
    """(weight, amplitude) branches of an ErasureMixture or of a branch list."""
    if isinstance(mixture, ErasureMixture):
        return [(mixture.p, mixture.transmitted_amplitude.magnitude), (1.0 - mixture.p, 0.0)]
    return [(float(w), CoherentAmplitude(amp).magnitude) for w, amp in mixture]


def marginal_density(mixture, x):
    """Quadrature probability density of a coherent/vacuum mixture.

    ``mixture`` may be an ErasureMixture or a list of (weight, amplitude)
    branches, such as :func:`posterior_mixture` returns, each amplitude a real
    number >= 0.  Each branch contributes a normal component with mean amp and
    variance 1/4.
    """
    x = np.asarray(x, dtype=float)
    dens = np.zeros_like(x, dtype=float)
    norm = 1.0 / np.sqrt(2.0 * np.pi * VACUUM_QUAD_VARIANCE)
    for w, amp in _branches(mixture):
        # past |x - amp| ~ 1.3e154 the square overflows to inf and exp gives 0.0
        with np.errstate(over="ignore"):
            dens += w * norm * np.exp(-((x - amp) ** 2) / (2.0 * VACUUM_QUAD_VARIANCE))
    return dens if dens.ndim else float(dens)


def marginal_cdf(mixture, x):
    """Cumulative version of :func:`marginal_density` (used for binned
    expected probabilities in goodness-of-fit tests)."""
    from scipy.special import ndtr

    x = np.asarray(x, dtype=float)
    sd = np.sqrt(VACUUM_QUAD_VARIANCE)
    out = np.zeros_like(x, dtype=float)
    for w, amp in _branches(mixture):
        out += w * ndtr((x - amp) / sd)
    return out if out.ndim else float(out)
