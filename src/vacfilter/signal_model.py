"""Coherent-state alphabet, erasure channel, tap split and quadrature marginals.

The channel transmits a coherent state |alpha> with probability p and
replaces it by vacuum otherwise.  A beam splitter of reflectivity R taps a
fraction of the signal for the filter detector; the transmitted amplitude is
sqrt(T) alpha with T = 1 - R, and the presence/absence of the signal is
perfectly correlated between the two arms.

Quadrature marginals use the homodyne convention (vacuum variance 1/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

VACUUM_QUAD_VARIANCE = 0.25


@dataclass(frozen=True)
class CoherentAmplitude:
    """Complex field amplitude; |alpha|^2 is the mean photon number."""

    re: float
    im: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError(f"coherent amplitude must be finite, got re={self.re}, im={self.im}")

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @property
    def mean_photons(self) -> float:
        return self.re * self.re + self.im * self.im

    @property
    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    def scaled(self, factor: float) -> "CoherentAmplitude":
        return CoherentAmplitude(factor * self.re, factor * self.im)


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
    def tap_amplitude(self) -> CoherentAmplitude:
        return self.alpha.scaled(math.sqrt(self.tap_reflectivity))

    @property
    def transmitted_amplitude(self) -> CoherentAmplitude:
        return self.alpha.scaled(math.sqrt(self.transmissivity))


@dataclass(frozen=True)
class PostFilterMixture:
    """The signal-arm mixture after accepting a filter outcome: the coherent
    branch now has posterior probability p' and amplitude sqrt(T) alpha."""

    p_prime: float
    transmitted_alpha: CoherentAmplitude

    def __post_init__(self):
        if not 0.0 <= self.p_prime <= 1.0 + 1e-12:
            raise ValueError(f"posterior probability {self.p_prime} outside [0, 1]")


def posterior_mixture(mix: ErasureMixture, p_accept: float,
                      error_prob: float) -> PostFilterMixture:
    """Posterior coherent-state probability after the filter accepted.

    p' = p P / (p P + (1-p) E).  Requires P >= E (the filter must accept the
    signal at least as often as vacuum) and a nonvanishing overall success
    probability.
    """
    if not 0.0 <= error_prob <= p_accept <= 1.0:
        raise ValueError(
            f"need 0 <= E <= P <= 1, got P={p_accept}, E={error_prob}"
        )
    p_s = mix.p * p_accept + (1.0 - mix.p) * error_prob
    if p_s <= 0.0:
        raise ValueError("filter never accepts; posterior undefined")
    return PostFilterMixture(mix.p * p_accept / p_s, mix.transmitted_amplitude)


def _branches(mixture) -> list:
    """Weighted coherent branches (weight, complex amplitude) of a mixture."""
    if isinstance(mixture, ErasureMixture):
        return [(mixture.p, mixture.transmitted_amplitude.value), (1.0 - mixture.p, 0j)]
    if isinstance(mixture, PostFilterMixture):
        return [
            (mixture.p_prime, mixture.transmitted_alpha.value),
            (1.0 - mixture.p_prime, 0j),
        ]
    return [(float(w), complex(amp)) for w, amp in mixture]


def marginal_density(mixture, x):
    """Quadrature probability density of a coherent/vacuum mixture.

    ``mixture`` may be an ErasureMixture, a PostFilterMixture, or an explicit
    list of (weight, complex amplitude) branches.  Each branch contributes a
    normal component with mean Re(amp) and variance 1/4.
    """
    x = np.asarray(x, dtype=float)
    dens = np.zeros_like(x, dtype=float)
    norm = 1.0 / np.sqrt(2.0 * np.pi * VACUUM_QUAD_VARIANCE)
    for w, amp in _branches(mixture):
        mean = amp.real
        dens += w * norm * np.exp(-((x - mean) ** 2) / (2.0 * VACUUM_QUAD_VARIANCE))
    return dens if dens.ndim else float(dens)


def marginal_cdf(mixture, x):
    """Cumulative version of :func:`marginal_density` (used for binned
    expected probabilities in goodness-of-fit tests)."""
    from scipy.special import ndtr

    x = np.asarray(x, dtype=float)
    sd = np.sqrt(VACUUM_QUAD_VARIANCE)
    out = np.zeros_like(x, dtype=float)
    for w, amp in _branches(mixture):
        out += w * ndtr((x - amp.real) / sd)
    return out if out.ndim else float(out)
