"""Security analysis of the filtered protocol against collective attacks.

The entanglement-based picture: Alice prepares a two-mode squeezed vacuum of
variance V and heterodynes one mode, which Gaussian-modulates coherent states
sent through the erasure channel toward Bob.  The asymptotic reverse-
reconciliation bound K = I_ab - chi_bE is evaluated "as if Gaussian" on the
covariance matrix of the actual (non-Gaussian) joint state, which lower-bounds
the true rate by Gaussian extremality.

With a tap filter in place, Bob's mode is split on a beam splitter of
transmissivity T = 1 - R, the tap is watched by an on/off detector, and only
click events are kept.  The click-conditioned covariance matrix follows from
the second-moment identity

    CV_click = (CV_all - P0 * CV_noclick) / P_S,      P_S = 1 - P0,

where CV_all is the tap-traced covariance after the beam splitter and
CV_noclick the no-click-conditioned one.

Every reported rate comes from one closed-form kernel in two stages,
``filtered_covariance`` (the click-conditioned moments and P_S) and
``key_rate`` (the bound on them), which owns ``NumericsError`` and g(y).  The
tests hold it to a Gaussian-mixture reference, a Fock oracle and 50 digits.

Two modeling knobs are exposed because they change the numbers:

* ``erased_mode_variance``: variance of Alice's mode in the erased branch.
  "marginal" uses V (the reduced state of the two-mode squeezed vacuum);
  "alphabet" uses (V+1/V)/2 (the thermal average of the prepared coherent
  alphabet).  "marginal" is the default: it is the choice consistent with the
  entanglement-based picture and the one that reproduces the published
  security thresholds (see tests).
* ``protocol``: "heterodyne" (Bob heterodynes, default) or "homodyne"
  (Bob measures one random quadrature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detectors import Apd

MIN_SUCCESS_PROB = 1e-12
MAX_VARIANCE = 1e4  # kernel rounding grows as V^2 near pure states, 2.2e-7 at 1e4


class NumericsError(RuntimeError):
    """A computation became numerically degenerate (singular matrix, vanishing
    success probability)."""


def entropy_g(y):
    """g(y) = (y+1) log2(y+1) - y log2 y, the bosonic entropy of a thermal
    state with mean photon number y, for a scalar (returns a float) or an
    array; 0 where y <= 0 and NaN where y is NaN."""
    y = np.asarray(y, dtype=float)
    off = y <= 0.0
    y_on = np.where(off, 1.0, y)  # keeps log2 away from zero and negatives
    g = np.where(off, 0.0, (y_on + 1.0) * np.log2(y_on + 1.0) - y_on * np.log2(y_on))
    return float(g) if g.ndim == 0 else g


@dataclass(frozen=True)
class TapFilter:
    """Filter hardware: tap reflectivity R and the on/off detector watching
    it, whose ``eta`` and ``dark_prob`` are checked as for ``detectors.Apd``."""

    tap_reflectivity: float
    eta: float = 1.0
    dark_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.tap_reflectivity < 1.0:
            raise ValueError(
                f"tap reflectivity must lie in (0, 1), got {self.tap_reflectivity}"
            )
        Apd(self.eta, self.dark_prob)

    @property
    def transmissivity(self) -> float:
        return 1.0 - self.tap_reflectivity


@dataclass(frozen=True)
class QkdScenario:
    V: float
    p: float
    filter: TapFilter | None = None
    protocol: str = "heterodyne"
    erased_mode_variance: str = "marginal"
    prefactor: str = "ps"  # "ps": K = P_S (I - chi);  "p_ps": K = p P_S (I - chi)

    def __post_init__(self):
        if not 1.0 <= self.V <= MAX_VARIANCE:
            raise ValueError(f"squeezing variance must lie in [1, {MAX_VARIANCE:g}], got {self.V}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"transmission probability must lie in [0, 1], got {self.p}")
        if self.protocol not in ("heterodyne", "homodyne"):
            raise ValueError(f"protocol must be heterodyne/homodyne, got {self.protocol!r}")
        if self.erased_mode_variance not in ("marginal", "alphabet"):
            raise ValueError(
                f"erased_mode_variance must be marginal/alphabet, got {self.erased_mode_variance!r}"
            )
        if self.prefactor not in ("ps", "p_ps"):
            raise ValueError(f"prefactor must be ps/p_ps, got {self.prefactor!r}")


@dataclass(frozen=True)
class KeyRateResult:
    k_lower: float
    i_ab: float
    chi_be: float
    p_s: float
    multiplier: float
    optimizer: tuple | None = None  # (V, T) when produced by an optimizer


def filtered_covariance(V, T, p, flt, erased_mode_variance):
    """Click-conditioned moments (a, b, c, P_S) of the Alice/Bob covariance
    matrix [[a I, c Z], [c Z, b I]] on scalars or broadcast arrays of V and T;
    without a filter (``flt`` None) T is unused and P_S is 1.0.

    Each zero-mean branch is three scalars (Alice variance A, Bob variance B,
    correlation C).  Behind the tap it keeps its click part: with s the tap
    variance plus the detector's 2/eta - 1 and kappa = (1 - p_d) 2/eta, the
    no-click weight is kappa / s and 1 - kappa / s = (r (B - 1) + 2 p_d / eta) / s,
    so P_S and the click-weighted (a, b, c) are sums of nonnegative terms, free
    of the cancellation 1 - P0 suffers when P_S is small.  Raises NumericsError
    on a degenerate P_S.
    """
    w = V if erased_mode_variance == "marginal" else (V + 1.0 / V) / 2.0
    C = np.sqrt(V * V - 1.0)
    if flt is None:
        a = p * V + (1.0 - p) * w
        return a, p * V + 1.0 - p, p * C, np.ones_like(a)
    r = 1.0 - T
    kappa = (1.0 - flt.dark_prob) * (2.0 / flt.eta)
    a = b = c = p_s = 0.0
    for weight, A, B, Ck in ((p, V, V, C), (1.0 - p, w, 1.0, 0.0)):
        s = r * B + T + (2.0 / flt.eta - 1.0)
        q = (r * (B - 1.0) + 2.0 * flt.dark_prob / flt.eta) / s  # 1 - kappa / s
        loss = kappa * r / (s * s)
        p_s = p_s + weight * q
        a = a + weight * (A * q + loss * Ck * Ck)
        b = b + weight * ((T * B + r) * q + loss * T * (B - 1.0) ** 2)
        c = c + weight * np.sqrt(T) * Ck * (q + loss * (B - 1.0))
    if np.any(p_s <= MIN_SUCCESS_PROB):
        raise NumericsError(f"filter success probability degenerate (P_S = {np.min(p_s):.3e})")
    return a / p_s, b / p_s, c / p_s, p_s


def key_rate(a, b, c, p_s, protocol):
    """Reverse-reconciliation Gaussian key-rate terms (K, I_ab, chi_bE, P_S),
    K = P_S (I_ab - chi_bE), of the moments (a, b, c) on scalars or arrays; a
    non-finite K raises NumericsError (argmax would pick a NaN).

    heterodyne (Bob measures both quadratures):
        I_ab  = log2[(a+1) / (a+1 - c^2/(b+1))]
        chi   = g((nu+ - 1)/2) + g((nu- - 1)/2) - g((nu3 - 1)/2),
                nu3 = a - c^2/(b+1)
    homodyne (Bob measures one quadrature):
        I_ab  = (1/2) log2[(a+1) / (a+1 - c^2/b)]
        nu3   = sqrt(a (a - c^2/b))
    """
    # nu+- = sqrt((Delta +- sqrt(Delta^2 - 4 D^2)) / 2); the root is factored
    # and nu- = D / nu+ so that nearly pure states keep full precision
    D = a * b - c * c
    nu_plus = np.sqrt((a * a + b * b - 2.0 * c * c
                       + np.abs(a - b) * np.sqrt((a + b) ** 2 - 4.0 * c * c)) / 2.0)
    if protocol == "heterodyne":
        i_ab = np.log2((a + 1.0) / (a + 1.0 - c * c / (b + 1.0)))
        nu3 = a - c * c / (b + 1.0)
    else:
        i_ab = 0.5 * np.log2((a + 1.0) / (a + 1.0 - c * c / b))
        nu3 = np.sqrt(np.maximum(a * (a - c * c / b), 0.0))
    g_plus, g_minus = entropy_g((nu_plus - 1.0) / 2.0), entropy_g((D / nu_plus - 1.0) / 2.0)
    g3 = entropy_g((nu3 - 1.0) / 2.0)
    k = p_s * (i_ab - g_plus - g_minus + g3)
    if not np.all(np.isfinite(k)):
        raise NumericsError("key rate not finite on the (V, T) grid")
    return k, i_ab, g_plus + g_minus - g3, p_s


def scenario_key_rate(scenario: QkdScenario) -> KeyRateResult:
    """Key-rate bound of a full scenario (filtered or not), from the kernel."""
    flt = scenario.filter
    moments = filtered_covariance(scenario.V, 1.0 if flt is None else flt.transmissivity,
                                  scenario.p, flt, scenario.erased_mode_variance)
    return _report(key_rate(*moments, scenario.protocol), scenario.p, flt, scenario.prefactor)


def _report(terms, p, flt, prefactor, optimizer=None) -> KeyRateResult:
    """KeyRateResult of kernel terms; "p_ps" scales a filtered K by p."""
    k, i_ab, chi, p_s = (float(x) for x in terms)
    scale = p if flt is not None and prefactor == "p_ps" else 1.0
    return KeyRateResult(scale * k, i_ab, chi, p_s, scale * p_s, optimizer)


def weak_squeezing_keyrate(p: float, p_s: float, transmissivity: float, V: float) -> float:
    """Small-alphabet closed form p * P_S * (1/2) log2(e/2) * T * (V-1)^2.

    The exact bound approaches this expression with the P_S slot instantiated
    as the tap fraction 1 - T; the test suite pins that correspondence.
    """
    if not V >= 1.0:
        raise ValueError(f"squeezing variance must be >= 1, got {V}")
    return p * p_s * 0.5 * math.log2(math.e / 2.0) * transmissivity * (V - 1.0) ** 2


# ---------------------------------------------------------------------------
# optimization and threshold search
# ---------------------------------------------------------------------------

_V_COARSE = np.concatenate([np.linspace(1.002, 1.3, 25), np.linspace(1.35, 4.0, 23)])
_T_COARSE = np.linspace(0.02, 0.95, 32)
REFINE_ROUNDS = 2
P_FLOOR = 1e-3
MAX_ITERATIONS = 60


def _grid_optimum(p, flt, protocol, erased_mode_variance):
    """Kernel maximum of K (prefactor "ps") over V, and over the filter
    transmissivity T when a filter is present, by a deterministic coarse grid
    followed by local refinement.  Returns the kernel's terms there and
    (V, T), T being 1.0 without a filter; the arguments are assumed checked."""
    def grid_best(vs, ts):
        terms = key_rate(*filtered_covariance(vs[:, None], ts[None, :], p, flt,
                                              erased_mode_variance), protocol)
        i, j = np.unravel_index(np.argmax(terms[0]), terms[0].shape)  # first maximum, V-major
        return [x[i, j] for x in terms], (vs[i], 1.0 if flt is None else ts[j])

    t_coarse = np.array([1.0]) if flt is None else _T_COARSE
    best, best_vt = grid_best(_V_COARSE, t_coarse)

    v_span = float(_V_COARSE[1] - _V_COARSE[0]) * 2.0
    t_span = float(_T_COARSE[1] - _T_COARSE[0]) * 2.0 if flt is not None else 0.0
    for _ in range(REFINE_ROUNDS):
        v0, t0 = best_vt
        vs = np.linspace(max(1.0005, v0 - v_span), v0 + v_span, 9)
        ts = t_coarse if flt is None else np.linspace(
            max(0.005, t0 - t_span), min(0.995, t0 + t_span), 9)
        terms, vt = grid_best(vs, ts)
        if terms[0] > best[0]:
            best, best_vt = terms, vt
        v_span /= 3.0
        t_span /= 3.0
    return best, best_vt


def optimize_key_rate(p: float, flt: TapFilter | None = None, *,
                      protocol: str = "heterodyne",
                      erased_mode_variance: str = "marginal",
                      prefactor: str = "ps") -> KeyRateResult:
    """Maximize the key-rate bound over the squeezing variance V (and the
    filter transmissivity T when a filter is present) on the kernel's grids.

    The grids are scored by the closed-form kernel under ``prefactor`` "ps";
    "p_ps" scales K by the constant p, which leaves the maximizer alone.  The
    result holds the kernel's terms at the chosen (V, T) under ``prefactor``.
    """
    QkdScenario(1.0, p, flt, protocol, erased_mode_variance, prefactor)  # argument checks
    terms, (V, T) = _grid_optimum(p, flt, protocol, erased_mode_variance)
    return _report(terms, p, flt, prefactor, optimizer=(float(V), float(T)))


@dataclass
class PminResult:
    p_min: float
    precision: float
    bounded_below: bool  # True when the rate is already positive at the floor
    trace: list  # (p, max K) pairs explored by the bisection, K from the kernel


def p_min_search(flt: TapFilter | None = None, *,
                 precision: float = 1e-3,
                 protocol: str = "heterodyne",
                 erased_mode_variance: str = "marginal") -> PminResult:
    """Smallest channel transmission probability with a positive optimized
    key-rate bound, by bisection on the sign of max_(V,T) K(p).

    Each step reads the kernel's grid optimum, the K that ``optimize_key_rate``
    reports at that p.  The search is deterministic (fixed grids, no
    stochastic optimizer), and the filter's own tap is ignored because T is
    optimized.  If the bound is already positive at ``P_FLOOR`` the floor is
    returned with ``bounded_below=True`` (an ideal filter keeps the protocol
    secure for arbitrarily small p).  ``precision`` must lie in (0, 1).
    """
    if not 0.0 < precision < 1.0:
        raise ValueError(f"precision must lie in (0, 1), got {precision}")
    QkdScenario(1.0, P_FLOOR, flt, protocol, erased_mode_variance)  # argument checks
    trace = []

    def max_rate(p):
        k = float(_grid_optimum(p, flt, protocol, erased_mode_variance)[0][0])
        trace.append((p, k))
        return k

    lo, hi = P_FLOOR, 1.0 - 1e-9
    if max_rate(lo) > 0.0:
        return PminResult(lo, precision, True, trace)
    k_hi = max_rate(hi)
    if k_hi <= 0.0:
        raise NumericsError(
            "key rate not positive even at p ~ 1; no threshold to bracket"
        )
    iterations = 0
    while hi - lo > precision:
        if iterations >= MAX_ITERATIONS:
            raise NumericsError("bisection budget exhausted before reaching precision")
        mid = 0.5 * (lo + hi)
        if max_rate(mid) > 0.0:
            hi = mid
        else:
            lo = mid
        iterations += 1
    return PminResult(0.5 * (lo + hi), precision, False, trace)
