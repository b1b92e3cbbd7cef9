"""Security analysis of the filtered protocol against collective attacks.

The entanglement-based picture: Alice prepares a two-mode squeezed vacuum of
variance V and heterodynes one mode, which Gaussian-modulates coherent states
sent through the erasure channel toward Bob.  The asymptotic reverse-
reconciliation bound K = I_ab - chi_bE is evaluated "as if Gaussian" on the
covariance matrix of the actual (non-Gaussian) joint state, which lower-bounds
the true rate by Gaussian extremality.

With a tap filter in place, Bob's mode is split on a beam splitter of
transmissivity T = 1 - R, the tap is watched by a ``detectors.Apd``, and only
click events are kept.  The kernel reads the detector's no-click element
(1 - p_d)(1 - eta)^n, while ``detectors.acceptance_probability`` uses
1 - (1 - p_d) exp(-eta (1 - p_d) |beta|^2): the class is shared, the formulas
are not.  The click-conditioned covariance matrix follows from the
second-moment identity

    CV_click = (CV_all - P0 * CV_noclick) / P_S,      P_S = 1 - P0,

where CV_all is the tap-traced covariance after the beam splitter and
CV_noclick the no-click-conditioned one.

Every reported rate comes from one closed-form kernel in two stages,
``filtered_covariance`` (the click-conditioned moments and P_S: the
p-independent ``_branch_terms`` mixed with the weights p and 1 - p, so a
search builds a grid's branch terms once) and ``key_rate`` (the bound on
them), which owns ``NumericsError`` and g(y).  The tests hold it to a
Gaussian-mixture reference, a Fock oracle, 50 digits and, bit for bit, a
one-loop form of the same formula.

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
    any_off = off.any()
    y_on = np.where(off, 1.0, y) if any_off else y  # keeps log2 away from zero and negatives
    g = (y_on + 1.0) * np.log2(y_on + 1.0) - y_on * np.log2(y_on)
    g = np.where(off, 0.0, g) if any_off else g
    return float(g) if g.ndim == 0 else g


@dataclass(frozen=True)
class QkdScenario:
    V: float
    p: float
    filter: Apd | None = None
    protocol: str = "heterodyne"
    erased_mode_variance: str = "marginal"
    prefactor: str = "ps"  # "ps": K = P_S (I - chi);  "p_ps": K = p P_S (I - chi)
    tap_reflectivity: float = 0.5  # R of the filter's tap; read only with a filter

    def __post_init__(self):
        if self.filter is not None:
            if not isinstance(self.filter, Apd):
                raise TypeError(f"the filter must be a detectors.Apd, got {self.filter!r}")
            if not 0.0 < self.tap_reflectivity < 1.0:
                raise ValueError(
                    f"tap reflectivity must lie in (0, 1), got {self.tap_reflectivity}")
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


def filtered_covariance(V, T, p, det, erased_mode_variance):
    """Click-conditioned moments (a, b, c, P_S) of the Alice/Bob covariance
    matrix [[a I, c Z], [c Z, b I]] on scalars or broadcast arrays of V and T;
    without a filter (``det`` None) T is unused and P_S is 1.0.

    Each zero-mean branch is three scalars (Alice variance A, Bob variance B,
    correlation C).  Behind the tap it keeps its click part: with s the tap
    variance plus the detector's 2/eta - 1 and kappa = (1 - p_d) 2/eta, the
    no-click weight is kappa / s and 1 - kappa / s = (r (B - 1) + 2 p_d / eta) / s,
    so P_S and the click-weighted (a, b, c) are sums of nonnegative terms, free
    of the cancellation 1 - P0 suffers when P_S is small.  s, q, the loss
    factor kappa r / s^2 and each branch's moment sums are p-independent
    (``_branch_terms``); ``_mix`` applies the weights p and 1 - p last.
    Raises NumericsError on a degenerate P_S.
    """
    return _mix(_branch_terms(V, T, det, erased_mode_variance), p, det)


def _branch_terms(V, T, det, erased_mode_variance):
    """The p-independent terms of ``filtered_covariance``: (V, w, C) without a
    filter; with one, the squeezed branch's q, a and b sums and the factors of
    c, then the erased branch's q, a and b (B = 1 and Ck = 0 drop exact zeros)."""
    w = V if erased_mode_variance == "marginal" else (V + 1.0 / V) / 2.0
    C = np.sqrt(V * V - 1.0)
    if det is None:
        return V, w, C
    r = 1.0 - T
    s = r * V + T + (2.0 / det.eta - 1.0)
    q = (r * (V - 1.0) + 2.0 * det.dark_prob / det.eta) / s  # 1 - kappa / s
    loss = (1.0 - det.dark_prob) * (2.0 / det.eta) * r / (s * s)  # kappa r / s^2
    q0 = 2.0 * det.dark_prob / det.eta / (r + T + (2.0 / det.eta - 1.0))
    return (q, V * q + loss * C * C, (T * V + r) * q + loss * T * ((V - 1.0) * (V - 1.0)),
            np.sqrt(T), C, q + loss * (V - 1.0), q0, w * q0, (T + r) * q0)


def _mix(terms, p, det):
    """(a, b, c, P_S) of ``_branch_terms`` with the branch weights p and 1 - p."""
    if det is None:
        V, w, C = terms
        a = p * V + (1.0 - p) * w
        return a, p * V + 1.0 - p, p * C, np.ones_like(a)
    q, a1, b1, sqrt_t, C, c1, q0, a0, b0 = terms
    p_s = p * q + (1.0 - p) * q0
    if np.any(p_s <= MIN_SUCCESS_PROB):
        raise NumericsError(f"filter success probability degenerate (P_S = {np.min(p_s):.3e})")
    a, b = p * a1 + (1.0 - p) * a0, p * b1 + (1.0 - p) * b0
    # c multiplies p first, (p sqrt(T)) C (...), so its rounding is the one-loop formula's
    return a / p_s, b / p_s, p * sqrt_t * C * c1 / p_s, p_s


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
    cc, a1, a_b = c * c, a + 1.0, a + b
    D = a * b - cc
    nu_plus = np.sqrt((a * a + b * b - 2.0 * cc
                       + np.abs(a - b) * np.sqrt(a_b * a_b - 4.0 * cc)) / 2.0)
    if protocol == "heterodyne":
        x = cc / (b + 1.0)
        i_ab, nu3 = np.log2(a1 / (a1 - x)), a - x
    else:
        x = cc / b
        i_ab, nu3 = 0.5 * np.log2(a1 / (a1 - x)), np.sqrt(np.maximum(a * (a - x), 0.0))
    g_plus, g_minus, g3 = entropy_g(np.stack(
        [(nu_plus - 1.0) / 2.0, (D / nu_plus - 1.0) / 2.0, (nu3 - 1.0) / 2.0]))
    k = p_s * (i_ab - g_plus - g_minus + g3)
    if not np.all(np.isfinite(k)):
        raise NumericsError("key rate not finite on the (V, T) grid")
    return k, i_ab, g_plus + g_minus - g3, p_s


def scenario_key_rate(scenario: QkdScenario) -> KeyRateResult:
    """Key-rate bound of a full scenario (filtered or not), from the kernel."""
    det = scenario.filter
    moments = filtered_covariance(scenario.V, 1.0 - scenario.tap_reflectivity, scenario.p, det,
                                  scenario.erased_mode_variance)
    return _report(key_rate(*moments, scenario.protocol), scenario.p, det, scenario.prefactor)


def _report(terms, p, det, prefactor, optimizer=None) -> KeyRateResult:
    """KeyRateResult of kernel terms; "p_ps" scales a filtered K by p."""
    k, i_ab, chi, p_s = (float(x) for x in terms)
    scale = p if det is not None and prefactor == "p_ps" else 1.0
    return KeyRateResult(scale * k, i_ab, chi, p_s, scale * p_s, optimizer)


# ---------------------------------------------------------------------------
# optimization and threshold search
# ---------------------------------------------------------------------------

_V_COARSE = np.concatenate([np.linspace(1.002, 1.3, 25), np.linspace(1.35, 4.0, 23)])
_T_COARSE = np.linspace(0.02, 0.95, 32)
REFINE_ROUNDS = 2
P_FLOOR = 1e-3
MAX_ITERATIONS = 60


def _grid_optimum(p, det, protocol, erased_mode_variance, coarse):
    """Kernel maximum of K (prefactor "ps") over V, and over the filter
    transmissivity T when a filter is present, by a deterministic coarse grid
    (the caller passes its p-independent ``_branch_terms`` as ``coarse``)
    followed by local refinement.  Returns the kernel's terms there and (V, T),
    T being 1.0 without a filter; the arguments are assumed checked."""
    def grid_best(moments, vs, ts):
        terms = key_rate(*moments, protocol)
        i, j = np.unravel_index(np.argmax(terms[0]), terms[0].shape)  # first maximum, V-major
        return [x[i, j] for x in terms], (vs[i], 1.0 if det is None else ts[j])

    best, best_vt = grid_best(_mix(coarse, p, det), _V_COARSE, _T_COARSE)

    v_span = float(_V_COARSE[1] - _V_COARSE[0]) * 2.0
    t_span = float(_T_COARSE[1] - _T_COARSE[0]) * 2.0 if det is not None else 0.0
    for _ in range(REFINE_ROUNDS):
        v0, t0 = best_vt
        vs = np.linspace(max(1.0005, v0 - v_span), v0 + v_span, 9)
        ts = np.ones(1) if det is None else np.linspace(
            max(0.005, t0 - t_span), min(0.995, t0 + t_span), 9)
        terms, vt = grid_best(filtered_covariance(vs[:, None], ts[None, :], p, det,
                                                  erased_mode_variance), vs, ts)
        if terms[0] > best[0]:
            best, best_vt = terms, vt
        v_span /= 3.0
        t_span /= 3.0
    return best, best_vt


def optimize_key_rate(p: float, det: Apd | None = None, *,
                      protocol: str = "heterodyne",
                      erased_mode_variance: str = "marginal",
                      prefactor: str = "ps") -> KeyRateResult:
    """Maximize the key-rate bound over the squeezing variance V (and the
    filter transmissivity T when a filter is present) on the kernel's grids.

    The grids are scored by the closed-form kernel under ``prefactor`` "ps";
    "p_ps" scales K by the constant p, which leaves the maximizer alone.  The
    result holds the kernel's terms at the chosen (V, T) under ``prefactor``.
    """
    QkdScenario(1.0, p, det, protocol, erased_mode_variance, prefactor)  # argument checks
    coarse = _branch_terms(_V_COARSE[:, None], _T_COARSE[None, :], det, erased_mode_variance)
    terms, (V, T) = _grid_optimum(p, det, protocol, erased_mode_variance, coarse)
    return _report(terms, p, det, prefactor, optimizer=(float(V), float(T)))


@dataclass
class PminResult:
    p_min: float
    precision: float
    bounded_below: bool  # True when the rate is already positive at the floor
    trace: list  # (p, max K) pairs explored by the bisection, K from the kernel


def p_min_search(det: Apd | None = None, *,
                 precision: float = 1e-3,
                 protocol: str = "heterodyne",
                 erased_mode_variance: str = "marginal") -> PminResult:
    """Smallest channel transmission probability with a positive optimized
    key-rate bound, by bisection on the sign of max_(V,T) K(p).

    Each step reads the kernel's grid optimum, the K that ``optimize_key_rate``
    reports at that p.  The search is deterministic (fixed grids, no
    stochastic optimizer).  If the bound is already positive at ``P_FLOOR``
    the floor is returned with ``bounded_below=True`` (an ideal filter keeps
    the protocol secure for arbitrarily small p).  ``precision`` must lie in
    (0, 1).
    """
    if not 0.0 < precision < 1.0:
        raise ValueError(f"precision must lie in (0, 1), got {precision}")
    QkdScenario(1.0, P_FLOOR, det, protocol, erased_mode_variance)  # argument checks
    trace = []
    coarse = _branch_terms(_V_COARSE[:, None], _T_COARSE[None, :], det, erased_mode_variance)

    def max_rate(p):
        k = float(_grid_optimum(p, det, protocol, erased_mode_variance, coarse)[0][0])
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
