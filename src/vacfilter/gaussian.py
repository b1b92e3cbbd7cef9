"""Covariance-matrix calculus for multimode Gaussian states and mixtures.

Conventions used throughout this module:

* quadrature ordering (x1, p1, ..., xn, pn) with x = a + a†, p = i(a† - a),
  so the vacuum covariance matrix is the identity;
* a coherent state of amplitude alpha has mean vector (2 Re alpha, 2 Im alpha);
* the homodyne-facing modules use vacuum variance 1/4 instead, i.e. their
  quadratures are ours divided by 2.

Mixtures of Gaussian states are kept as explicit weighted component lists;
no moment matching happens here.  A reference for the tests and ``oracle
noclick`` only; ``NumericsError`` and g(y) come from the kernel in ``qkd``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qkd import NumericsError, entropy_g

SYMMETRY_TOL = 1e-12
PHYSICALITY_TOL = 1e-9
WEIGHT_TOL = 1e-12


def symplectic_form(n_modes: int) -> np.ndarray:
    """The 2n x 2n symplectic form Omega in (x1, p1, ...) ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


class CovMatrix:
    """A validated 2n x 2n quadrature covariance matrix (vacuum = identity).

    Validation enforces symmetry to 1e-12, positivity of Gamma + i*Omega to
    -1e-9 and symplectic eigenvalues >= 1 - 1e-9; the stored matrix is the
    symmetric part of the input.
    """

    def __init__(self, mat):
        mat = np.array(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
            raise ValueError(f"covariance matrix must be 2n x 2n, got {mat.shape}")
        asym = np.max(np.abs(mat - mat.T)) if mat.size else 0.0
        if asym > SYMMETRY_TOL:
            raise ValueError(f"covariance matrix not symmetric (max deviation {asym:.3e})")
        mat = 0.5 * (mat + mat.T)
        n = mat.shape[0] // 2
        omega = symplectic_form(n)
        herm = mat + 1j * omega
        min_eig = float(np.linalg.eigvalsh(herm).min())
        if min_eig < -PHYSICALITY_TOL:
            raise ValueError(
                f"unphysical covariance matrix: min eig of Gamma + i Omega = {min_eig:.3e}"
            )
        nu_min = _symplectic_eigenvalues_raw(mat).min()
        if nu_min < 1.0 - PHYSICALITY_TOL:
            raise ValueError(
                f"unphysical covariance matrix: min symplectic eigenvalue {nu_min:.12f}"
            )
        mat.setflags(write=False)
        self._mat = mat

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def n_modes(self) -> int:
        return self._mat.shape[0] // 2

    def __repr__(self):
        return f"CovMatrix(n_modes={self.n_modes})"


def _as_matrix(cm) -> np.ndarray:
    return cm.mat if isinstance(cm, CovMatrix) else np.asarray(cm, dtype=float)


@dataclass(frozen=True)
class GaussianComponent:
    """One weighted Gaussian branch of a mixture: probability mass, mean
    quadrature vector (length 2n) and covariance matrix."""

    weight: float
    mean: np.ndarray
    cm: CovMatrix

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0 + WEIGHT_TOL:
            raise ValueError(f"component weight {self.weight} outside [0, 1]")
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (2 * self.cm.n_modes,):
            raise ValueError(
                f"mean length {mean.shape} inconsistent with {self.cm.n_modes} modes"
            )
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)

    @property
    def n_modes(self) -> int:
        return self.cm.n_modes


@dataclass(frozen=True)
class GaussianMixtureState:
    """A state given as a finite mixture of Gaussian components.

    Weights must sum to one within 1e-12 and all components must share the
    same mode count.
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture must have at least one component")
        n = comps[0].n_modes
        if any(c.n_modes != n for c in comps):
            raise ValueError("all mixture components must have the same mode count")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")
        object.__setattr__(self, "components", comps)

    @property
    def n_modes(self) -> int:
        return self.components[0].n_modes


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def vacuum(n_modes: int = 1) -> GaussianMixtureState:
    return GaussianMixtureState(
        (GaussianComponent(1.0, np.zeros(2 * n_modes), CovMatrix(np.eye(2 * n_modes))),)
    )


def coherent(alpha: complex) -> GaussianMixtureState:
    mean = np.array([2.0 * np.real(alpha), 2.0 * np.imag(alpha)])
    return GaussianMixtureState((GaussianComponent(1.0, mean, CovMatrix(np.eye(2))),))


def thermal(variance: float) -> GaussianMixtureState:
    """Single-mode thermal state of quadrature variance ``variance`` >= 1."""
    if variance < 1.0 - PHYSICALITY_TOL:
        raise ValueError(f"thermal variance must be >= 1, got {variance}")
    return GaussianMixtureState(
        (GaussianComponent(1.0, np.zeros(2), CovMatrix(variance * np.eye(2))),)
    )


def two_mode_squeezed(V: float) -> GaussianMixtureState:
    """Two-mode squeezed vacuum with quadrature variance V >= 1 per mode."""
    return GaussianMixtureState(
        (GaussianComponent(1.0, np.zeros(4), CovMatrix(two_mode_squeezed_cm(V))),)
    )


def two_mode_squeezed_cm(V: float) -> np.ndarray:
    if V < 1.0:
        raise ValueError(f"two-mode squeezing variance must be >= 1, got {V}")
    c = np.sqrt(V * V - 1.0)
    Z = np.diag([1.0, -1.0])
    cm = np.eye(4) * V
    cm[0:2, 2:4] = c * Z
    cm[2:4, 0:2] = c * Z
    return cm


def tensor(left: GaussianMixtureState, right: GaussianMixtureState) -> GaussianMixtureState:
    """Tensor product of two mixtures (all cross pairs of components)."""
    comps = []
    for a in left.components:
        for b in right.components:
            mean = np.concatenate([a.mean, b.mean])
            na, nb = 2 * a.n_modes, 2 * b.n_modes
            cm = np.zeros((na + nb, na + nb))
            cm[:na, :na] = a.cm.mat
            cm[na:, na:] = b.cm.mat
            comps.append(GaussianComponent(a.weight * b.weight, mean, CovMatrix(cm)))
    return GaussianMixtureState(tuple(comps))


def mix(weighted_states) -> GaussianMixtureState:
    """Probabilistic mixture of states: iterable of (weight, state) pairs."""
    comps = []
    for w, state in weighted_states:
        for c in state.components:
            comps.append(GaussianComponent(w * c.weight, c.mean, c.cm))
    return GaussianMixtureState(tuple(comps))


# ---------------------------------------------------------------------------
# symplectic operations
# ---------------------------------------------------------------------------

def beamsplitter_symplectic(n_modes: int, mode_i: int, mode_j: int,
                            transmissivity: float) -> np.ndarray:
    """Symplectic matrix of a beam splitter between two modes.

    Acts identically on the x and p blocks as
    [[sqrt(T), sqrt(1-T)], [-sqrt(1-T), sqrt(T)]]; mode_i keeps the
    transmitted fraction, mode_j picks up the reflected one with a sign.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    for m in (mode_i, mode_j):
        if not 0 <= m < n_modes:
            raise ValueError(f"mode index {m} out of range for {n_modes} modes")
    t = np.sqrt(transmissivity)
    r = np.sqrt(1.0 - transmissivity)
    S = np.eye(2 * n_modes)
    for off in (0, 1):  # x block then p block
        i, j = 2 * mode_i + off, 2 * mode_j + off
        S[i, i] = t
        S[i, j] = r
        S[j, i] = -r
        S[j, j] = t
    return S


def apply_symplectic(state: GaussianMixtureState, S: np.ndarray) -> GaussianMixtureState:
    """Apply a symplectic transformation to every component of a mixture."""
    comps = tuple(
        GaussianComponent(c.weight, S @ c.mean, CovMatrix(S @ c.cm.mat @ S.T))
        for c in state.components
    )
    return GaussianMixtureState(comps)


def apply_beamsplitter(state: GaussianMixtureState, mode_i: int, mode_j: int,
                       transmissivity: float) -> GaussianMixtureState:
    S = beamsplitter_symplectic(state.n_modes, mode_i, mode_j, transmissivity)
    return apply_symplectic(state, S)


# ---------------------------------------------------------------------------
# on/off detector conditioning
# ---------------------------------------------------------------------------

def condition_on_noclick(state: GaussianMixtureState, tap_mode: int,
                         eta: float, dark_prob: float = 0.0):
    """Condition a mixture on a lossy on/off detector *not* firing on one mode.

    The no-click element of a detector with quantum efficiency ``eta`` and
    dark-count probability ``dark_prob`` is (1-p_d)(1-eta)^n, a Gaussian
    operator proportional to a thermal state; its effective measurement
    covariance is M = (2/eta - 1) I with prefactor 1/eta.  Each component of
    weight w, tap block Gamma_T, cross block C and tap mean mu_T contributes

        w_off = w (1-p_d) (2/eta) exp(-mu_T (Gamma_T+M)^-1 mu_T / 2)
                / sqrt(det(Gamma_T+M))

    and is conditioned to covariance Gamma_rest - C (Gamma_T+M)^-1 C^T with
    mean mu_rest - C (Gamma_T+M)^-1 mu_T, the tap mode removed.

    Returns ``(weight_off, conditioned)`` where ``weight_off`` is the total
    no-click probability and ``conditioned`` the renormalized mixture.
    These constants are validated against the truncated-Fock reference
    implementation in the test suite.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"detector efficiency must lie in (0, 1], got {eta}")
    if not 0.0 <= dark_prob < 1.0:
        raise ValueError(f"dark-count probability must lie in [0, 1), got {dark_prob}")
    if state.n_modes < 2:
        raise ValueError("conditioning requires at least two modes")
    if not 0 <= tap_mode < state.n_modes:
        raise ValueError(f"tap mode {tap_mode} out of range")

    tap_idx = [2 * tap_mode, 2 * tap_mode + 1]
    rest_idx = [k for k in range(2 * state.n_modes) if k // 2 != tap_mode]
    M = (2.0 / eta - 1.0) * np.eye(2)

    weights = []
    conditioned = []
    for c in state.components:
        g = c.cm.mat
        gamma_t = g[np.ix_(tap_idx, tap_idx)]
        gamma_r = g[np.ix_(rest_idx, rest_idx)]
        cross = g[np.ix_(rest_idx, tap_idx)]
        mu_t = c.mean[tap_idx]
        mu_r = c.mean[rest_idx]
        total = gamma_t + M
        det = float(np.linalg.det(total))
        if det <= 0.0:
            raise NumericsError("singular tap covariance in no-click conditioning")
        inv = np.linalg.inv(total)
        w = (
            c.weight
            * (1.0 - dark_prob)
            * (2.0 / eta)
            * np.exp(-0.5 * mu_t @ inv @ mu_t)
            / np.sqrt(det)
        )
        gain = cross @ inv
        cm_new = gamma_r - gain @ cross.T
        mean_new = mu_r - gain @ mu_t
        weights.append(w)
        conditioned.append((mean_new, cm_new))

    weight_off = float(sum(weights))
    if weight_off <= 0.0:
        raise NumericsError("no-click probability vanished; conditioning undefined")
    comps = tuple(
        GaussianComponent(w / weight_off, mean, CovMatrix(cm))
        for w, (mean, cm) in zip(weights, conditioned)
    )
    return weight_off, GaussianMixtureState(comps)


# ---------------------------------------------------------------------------
# moments, spectra, entropies
# ---------------------------------------------------------------------------

def mixture_mean(state: GaussianMixtureState) -> np.ndarray:
    return sum(c.weight * c.mean for c in state.components)


def mixture_covariance(state: GaussianMixtureState) -> np.ndarray:
    """Second central moments of the full mixture (not of any one branch)."""
    mu = mixture_mean(state)
    cm = np.zeros((2 * state.n_modes, 2 * state.n_modes))
    for c in state.components:
        d = c.mean - mu
        cm += c.weight * (c.cm.mat + np.outer(d, d))
    return cm


def symplectic_eigenvalues(cm) -> np.ndarray:
    """Symplectic spectrum of a covariance matrix, sorted ascending.

    Computed as the absolute eigenvalues of i Omega Gamma (one per mode).
    """
    mat = _as_matrix(cm)
    if np.max(np.abs(mat - mat.T)) > 1e-10:
        raise ValueError("symplectic spectrum requires a symmetric matrix")
    return _symplectic_eigenvalues_raw(mat)


def _symplectic_eigenvalues_raw(mat: np.ndarray) -> np.ndarray:
    n = mat.shape[0] // 2
    omega = symplectic_form(n)
    ev = np.abs(np.linalg.eigvals(1j * omega @ mat))
    return np.sort(ev)[::2][:n]  # spectrum comes doubled


def gaussian_entropy(cm) -> float:
    """Von Neumann entropy in bits of a Gaussian state with this covariance.

    Symplectic eigenvalues marginally below 1 (within the physicality
    tolerance) are treated as exactly 1.
    """
    nus = symplectic_eigenvalues(cm)
    if nus.min() < 1.0 - PHYSICALITY_TOL:
        raise ValueError(f"unphysical covariance matrix (nu_min = {nus.min():.12f})")
    return float(sum(entropy_g(max(nu - 1.0, 0.0) / 2.0) for nu in nus))
