"""State constructors and entropies that only the tests read.

Gaussian: a coherent state, a thermal mode, a probabilistic mixture of
states and the von Neumann entropy of a covariance matrix, on the
``vacfilter.gaussian`` classes.  Fock: a number state, one mode's reduced
density matrix and its entropy, on ``vacfilter.fock.FockState``.  The tests
build references and cross-checks from them; no command reads them.
"""

import numpy as np

from vacfilter.fock import FockState, TruncationError
from vacfilter.gaussian import (
    PHYSICALITY_TOL,
    CovMatrix,
    GaussianComponent,
    GaussianMixtureState,
    symplectic_eigenvalues,
)
from vacfilter.qkd import entropy_g

# ---------------------------------------------------------------------------
# Gaussian (vacuum covariance = identity)
# ---------------------------------------------------------------------------


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


def mix(weighted_states) -> GaussianMixtureState:
    """Probabilistic mixture of states: iterable of (weight, state) pairs."""
    comps = []
    for w, state in weighted_states:
        for c in state.components:
            comps.append(GaussianComponent(w * c.weight, c.mean, c.cm))
    return GaussianMixtureState(tuple(comps))


def gaussian_entropy(cm) -> float:
    """Von Neumann entropy in bits of a Gaussian state with this covariance.

    Symplectic eigenvalues marginally below 1 (within the physicality
    tolerance) are treated as exactly 1.
    """
    nus = symplectic_eigenvalues(cm)
    if nus.min() < 1.0 - PHYSICALITY_TOL:
        raise ValueError(f"unphysical covariance matrix (nu_min = {nus.min():.12f})")
    return float(sum(entropy_g(max(nu - 1.0, 0.0) / 2.0) for nu in nus))


# ---------------------------------------------------------------------------
# truncated Fock
# ---------------------------------------------------------------------------


def number_state(ns, n_max: int) -> FockState:
    ns = tuple(int(n) for n in np.atleast_1d(ns))
    if any(n < 0 or n > n_max for n in ns):
        raise TruncationError(f"photon numbers {ns} outside cutoff {n_max}")
    vec = np.zeros((n_max + 1,) * len(ns), dtype=complex)
    vec[ns] = 1.0
    return FockState(n_max, vec=vec)


def reduced_density(state: FockState, keep_mode: int) -> np.ndarray:
    """Reduced density matrix of one mode."""
    work = np.moveaxis(state.vec, keep_mode, 0)
    flat = work.reshape(work.shape[0], -1)
    return flat @ flat.conj().T


def von_neumann_entropy(state: FockState, mode: int) -> float:
    """Entropy in bits of one mode's reduced density matrix."""
    evals = np.linalg.eigvalsh(reduced_density(state, mode))
    evals = evals[evals > 1e-15]
    return float(-(evals * np.log2(evals)).sum())
