"""Brute-force truncated-Fock-space reference implementation.

Everything here is deliberately direct and dense: states live on a photon
number grid 0..n_max per mode, beam splitters act exactly within each
total-photon sector, and detector POVMs are applied as explicit matrices.
The beam splitter is an SU(2) rotation in every sector; its real blocks are
built one photon at a time from the transformed creation operators, with no
matrix exponential, and above n_max only in the columns of inputs on the grid,
a window the recursion keeps closed.  Quadrature moments come from one
real Gram matrix of the state and its 2m quadrature images.  This
module is the numerical authority the Gaussian calculus is validated against;
it is sized for at most three modes at the usual cutoffs.

Every state is pure.  A mixed input is the reduced state of a pure one on more
modes: a thermal mode of mean photon number n is either mode of the two-mode
squeezed vacuum ``tmsv_state(2 n + 1, n_max)``.

Quadrature moments are reported in the covariance-matrix convention of
:mod:`vacfilter.gaussian` (vacuum variance 1); quadrature-interval POVMs take
their bounds in the homodyne convention (vacuum variance 1/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TRUNCATION_GUARD = 1e-10
QUAD_POINTS = 400  # Gauss-Legendre nodes of a QuadratureInterval POVM


class TruncationError(ValueError):
    """The requested state does not fit the photon-number cutoff."""


@dataclass
class FockState:
    """Pure state on a truncated Fock grid: an amplitude tensor ``vec`` of
    shape (n_max+1,)^m.  ``deficit`` accumulates probability lost to the
    cutoff by construction or beam-splitter truncation."""

    n_max: int
    vec: np.ndarray
    deficit: float = 0.0

    @property
    def n_modes(self) -> int:
        return self.vec.ndim

    def trace(self) -> float:
        return float(np.vdot(self.vec, self.vec).real)


def _log_factorials(n_max: int) -> np.ndarray:
    """log k! for k = 0..n_max."""
    return np.array([math.lgamma(k + 1) for k in range(n_max + 1)])


def _poisson_tail(mean: float, n_max: int) -> float:
    n = np.arange(n_max + 1)
    if mean == 0.0:
        return 0.0
    log_terms = n * np.log(mean) - mean - _log_factorials(n_max)
    return float(max(0.0, 1.0 - np.exp(log_terms).sum()))


def vacuum_state(n_max: int, n_modes: int = 1) -> FockState:
    vec = np.zeros((n_max + 1,) * n_modes, dtype=complex)
    vec[(0,) * n_modes] = 1.0
    return FockState(n_max, vec=vec)


def coherent_state(alpha: complex, n_max: int) -> FockState:
    """|alpha> = e^{-|alpha|^2/2} sum alpha^n / sqrt(n!) |n>.

    Fails if the Poisson tail beyond the cutoff exceeds 1e-10 (guard
    |alpha|^2 <= n_max / 4 comfortably satisfies this).
    """
    if not np.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha}")
    mean = abs(alpha) ** 2
    tail = _poisson_tail(mean, n_max)
    if tail > TRUNCATION_GUARD:
        raise TruncationError(
            f"cutoff {n_max} too small for |alpha|^2 = {mean:.3f} (tail {tail:.2e})"
        )
    n = np.arange(n_max + 1)
    log_mag = 0.5 * ((n * np.log(mean) if mean > 0 else 0.0) - _log_factorials(n_max))
    amps = np.exp(log_mag - 0.5 * mean) * np.exp(1j * np.angle(alpha) * n)
    if mean == 0.0:
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[0] = 1.0
    return FockState(n_max, vec=amps.astype(complex), deficit=tail)


def tmsv_state(V: float, n_max: int) -> FockState:
    """Two-mode squeezed vacuum of quadrature variance V, via
    tanh r = sqrt((V-1)/(V+1)): sqrt(1-lam^2) sum lam^n |nn>."""
    if not 1.0 <= V < np.inf:
        raise ValueError(f"two-mode squeezing variance must be >= 1 and finite, got {V}")
    lam = np.sqrt((V - 1.0) / (V + 1.0))
    tail = float(lam ** (2 * (n_max + 1)))
    if tail > TRUNCATION_GUARD:
        raise TruncationError(f"cutoff {n_max} too small for V = {V} (tail {tail:.2e})")
    vec = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    n = np.arange(n_max + 1)
    vec[n, n] = np.sqrt(1.0 - lam * lam) * lam ** n
    return FockState(n_max, vec=vec, deficit=tail)


def tensor(a: FockState, b: FockState) -> FockState:
    """Tensor product of two states on the same cutoff."""
    if a.n_max != b.n_max:
        raise ValueError("cutoffs differ")
    vec = np.tensordot(a.vec, b.vec, axes=0)
    return FockState(a.n_max, vec=vec, deficit=a.deficit + b.deficit)


# ---------------------------------------------------------------------------
# single-mode operators and their application
# ---------------------------------------------------------------------------

def lowering_matrix(n_max: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1).astype(complex)


def _apply_axis(op: np.ndarray, tensor_: np.ndarray, axis: int) -> np.ndarray:
    out = np.tensordot(op, tensor_, axes=([1], [axis]))
    return np.moveaxis(out, 0, axis)


def apply_mode_operator(state: FockState, op: np.ndarray, mode: int) -> FockState:
    """|psi> -> op|psi> for a single-mode operator, which need not be unitary;
    the result is not renormalized."""
    return FockState(state.n_max, vec=_apply_axis(op, state.vec, mode), deficit=state.deficit)


def displace(state: FockState, mode: int, alpha: complex) -> FockState:
    """Displacement exp(G) of the truncated generator G = alpha a† - alpha* a
    (exactly unitary on the truncated grid), as V diag(e^{-iw}) V† by eigh of iG."""
    if not np.isfinite(alpha):
        raise ValueError(f"displacement must be finite, got {alpha}")
    a = lowering_matrix(state.n_max)
    w, v = np.linalg.eigh(1j * (alpha * a.conj().T - np.conj(alpha) * a))
    d = (v * np.exp(-1j * w)) @ v.conj().T
    return apply_mode_operator(state, d, mode)


def phase_rotate(state: FockState, mode: int, phi: float) -> FockState:
    """Phase-space rotation exp(i phi n) (x,p) -> (x cos - p sin, x sin + p cos)."""
    d = np.diag(np.exp(1j * phi * np.arange(state.n_max + 1)))
    return apply_mode_operator(state, d, mode)


# ---------------------------------------------------------------------------
# beam splitter, block-exact in total photon number
# ---------------------------------------------------------------------------

def _bs_blocks(theta: float, n_max: int) -> list:
    """Real blocks of U = exp(theta (a†b - a b†)) in the sectors of total photon
    number n = 0..2 n_max, built one photon at a time: with c, s = cos theta,
    sin theta, U a† U† = c a† - s b† and U b† U† = s a† + c b†, so

        U|k,m> = [sqrt(k) (c a† - s b†) U|k-1,m> + sqrt(m) (s a† + c b†) U|k,m-1>] / (k+m).

    Column k of block n is U|k, n-k> on |j, n-j>, j = 0..n; both paths are weighted in,
    as either alone drifts from orthogonality.  Above n_max only the columns k in
    [n - n_max, n_max] are built; column k reads columns k-1, k of block n-1's window."""
    root = np.sqrt(np.outer(np.arange(2 * n_max + 1.0), np.arange(2 * n_max + 1.0)))
    c_root, s_root = np.cos(theta) * root, np.sin(theta) * root  # c sqrt(jk), s sqrt(jk)
    blocks = [np.ones((1, 1))]
    for n in range(1, 2 * n_max + 1):
        prev, lo, hi = blocks[-1], max(0, n - n_max), min(n, n_max)
        a, w = int(n <= n_max), hi - lo + 1
        # a whole block (a = 1) has no k-1 term in column 0 and no k term in column n;
        # sqrt(j), sqrt(n - j) for rows j, and ka, kb for the columns fed by pa (k-1), pb (k)
        up, down = slice(1, n + 1), slice(n, 0, -1)
        ka, kb = slice(lo + a, hi + 1), slice(n - lo, n - hi + a - 1, -1)
        block, pa, pb = np.zeros((n + 1, w)), prev[:, :w - a], prev[:, 1 - a:]
        t2, t3, t4 = block[:n, a:], block[1:, :w - a], block[:n, :w - a]
        np.multiply(c_root[up, ka], pa, out=block[1:, a:])  # sqrt(k) c a† U|k-1,m>
        t2 -= s_root[down, ka] * pa   # sqrt(k) s b† U|k-1,m>
        t3 += s_root[up, kb] * pb     # sqrt(m) s a† U|k,m-1>
        t4 += c_root[down, kb] * pb   # sqrt(m) c b† U|k,m-1>
        block /= n
        blocks.append(block)
    return blocks


def fock_beamsplitter(state: FockState, mode_i: int, mode_j: int,
                      transmissivity: float) -> FockState:
    """Beam splitter with the same convention as the Gaussian module:
    mode_i <- sqrt(T) mode_i + sqrt(1-T) mode_j,
    mode_j <- -sqrt(1-T) mode_i + sqrt(T) mode_j.

    Exact within every total-photon sector that fits the cutoff; sectors with
    n > n_max lose the amplitudes rotated past the grid, which is added to
    the reported deficit.
    """
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {transmissivity}")
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    blocks = _bs_blocks(np.arccos(np.clip(np.sqrt(transmissivity), 0.0, 1.0)), state.n_max)
    vec, lost = _bs_apply(state.vec, mode_i, mode_j, blocks, state.n_max)
    return FockState(state.n_max, vec=vec, deficit=state.deficit + lost)


def _bs_apply(tensor_: np.ndarray, ax_i: int, ax_j: int, blocks: list, n_max: int):
    work = np.moveaxis(tensor_, (ax_i, ax_j), (0, 1))
    shape = work.shape
    work = work.reshape(shape[0], shape[1], -1).astype(complex)  # returned in this layout
    flat = np.ascontiguousarray(work).reshape(-1, work.shape[2])  # sector n: rows n + n_max k
    lost = 0.0
    for n, block in enumerate(blocks):
        k0, k1 = max(0, n - n_max), min(n, n_max)
        sub = flat[n + n_max * k0:n + n_max * k1 + 1:n_max or 1]  # one row at n_max 0
        rotated = (block @ sub.view(float)).view(complex)  # real and imaginary parts at once
        if n > n_max:
            outside = np.concatenate([rotated[:k0], rotated[k1 + 1:]])
            lost += float((np.abs(outside) ** 2).sum())
        sub[...] = rotated[k0:k1 + 1]
    if not np.may_share_memory(flat, work):
        work[...] = flat.reshape(work.shape)
    return np.moveaxis(work.reshape(shape), (0, 1), (ax_i, ax_j)), lost


# ---------------------------------------------------------------------------
# detector POVMs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _OnOff:
    eta: float
    dark_prob: float = 0.0

    def __post_init__(self):
        for name in ("eta", "dark_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class NoClick(_OnOff):
    """On/off detector stays silent: diag (1-p_d)(1-eta)^n."""


@dataclass(frozen=True)
class Click(_OnOff):
    """On/off detector fires: 1 - NoClick."""


@dataclass(frozen=True)
class QuadratureInterval:
    """Quadrature outcome within [lo, hi], in homodyne units (vacuum
    variance 1/4).  Built from harmonic-oscillator eigenfunction overlaps."""
    lo: float
    hi: float


def _kraus_operator(povm, n_max: int) -> np.ndarray:
    """sqrt(Pi) of a POVM element: elementwise on the diagonal on/off
    elements, through the spectrum of a quadrature interval."""
    if isinstance(povm, _OnOff):
        d = (1.0 - povm.dark_prob) * (1.0 - povm.eta) ** np.arange(n_max + 1)
        return np.diag(np.sqrt(1.0 - d if isinstance(povm, Click) else d).astype(complex))
    if isinstance(povm, QuadratureInterval):
        if not povm.lo < povm.hi:
            raise ValueError("quadrature interval must have lo < hi")
        xs, ws = np.polynomial.legendre.leggauss(QUAD_POINTS)
        xs = 0.5 * (povm.hi - povm.lo) * xs + 0.5 * (povm.hi + povm.lo)
        ws = 0.5 * (povm.hi - povm.lo) * ws
        psi = oscillator_wavefunctions(n_max, xs)
        evals, evecs = np.linalg.eigh((psi * ws) @ psi.T.astype(complex))
        return (evecs * np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    raise TypeError(f"unknown POVM {povm!r}")


def oscillator_wavefunctions(n_max: int, x) -> np.ndarray:
    """Matrix psi[n, k] of number-state wavefunctions at points x, in the
    homodyne convention: psi_0(x) = (2/pi)^(1/4) exp(-x^2)."""
    x = np.asarray(x, dtype=float)
    u = np.sqrt(2.0) * x
    psi = np.zeros((n_max + 1, x.size))
    psi[0] = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    if n_max >= 1:
        psi[1] = np.sqrt(2.0) * u * psi[0]
    for n in range(1, n_max):
        psi[n + 1] = (np.sqrt(2.0) * u * psi[n] - np.sqrt(n) * psi[n - 1]) / np.sqrt(n + 1.0)
    return 2.0 ** 0.25 * psi


def povm_expectation(state: FockState, mode: int, povm):
    """Probability of a POVM outcome on one mode and the conditioned state
    (same mode count; conditioning uses the Kraus operator sqrt(Pi)).

    Raises on zero-probability conditioning.
    """
    updated = apply_mode_operator(state, _kraus_operator(povm, state.n_max), mode)
    prob = updated.trace()
    if prob <= 0.0:
        raise ValueError("zero-probability POVM outcome; conditioning undefined")
    vec = updated.vec / np.sqrt(prob)
    return float(prob), FockState(state.n_max, vec=vec, deficit=state.deficit)


# ---------------------------------------------------------------------------
# moments (reported in the vacuum-variance-1 convention)
# ---------------------------------------------------------------------------

def _quadrature_gram(state: FockState) -> np.ndarray:
    """Real Gram matrix Re<u_i|u_j> of u = (psi, x1 psi, p1 psi, ..., pm psi).
    The quadratures are hermitian on the truncated grid, so
    row 0 holds the norm and the means, and Re<O_i psi|O_j psi> is the
    symmetrized second moment <(O_i O_j + O_j O_i)/2>."""
    root = np.sqrt(np.arange(1.0, state.n_max + 1))
    u = np.zeros((2 * state.n_modes + 1,) + state.vec.shape, dtype=complex)
    u[0] = state.vec
    for mode in range(state.n_modes):
        psi = np.moveaxis(state.vec, mode, -1)
        x, p = (np.moveaxis(u[k], mode, -1) for k in (2 * mode + 1, 2 * mode + 2))
        x[..., :-1] = root * psi[..., 1:]  # x = a + a†
        x[..., 1:] += root * psi[..., :-1]
        p[..., :-1] = -1j * root * psi[..., 1:]  # p = i (a† - a)
        p[..., 1:] += 1j * root * psi[..., :-1]
    flat = u.reshape(len(u), -1).view(float)  # Re<u|v> is the dot of the float views
    return flat @ flat.T


def mean_vector(state: FockState) -> np.ndarray:
    """Quadrature means (x1, p1, ...) with x = a + a† (vacuum variance 1)."""
    return _quadrature_gram(state)[0, 1:]


def covariance_matrix(state: FockState) -> np.ndarray:
    """Symmetrized quadrature covariance matrix in vacuum-variance-1 units."""
    gram = _quadrature_gram(state)
    return gram[1:, 1:] - np.outer(gram[0, 1:], gram[0, 1:])


def mean_photon(state: FockState, mode: int) -> float:
    a = lowering_matrix(state.n_max)
    return complex(np.vdot(state.vec, _apply_axis(a.conj().T @ a, state.vec, mode))).real


def fidelity(a: FockState, b: FockState) -> float:
    """|<a|b>|^2."""
    return float(abs(np.vdot(a.vec, b.vec)) ** 2)
