"""Independent closed forms the benchmark checks program output against.

These restate the formulas documented in ``vacfilter.detectors``,
``vacfilter.metrics`` and ``vacfilter.signal_model`` with numpy/scipy only, so
a check never compares the program with itself.  The randomized-phase
homodyne integral uses the midpoint rule on its even, periodic integrand,
which converges exponentially (far below the 1e-9 check tolerance at 256
nodes).
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc, erfcinv

SQRT2 = np.sqrt(2.0)
QUAD_VAR = 0.25  # vacuum quadrature variance, homodyne convention
_HDR_PHASES = (np.arange(256) + 0.5) * np.pi / 256


def threshold(error: float) -> float:
    return float(erfcinv(error) / SQRT2)


def detector(kind: str, eta: float, pd: float = 0.0, error: float | None = None) -> dict:
    """Detector description: kind, efficiency, dark count or homodyne threshold."""
    d = {"kind": kind, "eta": eta, "pd": pd}
    if kind in ("hds", "hdr"):
        d["B"] = threshold(error)
    return d


def acceptance(det: dict, n) -> np.ndarray:
    """Acceptance probability at mean tap photon number n = |beta|^2."""
    n = np.asarray(n, dtype=float)
    if det["kind"] == "apd":
        q = 1.0 - det["pd"]
        return 1.0 - q * np.exp(-det["eta"] * q * n)
    a = det["eta"] * np.sqrt(n)  # linear efficiency model, the CLI default
    B = det["B"]
    if det["kind"] == "hds":
        return 0.5 * (erfc(SQRT2 * (B + a)) + erfc(SQRT2 * (B - a)))
    return erfc(SQRT2 * (B - a[..., None] * np.cos(_HDR_PHASES))).mean(axis=-1)


def error(det: dict) -> float:
    return det["pd"] if det["kind"] == "apd" else float(erfc(SQRT2 * det["B"]))


def sensitivity(det: dict, tap: float) -> float:
    """0.5 R P''(0) from the analytic curvature of the acceptance probability."""
    if det["kind"] == "apd":
        curv = 2.0 * det["eta"] * (1.0 - det["pd"]) ** 2
    else:
        B = det["B"]
        curv = 8.0 * np.sqrt(2.0 / np.pi) * det["eta"] ** 2 * B * np.exp(-2.0 * B * B)
        if det["kind"] == "hdr":
            curv *= 0.5
    return 0.5 * tap * curv


def density(branches, x) -> np.ndarray:
    """Quadrature density of weighted real-amplitude coherent branches."""
    x = np.asarray(x, dtype=float)
    norm = 1.0 / np.sqrt(2.0 * np.pi * QUAD_VAR)
    return sum(w * norm * np.exp(-((x - m) ** 2) / (2.0 * QUAD_VAR)) for w, m in branches)


def close(got, want, tol: float) -> bool:
    """Elementwise |got - want| <= tol * max(1, |want|)."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))))
