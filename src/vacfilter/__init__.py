"""vacfilter: probabilistic vacuum filtering of coherent-state signals.

Detector models and figures of merit for an erasure channel with a tap
filter, Monte-Carlo simulation of the full prepare/tap/decide/verify chain,
a truncated-Fock reference implementation, and the covariance-matrix
security analysis of the filtered key-distribution protocol.

The package root re-exports nothing: import each name from its submodule,
as in ``from vacfilter.detectors import Apd``.
"""

__version__ = "0.1.0"
