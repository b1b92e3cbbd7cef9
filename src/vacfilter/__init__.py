"""vacfilter: probabilistic vacuum filtering of coherent-state signals.

Detector models and figures of merit for an erasure channel with a tap
filter, Monte-Carlo simulation of the full prepare/tap/decide/verify chain,
a truncated-Fock reference implementation, and the covariance-matrix
security analysis of the filtered key-distribution protocol.
"""

__version__ = "0.1.0"

from .detectors import (
    Apd,
    HomodyneRandomized,
    HomodyneStabilized,
    IdealOnOff,
    acceptance_probability,
    error_probability,
    threshold_for_error,
)
from .gaussian import (
    CovMatrix,
    GaussianComponent,
    GaussianMixtureState,
    NumericsError,
    apply_beamsplitter,
    condition_on_noclick,
    gaussian_entropy,
    symplectic_eigenvalues,
)
from .metrics import gain, gain_vs_success_curve, sensitivity, success_probability
from .montecarlo import McConfig, McResult, TrialRecord, calibrate_prep_error, run_trials, verification_histogram
from .qkd import (
    KeyRateResult,
    QkdScenario,
    TapFilter,
    filtered_covariance,
    joint_state,
    key_rate,
    optimize_key_rate,
    p_min_search,
    scenario_key_rate,
    weak_squeezing_keyrate,
)
from .signal_model import (
    CoherentAmplitude,
    ErasureMixture,
    PostFilterMixture,
    marginal_density,
    posterior_mixture,
)

__all__ = [
    "Apd",
    "CoherentAmplitude",
    "CovMatrix",
    "ErasureMixture",
    "GaussianComponent",
    "GaussianMixtureState",
    "HomodyneRandomized",
    "HomodyneStabilized",
    "IdealOnOff",
    "KeyRateResult",
    "McConfig",
    "McResult",
    "NumericsError",
    "PostFilterMixture",
    "QkdScenario",
    "TapFilter",
    "TrialRecord",
    "acceptance_probability",
    "apply_beamsplitter",
    "calibrate_prep_error",
    "condition_on_noclick",
    "error_probability",
    "filtered_covariance",
    "gain",
    "gain_vs_success_curve",
    "gaussian_entropy",
    "joint_state",
    "key_rate",
    "marginal_density",
    "optimize_key_rate",
    "p_min_search",
    "posterior_mixture",
    "run_trials",
    "scenario_key_rate",
    "sensitivity",
    "success_probability",
    "symplectic_eigenvalues",
    "threshold_for_error",
    "verification_histogram",
    "weak_squeezing_keyrate",
]
