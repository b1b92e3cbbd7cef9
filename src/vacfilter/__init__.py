"""vacfilter: probabilistic vacuum filtering of coherent-state signals.

Detector models and figures of merit for an erasure channel with a tap
filter, Monte-Carlo simulation of the full prepare/tap/decide/verify chain,
a truncated-Fock reference implementation, and the covariance-matrix
security analysis of the filtered key-distribution protocol.

The public names below load their submodule on first access (PEP 562), so
``import vacfilter`` imports no submodule and a command pays only for the
scipy modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "detectors": ("Apd", "HomodyneRandomized", "HomodyneStabilized", "IdealOnOff",
                  "acceptance_probability", "error_probability", "threshold_for_error"),
    "metrics": ("gain", "gain_columns", "sensitivity", "success_probability"),
    "montecarlo": ("McConfig", "McResult", "TrialRecords", "calibrate_prep_error",
                   "run_sweep", "run_trials", "sample_trials", "verification_chi2"),
    # kernel stages: filtered_covariance(V, T, p, det, erased) -> key_rate(a, b, c, p_s, protocol)
    "qkd": ("KeyRateResult", "NumericsError", "QkdScenario", "filtered_covariance", "key_rate",
            "optimize_key_rate", "p_min_search", "scenario_key_rate", "weak_squeezing_keyrate"),
    "signal_model": ("CoherentAmplitude", "ErasureMixture", "marginal_density",
                     "posterior_mixture"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
