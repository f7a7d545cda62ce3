"""Bayesian fragility index for time-to-event endpoints in single-arm trials.

Exponential survival model with a conjugate Gamma prior on the event rate.
The fragility index is the smallest number of censored observations that,
reclassified as events, drops the posterior probability of the median
survival time exceeding a threshold strictly below a confidence level.
"""

__version__ = "0.1.0"

# Each public name and its defining module, imported on first use (PEP 562), so that `python -m fragsurv`
# loads only what the command runs.
_EXPORTS = {
    **dict.fromkeys(("FragilityResult", "GridCell", "SensitivityGrid", "calibrate", "fragility_index",
                     "fragility_quotient", "sensitivity_scan"), "fragility"),
    **dict.fromkeys(("KMCurve", "km_estimate", "km_to_plot_points"), "km"),
    **dict.fromkeys(("SimSpec", "SplitMix64", "fi_distribution", "simulate_trial"), "sim"),
    **dict.fromkeys(("BracketError", "ConvergenceError", "reg_lower_inc_gamma"), "specfun"),
    **dict.fromkeys(("AnalysisConfig", "GammaParams", "NotFragileApplicableError", "SurvivalDataset",
                     "log_likelihood", "posterior_prob_median_exceeds", "posterior_update"), "survival"),
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__all__ = ["__version__", *sorted(_EXPORTS)]
