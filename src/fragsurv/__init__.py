"""Bayesian fragility index for time-to-event endpoints in single-arm trials.

Exponential survival model with a conjugate Gamma prior on the event rate.
The fragility index is the smallest number of censored observations that,
reclassified as events, drops the posterior probability of the median
survival time exceeding a threshold strictly below a confidence level.
"""

__version__ = "0.1.0"

from .fragility import (
    FragilityResult,
    GridCell,
    NotFragileApplicableError,
    SensitivityGrid,
    calibrate,
    fragility_index,
    fragility_quotient,
    sensitivity_scan,
)
from .km import KMCurve, km_estimate, km_to_plot_points
from .sim import SimSpec, SplitMix64, fi_distribution, simulate_trial
from .specfun import (
    BracketError,
    ConvergenceError,
    bisect_root,
    reg_lower_inc_gamma,
)
from .survival import (
    AnalysisConfig,
    GammaParams,
    SurvivalDataset,
    log_likelihood,
    posterior_prob_median_exceeds,
    posterior_update,
)

__all__ = [
    "__version__",
    "AnalysisConfig",
    "BracketError",
    "ConvergenceError",
    "FragilityResult",
    "GammaParams",
    "GridCell",
    "KMCurve",
    "NotFragileApplicableError",
    "SensitivityGrid",
    "SimSpec",
    "SplitMix64",
    "SurvivalDataset",
    "bisect_root",
    "calibrate",
    "fi_distribution",
    "fragility_index",
    "fragility_quotient",
    "km_estimate",
    "km_to_plot_points",
    "log_likelihood",
    "posterior_prob_median_exceeds",
    "posterior_update",
    "reg_lower_inc_gamma",
    "sensitivity_scan",
    "simulate_trial",
]
