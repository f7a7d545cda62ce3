"""Fragility index search, trajectory, quotient, calibration, sensitivity scans.

The fragility index of a single-arm time-to-event analysis is the smallest
number k of censored observations that, when reclassified as events (keeping
their recorded times), drops the posterior probability of the median survival
time exceeding t0 strictly below the confidence level p0. It is defined only
when the unmodified analysis sits strictly above p0.

Under the exponential model a flip adds 1 to the posterior shape and leaves
the posterior rate untouched, because censored follow-up time already counts
toward the rate update. Only the number of flips matters, not which subjects
are flipped, so the search runs on the posterior alone: the probability
after k flips is P(shape + k, rate ln 2 / t0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .specfun import BracketError, ConvergenceError, bisect_root, reg_gamma_shape_step, reg_lower_inc_gamma
from .survival import LN2, AnalysisConfig, GammaParams, SurvivalDataset

__all__ = [
    "NotFragileApplicableError",
    "FragilityResult",
    "GridCell",
    "SensitivityGrid",
    "fragility_index",
    "crossing_fi",
    "fragility_quotient",
    "calibrate",
    "sensitivity_scan",
]

# Axis names accepted by sensitivity_scan, in canonical evaluation order.
SENSITIVITY_AXES = ("prior_shape", "prior_rate", "t0", "p0")

_CALIBRATE_BRACKET_LO = 1e-12
_CALIBRATE_BRACKET_TOL = 1e-12
_CALIBRATE_MAX_DOUBLINGS = 200

# The recurrence stayed within 5.6e-13 of the kernel over 2314 seeded starts x 400
# steps (a in [0.3, 7.5e5], x in [a - 10 sqrt(a), 50 a]); the kernel is pinned at 1e-12.
_WINDOW = 1e-9


class NotFragileApplicableError(Exception):
    """The baseline probability does not exceed p0, so no index is defined."""

    def __init__(self, initial_prob: float, p0: float):
        super().__init__(
            f"initial probability {initial_prob:.6f} does not exceed p0 {p0:.6f}; "
            "fragility index undefined"
        )
        self.initial_prob = initial_prob
        self.p0 = p0


@dataclass(frozen=True)
class FragilityResult:
    """Outcome of a fragility search.

    fi is None when every censored observation was reclassified without the
    probability dropping below p0 ("not attained", reported as FI > m). The
    trajectory holds the probability after k reclassifications for
    k = 0 .. stopping point and is non-increasing: a saturated baseline
    repeats 1.0 until the probability leaves it.
    """

    fi: int | None
    trajectory: tuple[tuple[int, float], ...]
    initial_prob: float
    censored_count: int
    fq: Fraction | None
    config: AnalysisConfig

    @property
    def attained(self) -> bool:
        return self.fi is not None

    @property
    def fi_text(self) -> str:
        return str(self.fi) if self.attained else f"> {self.censored_count}"


@dataclass(frozen=True)
class GridCell:
    """One sensitivity-scan cell: fi and initial_prob if "ok", initial_prob if "not_applicable", else error."""

    params: dict[str, float]
    status: str
    initial_prob: float | None = None
    fi: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class SensitivityGrid:
    axes: dict[str, tuple[float, ...]]
    cells: tuple[GridCell, ...]


def _initial(events: int, total_time: float, config: AnalysisConfig) -> tuple[float, float]:
    """(x, P(0)) of the posterior, x = rate ln 2 / t0; raises NotFragileApplicableError if P(0) <= p0."""
    posterior = GammaParams(config.prior.shape + events, config.prior.rate + total_time)
    x = posterior.rate * LN2 / config.t0
    initial_prob = reg_lower_inc_gamma(posterior.shape, x)
    if not initial_prob > config.p0:
        raise NotFragileApplicableError(initial_prob, config.p0)
    return x, initial_prob


def fragility_index(data: SurvivalDataset, config: AnalysisConfig) -> FragilityResult:
    """Search for the smallest reclassification count crossing below p0.

    Censored observations are reclassified as events one at a time, each
    flip adding 1 to the posterior shape, and the posterior exceedance
    probability is recomputed after each flip. Stops at the first
    probability strictly below p0; a probability exactly equal to p0 does
    not stop the search.

    Raises:
        NotFragileApplicableError: if the k = 0 probability is <= p0.
    """
    x, initial_prob = _initial(data.num_events, data.total_time, config)
    trajectory = [(0, initial_prob)]
    fi: int | None = None
    for k in range(1, data.num_censored + 1):
        # Summed as posterior_update sums it, so the shape is bit-identical
        # to the posterior of the flipped dataset.
        prob = reg_lower_inc_gamma(config.prior.shape + (data.num_events + k), x)
        trajectory.append((k, prob))
        if prob < config.p0:
            fi = k
            break
    return FragilityResult(
        fi=fi,
        trajectory=tuple(trajectory),
        initial_prob=initial_prob,
        censored_count=data.num_censored,
        fq=fragility_quotient(fi, data.n) if fi is not None else None,
        config=config,
    )


def crossing_fi(events: int, total_time: float, censored: int, config: AnalysisConfig) -> tuple[float, int | None]:
    """(initial_prob, fi) of fragility_index from the data's sufficient statistics; raises as it does.

    P steps down by the shape recurrence; the kernel gives P(0) and decides, with
    the same strict `<`, each k whose step value is within _WINDOW above p0."""
    x, initial_prob = _initial(events, total_time, config)
    prob = initial_prob
    for k in range(1, censored + 1):
        # Shapes summed as fragility_index sums them.
        prob -= reg_gamma_shape_step(config.prior.shape + (events + k - 1), x)
        if not prob > config.p0 + _WINDOW:
            prob = reg_lower_inc_gamma(config.prior.shape + (events + k), x)
            if prob < config.p0:
                return initial_prob, k
    return initial_prob, None


def fragility_quotient(fi: int, n: int) -> Fraction:
    """Fragility index over sample size, as an exact rational in (0, 1]."""
    if not (isinstance(fi, int) and isinstance(n, int)):
        raise ValueError(f"fi and n must be integers, got {fi!r}, {n!r}")
    if fi < 1 or n < 1 or fi > n:
        raise ValueError(f"require 1 <= fi <= n, got fi={fi}, n={n}")
    return Fraction(fi, n)


def calibrate(shape: float, target_prob: float, t0: float) -> float:
    """Posterior rate at which P(median > t0) equals target_prob, given the shape.

    Inverts b -> P(shape, b ln 2 / t0), which is strictly increasing in b,
    by growing the bracket [1e-12, B] with B doubling from 1 until the sign
    flips, then bisecting. The returned rate reproduces target_prob to
    within 1e-9.

    Raises:
        BracketError: if no sign change is found within the growth budget.
    """
    if not 0.0 < target_prob < 1.0:
        raise ValueError(f"target_prob must lie in (0, 1), got {target_prob!r}")
    GammaParams(shape, 1.0)  # validates the shape
    if not t0 > 0:
        raise ValueError(f"t0 must be > 0, got {t0!r}")

    def objective(rate: float) -> float:
        return reg_lower_inc_gamma(shape, rate * LN2 / t0) - target_prob

    hi = 1.0
    for _ in range(_CALIBRATE_MAX_DOUBLINGS):
        if objective(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise BracketError(
            f"could not bracket a rate reaching probability {target_prob} "
            f"within {_CALIBRATE_MAX_DOUBLINGS} doublings"
        )
    return bisect_root(objective, _CALIBRATE_BRACKET_LO, hi, _CALIBRATE_BRACKET_TOL)


def sensitivity_scan(
    data: SurvivalDataset,
    base: AnalysisConfig,
    axes: Mapping[str, Iterable[float]],
) -> SensitivityGrid:
    """Fragility index over a Cartesian grid of analysis parameters.

    Axis names: prior_shape, prior_rate, t0, p0; no axes, an unknown name or an
    empty axis raise ValueError. Each cell runs `crossing_fi` on the dataset's
    sufficient statistics and records its failure (inapplicability, a numerical
    error, an invalid value) instead of aborting the scan; cell order is fixed.
    """
    if not axes:
        raise ValueError("no axes given")
    for name in axes:
        if name not in SENSITIVITY_AXES:
            raise ValueError(f"unknown axis {name!r}; expected one of {', '.join(SENSITIVITY_AXES)}")
    ordered = {name: tuple(float(v) for v in axes[name]) for name in SENSITIVITY_AXES if name in axes}
    for name, values in ordered.items():
        if not values:
            raise ValueError(f"axis {name!r} has no values")

    stats = (data.num_events, data.total_time, data.num_censored)
    cells = []
    for combo in itertools.product(*ordered.values()):
        params = dict(zip(ordered.keys(), combo))
        cells.append(_evaluate_cell(stats, base, params))
    return SensitivityGrid(axes=ordered, cells=tuple(cells))


def _evaluate_cell(
    stats: tuple[int, float, int], base: AnalysisConfig, params: dict[str, float]
) -> GridCell:
    try:
        prior = GammaParams(
            params.get("prior_shape", base.prior.shape),
            params.get("prior_rate", base.prior.rate),
        )
        config = AnalysisConfig(params.get("t0", base.t0), params.get("p0", base.p0), prior)
        initial_prob, fi = crossing_fi(*stats, config)
    except NotFragileApplicableError as exc:
        return GridCell(params, "not_applicable", initial_prob=exc.initial_prob)
    except (ConvergenceError, ValueError) as exc:
        return GridCell(params, "error", error=str(exc))
    return GridCell(params, "ok", initial_prob=initial_prob, fi=fi)
