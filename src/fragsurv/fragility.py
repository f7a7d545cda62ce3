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
from collections.abc import Iterable, Mapping

from .specfun import MAX_SHAPE, BracketError, ConvergenceError, reg_gamma_shape_step, reg_lower_inc_gamma
from .survival import (
    LN2,
    AnalysisConfig,
    GammaParams,
    NotFragileApplicableError,
    SurvivalDataset,
    _Value,
    require_positive,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations only: the Monte Carlo builds no quotient
    from fractions import Fraction

__all__ = [
    "NotFragileApplicableError",
    "FragilityResult",
    "GridCell",
    "SensitivityGrid",
    "fragility_index",
    "crossing_outcome",
    "reported_fi",
    "fragility_quotient",
    "calibrate",
    "sensitivity_scan",
]

# Axis names accepted by sensitivity_scan, in canonical evaluation order.
SENSITIVITY_AXES = ("prior_shape", "prior_rate", "t0", "p0")

_CALIBRATE_BRACKET_LO = 1e-12
_CALIBRATE_BRACKET_TOL = 1e-12
_CALIBRATE_MAX_DOUBLINGS = 200
_CALIBRATE_MAX_HALVINGS = 256

# The recurrence with a carried step stayed within 3.1e-13 of the kernel over 2314
# seeded starts x 400 steps (a in [0.3, 7.5e5], x in [a - 10 sqrt(a), 50 a]), and
# within 1.0e-11 on runs of up to 3e4 steps through the mode (README, Numerics);
# the kernel is pinned at 5e-14 below a = 500 and 1e-15 above a = 1000.
_WINDOW = 1e-9
# A carried step below this may have lost bits to underflow (x >> a), or be 0 for good.
_FRESH_STEP_BELOW = 2.0**-900


class FragilityResult(_Value):
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

    def __init__(self, fi: int | None, trajectory: tuple[tuple[int, float], ...], initial_prob: float,
                 censored_count: int, fq: Fraction | None, config: AnalysisConfig):
        vars(self).update(fi=fi, trajectory=trajectory, initial_prob=initial_prob, censored_count=censored_count,
                          fq=fq, config=config)

    @property
    def attained(self) -> bool:
        return self.fi is not None

    @property
    def fi_text(self) -> str:
        return reported_fi(self.fi, self.censored_count)


class GridCell(_Value):
    """One sensitivity-scan cell: fi and initial_prob if "ok", initial_prob if "not_applicable", else error.

    Unhashable, as `params` is a dict."""

    params: dict[str, float]
    status: str
    initial_prob: float | None
    fi: int | None
    error: str | None

    def __init__(self, params: dict[str, float], status: str, initial_prob: float | None = None,
                 fi: int | None = None, error: str | None = None):
        vars(self).update(params=params, status=status, initial_prob=initial_prob, fi=fi, error=error)


class SensitivityGrid(_Value):
    """The axes of a scan, in canonical order, and its cells in product order. Unhashable, as `axes` is a dict."""

    axes: dict[str, tuple[float, ...]]
    cells: tuple[GridCell, ...]

    def __init__(self, axes: dict[str, tuple[float, ...]], cells: tuple[GridCell, ...]):
        vars(self).update(axes=axes, cells=cells)


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
    kernel, append = reg_lower_inc_gamma, trajectory.append
    prior_shape, events, p0 = config.prior.shape, data.num_events, config.p0
    for k in range(1, data.num_censored + 1):
        # Summed as posterior_update sums it, so the shape is bit-identical
        # to the posterior of the flipped dataset.
        prob = kernel(prior_shape + (events + k), x)
        append((k, prob))
        if prob < p0:
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


def crossing_outcome(
    events: int, total_time: float, censored: int, config: AnalysisConfig
) -> tuple[str, float | None, int | None, str | None]:
    """(status, initial_prob, fi, error) of fragility_index on data with these sufficient statistics.

    status is "ok" (fi None if not attained), "not_applicable" (with initial_prob) or
    "error" (a numerical error or an invalid value, with its message).

    P steps down by the shape recurrence. The step is carried from one flip to the
    next as step * x / a, and formed afresh by `reg_gamma_shape_step` while it is
    below 2**-900. The kernel gives P(0), fails the search at the first flip whose
    shape is 2**53 or more, and decides, with the same strict `<`, each k whose
    recurrence value is within _WINDOW of p0: a value further below p0 is the
    crossing, one further above is not."""
    try:
        x, initial_prob = _initial(events, total_time, config)
        prior_shape, p0 = config.prior.shape, config.p0
        above, below = p0 + _WINDOW, p0 - _WINDOW
        prob = initial_prob
        step = 0.0
        a = prior_shape + events
        for k in range(1, censored + 1):
            if step < _FRESH_STEP_BELOW:
                step = reg_gamma_shape_step(a, x)
            prob -= step
            # Shapes summed as fragility_index sums them.
            a = prior_shape + (events + k)
            if a >= MAX_SHAPE:
                reg_lower_inc_gamma(a, x)  # the ValueError fragility_index raises at this flip
            if not prob > above:
                if prob < below:
                    return "ok", initial_prob, k, None
                prob = reg_lower_inc_gamma(a, x)
                if prob < p0:
                    return "ok", initial_prob, k, None
            step = step * x / a
    except NotFragileApplicableError as exc:
        return "not_applicable", exc.initial_prob, None, None
    except (ConvergenceError, ValueError) as exc:
        return "error", None, None, str(exc)
    return "ok", initial_prob, None, None


def reported_fi(fi: int | None, censored: int) -> str:
    """A search's FI as reports spell it: the index, or `> censored` when it is not attained."""
    return str(fi) if fi is not None else f"> {censored}"


def fragility_quotient(fi: int, n: int) -> Fraction:
    """Fragility index over sample size, as an exact rational in (0, 1]."""
    if not (isinstance(fi, int) and isinstance(n, int)):
        raise ValueError(f"fi and n must be integers, got {fi!r}, {n!r}")
    if fi < 1 or n < 1 or fi > n:
        raise ValueError(f"require 1 <= fi <= n, got fi={fi}, n={n}")
    from fractions import Fraction  # only a reported quotient loads fractions, and decimal with it

    return Fraction(fi, n)


def calibrate(shape: float, target_prob: float, t0: float) -> float:
    """Posterior rate at which P(median > t0) equals target_prob, given the shape.

    Inverts f(b) = P(shape, b ln 2 / t0) - target_prob, strictly increasing
    in b: grows the bracket [1e-12, B] with B doubling from 1 until f(B) > 0,
    then bisects it until |f| or its width is at most 1e-12. The returned
    rate reproduces target_prob to within 1e-9.

    Raises:
        BracketError: if f changes no sign over the bracket within the growth budget.
        ConvergenceError: if the bisection exhausts its halving budget.
    """
    if not 0.0 < target_prob < 1.0:
        raise ValueError(f"target_prob must lie in (0, 1), got {target_prob!r}")
    shape = require_positive("Gamma shape", shape)
    t0 = require_positive("t0", t0)

    def objective(rate: float) -> float:
        return reg_lower_inc_gamma(shape, rate * LN2 / t0) - target_prob

    hi = 1.0
    for _ in range(_CALIBRATE_MAX_DOUBLINGS):
        fhi = objective(hi)
        if fhi > 0.0:
            break
        hi *= 2.0
    else:
        raise BracketError(
            f"could not bracket a rate reaching probability {target_prob} "
            f"within {_CALIBRATE_MAX_DOUBLINGS} doublings"
        )
    lo = _CALIBRATE_BRACKET_LO
    flo = objective(lo)
    if flo == 0.0:
        return lo
    if flo > 0.0:
        raise BracketError(f"no sign change over [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(_CALIBRATE_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # The bracket is at float resolution.
            return mid
        fmid = objective(mid)
        if abs(fmid) <= _CALIBRATE_BRACKET_TOL or hi - lo <= _CALIBRATE_BRACKET_TOL:
            return mid
        if fmid > 0.0:
            hi = mid
        else:
            lo = mid
    raise ConvergenceError(
        f"bisection did not reach tol={_CALIBRATE_BRACKET_TOL} on [{lo}, {hi}]", _CALIBRATE_MAX_HALVINGS
    )


def sensitivity_scan(
    data: SurvivalDataset,
    base: AnalysisConfig,
    axes: Mapping[str, Iterable[float]],
) -> SensitivityGrid:
    """Fragility index over a Cartesian grid of analysis parameters.

    Axis names: prior_shape, prior_rate, t0, p0; no axes, an unknown name or an
    empty axis raise ValueError. Each cell runs `crossing_outcome` on the dataset's
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
        try:
            prior = GammaParams(params.get("prior_shape", base.prior.shape), params.get("prior_rate", base.prior.rate))
            config = AnalysisConfig(params.get("t0", base.t0), params.get("p0", base.p0), prior)
        except ValueError as exc:
            cells.append(GridCell(params, "error", error=str(exc)))
        else:
            cells.append(GridCell(params, *crossing_outcome(*stats, config)))
    return SensitivityGrid(axes=ordered, cells=tuple(cells))
