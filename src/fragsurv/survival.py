"""Censored survival data model and the conjugate exponential-Gamma machinery.

The sampling model is exponential with rate lambda: density f(t) = lambda
e^{-lambda t}, survival S(t) = e^{-lambda t}, constant hazard h(t) = lambda,
median ln 2 / lambda. A Gamma(shape, rate) prior on lambda is conjugate:
observed events contribute a factor lambda e^{-lambda T}, right-censored
observations contribute e^{-lambda T}, so the posterior is
Gamma(shape + #events, rate + sum of all follow-up times).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from .specfun import reg_lower_inc_gamma

__all__ = [
    "SurvivalDataset",
    "GammaParams",
    "AnalysisConfig",
    "log_likelihood",
    "posterior_update",
    "posterior_prob_median_exceeds",
]

LN2 = math.log(2.0)


@dataclass(frozen=True, init=False)
class SurvivalDataset:
    """Ordered, nonempty survival data in one time unit, stored as two columns.

    `times` (finite, > 0) and `events` (one 0/1 byte per subject) keep input
    order. The unit is metadata only. The event count and total follow-up
    time, the model's sufficient statistics, are computed once.
    """

    times: tuple[float, ...]
    events: bytes
    time_unit: str
    num_events: int = field(repr=False, compare=False)
    total_time: float = field(repr=False, compare=False)

    def __init__(self, times: Iterable[float], events: Iterable[int], time_unit: str = "months"):
        times = tuple(times)
        try:
            if isinstance(events, int):
                raise TypeError  # bytes(3) would be three zero bytes
            events = bytes(events)
        except (TypeError, ValueError):
            raise ValueError("event indicators must be the integers 0 and 1") from None
        bad = events.translate(None, b"\x00\x01")
        if bad:
            raise ValueError(f"event indicator must be 0 or 1, got {bad[0]}")
        if len(times) != len(events):
            raise ValueError(f"{len(times)} times but {len(events)} event indicators")
        if not times:
            raise ValueError("a survival dataset must contain at least one observation")
        kinds = set(map(type, times))
        total_time = _row_order_total(times) if kinds <= {float, int} and min(times) > 0 else math.nan
        if not math.isfinite(total_time):
            # Re-scanned one by one to name the first bad time; finite times whose total overflows pass.
            for t in times:
                if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0):
                    raise ValueError(f"observation time must be finite and > 0, got {t!r}")
            total_time = _row_order_total(times)
        if kinds != {float}:
            times = tuple(map(float, times))
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "time_unit", time_unit)
        object.__setattr__(self, "num_events", events.count(1))
        object.__setattr__(self, "total_time", total_time)

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def num_censored(self) -> int:
        return self.n - self.num_events


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameters of a Gamma distribution (prior or posterior on lambda)."""

    shape: float
    rate: float

    def __post_init__(self):
        for name, value in (("shape", self.shape), ("rate", self.rate)):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"Gamma {name} must be finite and > 0, got {value!r}")
        object.__setattr__(self, "shape", float(self.shape))
        object.__setattr__(self, "rate", float(self.rate))


@dataclass(frozen=True)
class AnalysisConfig:
    """Analysis settings: median threshold t0, confidence level p0, prior."""

    t0: float
    p0: float = 0.7
    prior: GammaParams = GammaParams(0.5, 0.5)

    def __post_init__(self):
        if not (isinstance(self.t0, (int, float)) and math.isfinite(self.t0) and self.t0 > 0):
            raise ValueError(f"t0 must be finite and > 0, got {self.t0!r}")
        if not (isinstance(self.p0, (int, float)) and 0.0 < self.p0 < 1.0):
            raise ValueError(f"p0 must lie in (0, 1), got {self.p0!r}")
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "p0", float(self.p0))


def _row_order_total(times: tuple) -> float:
    """Plain row-order addition: the same bits on every Python version (sum() of floats is compensated from 3.12 on)."""
    from functools import reduce
    from operator import add

    return reduce(add, times, 0.0)


def log_likelihood(data: SurvivalDataset, rate: float) -> float:
    """Censored exponential log-likelihood: (#events) ln(rate) - rate * total time."""
    _require_positive_rate(rate)
    return data.num_events * math.log(rate) - rate * data.total_time


def posterior_update(prior: GammaParams, data: SurvivalDataset) -> GammaParams:
    """Conjugate update: shape += #events, rate += total follow-up time. Exact."""
    return GammaParams(prior.shape + data.num_events, prior.rate + data.total_time)


def posterior_prob_median_exceeds(posterior: GammaParams, t0: float) -> float:
    """Probability that the median survival time exceeds t0 under the posterior.

    The median exceeds t0 exactly when lambda < ln 2 / t0, so this is the
    Gamma(shape, rate) CDF at ln 2 / t0, i.e. P(shape, rate * ln 2 / t0).
    Strictly decreasing in t0 and strictly increasing in rate.
    """
    if not (isinstance(t0, (int, float)) and math.isfinite(t0) and t0 > 0):
        raise ValueError(f"t0 must be finite and > 0, got {t0!r}")
    return reg_lower_inc_gamma(posterior.shape, posterior.rate * LN2 / t0)


def _require_positive_rate(rate: float) -> None:
    if not (isinstance(rate, (int, float)) and math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be finite and > 0, got {rate!r}")
