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
from functools import reduce
from operator import add

from .specfun import reg_lower_inc_gamma

__all__ = [
    "NotFragileApplicableError",
    "SurvivalDataset",
    "GammaParams",
    "AnalysisConfig",
    "log_likelihood",
    "posterior_update",
    "posterior_prob_median_exceeds",
    "require_positive",
]

LN2 = math.log(2.0)


def require_positive(name: str, value) -> float:
    """`value` as a float if it is a finite int or float above 0; else ValueError naming it `name`."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


class NotFragileApplicableError(Exception):
    """The baseline probability does not exceed p0, so no index is defined."""

    def __init__(self, initial_prob: float, p0: float):
        super().__init__(
            f"initial probability {initial_prob:.6f} does not exceed p0 {p0:.6f}; "
            "fragility index undefined"
        )
        self.initial_prob = initial_prob
        self.p0 = p0


class _Value:
    """An immutable value, compared, hashed and shown by the attributes named in `_fields`.

    Every value type of the package is one, written out rather than made by the stdlib's data-class
    decorator, so that no command imports that module (and inspect with it).
    """

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SurvivalDataset(_Value):
    """Ordered, nonempty survival data in one time unit, stored as two columns.

    `times` (finite, > 0) and `events` (one 0/1 byte per subject) keep input
    order. The unit is metadata only. The event count and total follow-up
    time, the model's sufficient statistics, are computed once.
    """

    _fields = ("times", "events", "time_unit")
    times: tuple[float, ...]
    events: bytes
    time_unit: str
    num_events: int
    total_time: float

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
                require_positive("observation time", t)
            total_time = _row_order_total(times)
        if kinds != {float}:
            times = tuple(map(float, times))
        vars(self).update(times=times, events=events, time_unit=time_unit, num_events=events.count(1),
                          total_time=total_time)

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def num_censored(self) -> int:
        return self.n - self.num_events


class GammaParams(_Value):
    """Shape/rate parameters of a Gamma distribution (prior or posterior on lambda)."""

    _fields = ("shape", "rate")
    shape: float
    rate: float

    def __init__(self, shape: float, rate: float):
        vars(self).update(shape=require_positive("Gamma shape", shape), rate=require_positive("Gamma rate", rate))


class AnalysisConfig(_Value):
    """Analysis settings: median threshold t0, confidence level p0, prior."""

    _fields = ("t0", "p0", "prior")
    t0: float
    p0: float
    prior: GammaParams

    def __init__(self, t0: float, p0: float = 0.7, prior: GammaParams = GammaParams(0.5, 0.5)):
        t0 = require_positive("t0", t0)
        if not (isinstance(p0, (int, float)) and 0.0 < p0 < 1.0):
            raise ValueError(f"p0 must lie in (0, 1), got {p0!r}")
        vars(self).update(t0=t0, p0=float(p0), prior=prior)


def _row_order_total(times: Iterable[float]) -> float:
    """The sum of `times` by plain row-order addition: the same bits on every Python version (sum() of floats is
    compensated from 3.12 on)."""
    return reduce(add, times, 0.0)


def log_likelihood(data: SurvivalDataset, rate: float) -> float:
    """Censored exponential log-likelihood: (#events) ln(rate) - rate * total time."""
    rate = require_positive("rate", rate)
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
    return reg_lower_inc_gamma(posterior.shape, posterior.rate * LN2 / require_positive("t0", t0))
