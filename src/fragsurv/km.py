"""Kaplan-Meier product-limit estimator and staircase extraction.

Up to _EXACT_KM_MAX_N subjects survival values are exact rationals, to be
compared exactly against brute-force recounts; above it they are the running
float product, within about 1e-14 relative of the exact value.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .survival import SurvivalDataset

__all__ = ["KMStep", "KMCurve", "km_estimate", "km_to_plot_points"]

# Above this many subjects the exact denominators (up to n! for n subjects)
# cost more than the whole analysis: at 3e4 rows the largest has 5769
# digits, past Python's int-to-str limit of 4300. 300! has 615 digits.
_EXACT_KM_MAX_N = 300


@dataclass(frozen=True)
class KMStep:
    """Estimate after a distinct event time; `survival` is a float above _EXACT_KM_MAX_N subjects."""

    time: float
    survival: Fraction | float
    at_risk: int
    events: int


@dataclass(frozen=True)
class KMCurve:
    """Right-continuous step estimate plus the times at which censoring occurred."""

    steps: tuple[KMStep, ...]
    censor_marks: tuple[float, ...]


def km_estimate(data: SurvivalDataset) -> KMCurve:
    """Product-limit estimate S(t) = prod_{t_i <= t} (1 - d_i / n_i).

    One step per distinct event time. At tied event/censoring times the
    events are processed first, so subjects censored at t still count as
    at risk for events at t (the standard convention).
    """
    events_at: dict[float, int] = {}
    censored_at: dict[float, int] = {}
    for t, e in zip(data.times, data.events):
        bucket = events_at if e else censored_at
        bucket[t] = bucket.get(t, 0) + 1

    at_risk = data.n
    exact = at_risk <= _EXACT_KM_MAX_N
    survival = Fraction(1) if exact else 1.0
    steps = []
    for t in sorted(set(events_at) | set(censored_at)):
        d = events_at.get(t, 0)
        if d > 0:
            survival *= Fraction(at_risk - d, at_risk) if exact else (at_risk - d) / at_risk
            steps.append(KMStep(time=t, survival=survival, at_risk=at_risk, events=d))
        at_risk -= d + censored_at.get(t, 0)

    censor_marks = tuple(sorted(t for t, e in zip(data.times, data.events) if not e))
    return KMCurve(steps=tuple(steps), censor_marks=censor_marks)


def km_to_plot_points(
    curve: KMCurve,
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Staircase polyline points and censor tick coordinates.

    The polyline starts at (0, 1); each drop contributes (t, S_before) and
    (t, S_after). If follow-up extends past the last event (trailing
    censoring), the final level is carried out to the last observed time.
    Censor ticks sit on the staircase at the right-continuous value.
    """
    points: list[tuple[float, float]] = [(0.0, 1.0)]
    levels = [1.0]  # levels[i]: the estimate after the first i steps
    for step in curve.steps:
        points.append((step.time, levels[-1]))
        levels.append(float(step.survival))
        points.append((step.time, levels[-1]))

    last_time = max(
        (curve.steps[-1].time if curve.steps else 0.0),
        (curve.censor_marks[-1] if curve.censor_marks else 0.0),
    )
    if last_time > points[-1][0]:
        points.append((last_time, levels[-1]))

    step_times = [step.time for step in curve.steps]
    ticks = [(t, levels[bisect_right(step_times, t)]) for t in curve.censor_marks]
    return points, ticks
