"""Kaplan-Meier product-limit estimator and staircase extraction.

Survival values are kept as exact rationals so the product-limit estimate
can be compared exactly against brute-force recounts; callers wanting
floats convert at the edge (km_to_plot_points does).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .survival import SurvivalDataset

__all__ = ["KMStep", "KMCurve", "km_estimate", "km_to_plot_points"]


@dataclass(frozen=True)
class KMStep:
    """Estimate immediately after a distinct event time."""

    time: float
    survival: Fraction
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
    for o in data.observations:
        bucket = events_at if o.event == 1 else censored_at
        bucket[o.time] = bucket.get(o.time, 0) + 1

    at_risk = data.n
    survival = Fraction(1)
    steps = []
    for t in sorted(set(events_at) | set(censored_at)):
        d = events_at.get(t, 0)
        if d > 0:
            survival *= Fraction(at_risk - d, at_risk)
            steps.append(KMStep(time=t, survival=survival, at_risk=at_risk, events=d))
        at_risk -= d + censored_at.get(t, 0)

    censor_marks = tuple(sorted(o.time for o in data.observations if o.event == 0))
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
