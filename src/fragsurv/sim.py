"""Deterministic synthetic trials, and a fragility-index Monte Carlo that runs on
each replication's sufficient statistics without building its dataset.

Randomness comes from an in-repo SplitMix64 generator rather than the platform
default, so identical seeds give bit-identical draws on every platform.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

from .fragility import NotFragileApplicableError, crossing_fi
from .specfun import ConvergenceError
from .survival import AnalysisConfig, SurvivalDataset

__all__ = ["SplitMix64", "SimSpec", "simulate_trial", "fi_distribution"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LARGEST_LOG_DRAW = -math.log(2.0**-54)  # uniform() is never below 2^-54
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _mix64(z: int) -> int:
    """SplitMix64 finalizer (Steele, Lea & Flood 2014)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit SplitMix64 generator; uniform() yields doubles in the open (0, 1)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def uniform(self) -> float:
        # 53-bit mantissa, offset by half a lattice step: never 0; the top point rounds to 1.0.
        u = ((self.next_uint64() >> 11) + 0.5) * 2.0**-53
        return u if u < 1.0 else _BELOW_ONE


def substream_seed(seed: int, index: int) -> int:
    """Seed for substream `index`: avalanche-mixed, so substreams are disjoint in practice."""
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class SimSpec:
    """Synthetic single-arm trial: exponential event times, optional censoring.

    Censoring is either administrative (cutoff at censor_time) or independent
    exponential (rate censor_rate); leave both unset for fully observed data.
    """

    n: int
    event_rate: float
    censor_time: float | None = None
    censor_rate: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not (math.isfinite(self.event_rate) and self.event_rate > 0):
            raise ValueError(f"event_rate must be finite and > 0, got {self.event_rate!r}")
        if self.censor_time is not None and self.censor_rate is not None:
            raise ValueError("specify at most one of censor_time and censor_rate")
        for name, value in (("censor_time", self.censor_time), ("censor_rate", self.censor_rate)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        for name, rate in (("event_rate", self.event_rate), ("censor_rate", self.censor_rate)):
            if rate is not None and math.isinf(_LARGEST_LOG_DRAW / rate):
                raise ValueError(f"{name} {rate!r} is too small: the largest draw -ln(2^-54) / rate overflows")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


def _draws(spec: SimSpec):
    """Yield (min(T, C), T <= C) per subject: T = -ln(U) / event_rate, C = censor_time,
    -ln(U') / censor_rate (a second uniform) or inf. A time of 0 raises as SurvivalDataset."""
    rng = SplitMix64(spec.seed)
    for _ in range(spec.n):
        t = -math.log(rng.uniform()) / spec.event_rate
        if spec.censor_time is not None:
            c = spec.censor_time
        elif spec.censor_rate is not None:
            c = -math.log(rng.uniform()) / spec.censor_rate
        else:
            c = math.inf
        time = min(t, c)
        if not time > 0.0:
            raise ValueError(f"observation time must be finite and > 0, got {time!r}")
        yield time, t <= c


def simulate_trial(spec: SimSpec) -> SurvivalDataset:
    """One dataset of the subjects of `_draws`; identical seeds give bit-identical datasets."""
    times, events = [], bytearray()
    for time, event in _draws(spec):
        times.append(time)
        events.append(event)
    return SurvivalDataset(times, events)


def fi_distribution(
    spec: SimSpec, config: AnalysisConfig, replications: int
) -> dict[int | str, int]:
    """Histogram of fragility outcomes over independent replications.

    Keys are attained index values (ints) plus the markers "not_attained",
    "not_applicable" and "error"; counts always sum to `replications`.
    Replication i uses substream i of the seed, so prefixes agree across
    different replication counts. Builds no dataset: `crossing_fi` takes each
    replication's event count and total time, summed as SurvivalDataset does."""
    if not (isinstance(replications, int) and replications >= 1):
        raise ValueError(f"replications must be a positive integer, got {replications!r}")
    counts: Counter[int | str] = Counter()
    for i in range(replications):
        events, total_time = 0, 0.0
        for time, event in _draws(replace(spec, seed=substream_seed(spec.seed, i))):
            events += event
            total_time += time
        try:
            _, fi = crossing_fi(events, total_time, spec.n - events, config)
        except NotFragileApplicableError:
            counts["not_applicable"] += 1
        except (ConvergenceError, ValueError):
            counts["error"] += 1
        else:
            counts["not_attained" if fi is None else fi] += 1
    return dict(counts)
