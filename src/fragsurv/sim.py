"""Deterministic synthetic trials, and a fragility-index Monte Carlo that runs on
each replication's sufficient statistics without building its dataset.

Randomness comes from an in-repo SplitMix64 generator rather than the platform
default, so identical seeds give bit-identical draws on every platform.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Iterable
from functools import lru_cache
from itertools import islice, repeat
from operator import le, truediv

from .fragility import crossing_outcome
from .survival import AnalysisConfig, SurvivalDataset, _row_order_total, _Value, require_positive

__all__ = ["SplitMix64", "SimSpec", "simulate_trial", "fi_distribution"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BELOW_ONE = math.nextafter(1.0, 0.0)
_LARGEST_LOG_DRAW = -math.log(2.0**-54)  # uniform() is never below 2^-54
_SMALLEST_LOG_DRAW = -math.log(_BELOW_ONE)  # nor above 1 - 2^-53; this is 2^-53
_BLOCK = 1024  # draws per _uniforms call; 512 is slower, and 2048 and 4096 are no faster
# The low 64-bit word of each 128-bit slot, read as machine words from the native byte order.
_LOW_WORDS = slice(None, None, 2 if sys.byteorder == "little" else -2)


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


class SimSpec(_Value):
    """Synthetic single-arm trial: exponential event times, optional censoring.

    Censoring is either administrative (cutoff at censor_time) or independent
    exponential (rate censor_rate); leave both unset for fully observed data.
    A rate must keep every draw -ln(U) / rate, U in [2^-54, 1 - 2^-53], a
    positive finite double: above 2.0821099566085722e-307 and below 2^1022.
    """

    n: int
    event_rate: float
    censor_time: float | None
    censor_rate: float | None
    seed: int

    def __init__(self, n: int, event_rate: float, censor_time: float | None = None,
                 censor_rate: float | None = None, seed: int = 0):
        if not (isinstance(n, int) and n >= 1):
            raise ValueError(f"n must be a positive integer, got {n!r}")
        require_positive("event_rate", event_rate)
        if censor_time is not None and censor_rate is not None:
            raise ValueError("specify at most one of censor_time and censor_rate")
        for name, value in (("censor_time", censor_time), ("censor_rate", censor_rate)):
            if value is not None:
                require_positive(name, value)
        for name, rate in (("event_rate", event_rate), ("censor_rate", censor_rate)):
            if rate is not None and math.isinf(_LARGEST_LOG_DRAW / rate):
                raise ValueError(f"{name} {rate!r} is too small: the largest draw -ln(2^-54) / rate overflows")
            if rate is not None and _SMALLEST_LOG_DRAW / rate == 0.0:
                raise ValueError(f"{name} {rate!r} is too large: the smallest draw -ln(1 - 2^-53) / rate rounds to 0")
        if not (isinstance(seed, int) and seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
        vars(self).update(n=n, event_rate=event_rate, censor_time=censor_time, censor_rate=censor_rate, seed=seed)


@lru_cache(maxsize=8)
def _lane_constants(lanes: int) -> tuple[int, int, int, int]:
    """For `lanes` 128-bit slots: 1, 2^64 - 1 and 2^54 - 1 in every slot, and (k + 1)·GOLDEN mod 2^64 in slot k."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    ramp = b"".join((((k + 1) * _GOLDEN) & _MASK64).to_bytes(16, "little") for k in range(lanes))
    return ones, ones * _MASK64, ones * ((1 << 54) - 1), int.from_bytes(ramp, "little")


def _uniforms(states: list[int], count: int) -> list[float]:
    """`count` draws of SplitMix64(s).uniform() for each start state s, stream after stream, bit for bit.

    Lane j = r·count + k holds state k of stream r as a 64-bit value in a 128-bit slot of one
    int, so no carry or product reaches the next lane, and every step of the generator runs once
    over the whole int. The scalar draw is (q + 0.5)·2^-53 rounded once, for q the top 53 bits;
    the lanes give 2q + 1, and (2q + 1)·2^-54 rounds to the same double because scaling by a
    power of two commutes with rounding."""
    lanes = len(states) * count
    ones, mask, low54, ramp = _lane_constants(lanes)
    # stream r's lanes hold s_r - r·count·GOLDEN, so adding the ramp leaves s_r + (k + 1)·GOLDEN in lane j
    z = int.from_bytes(
        b"".join([((s - r * count * _GOLDEN) & _MASK64).to_bytes(16, "little") * count for r, s in enumerate(states)]),
        "little",
    )
    z = (z + ramp) & mask
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    z = (((z ^ (z >> 31)) >> 10) & low54) | ones
    words = memoryview(z.to_bytes(16 * lanes, sys.byteorder)).cast("Q")[_LOW_WORDS]
    draws = [x * 2.0**-54 for x in words]
    if 1.0 in draws:  # the top lattice point q = 2^53 - 1
        draws = [u if u < 1.0 else _BELOW_ONE for u in draws]
    return draws


def _observed(spec: SimSpec, states: Iterable[int]):
    """Yield (times, events) of the `spec.n` subjects of each stream, stream after stream.

    A block draws as many whole streams as fit in _BLOCK draws or, when one stream does not fit,
    the next piece of one stream; the pieces are joined before the stream is yielded. Subject i of
    a stream draws U (and U' when censoring is exponential): T = -ln(U) / event_rate;
    C = censor_time, -ln(U') / censor_rate or inf; its time is min(T, C) and its event T <= C."""
    n = spec.n
    per = 1 if spec.censor_rate is None else 2
    step = _BLOCK // per
    if n <= step:
        states = iter(states)
        blocks = ((group, n) for group in iter(lambda: list(islice(states, step // n)), []))
    else:
        # the piece at subject offset o of a stream starts o·per draws further on
        blocks = (([s + o * per * _GOLDEN], min(step, n - o)) for s in states for o in range(0, n, step))
    cutoff = math.inf if spec.censor_time is None else spec.censor_time
    times, events = [], bytearray()
    for starts, subjects in blocks:
        logs = list(map(math.log, _uniforms(starts, subjects * per)))
        t = list(map(truediv, logs[::per], repeat(-spec.event_rate)))
        c = repeat(cutoff) if per == 1 else list(map(truediv, logs[1::2], repeat(-spec.censor_rate)))
        times += [x if x <= y else y for x, y in zip(t, c)]
        events += bytes(map(le, t, c))
        if len(times) >= n:  # the block ends a stream
            for k in range(0, len(times), n):
                yield times[k:k + n], events[k:k + n]
            times, events = [], bytearray()


def simulate_trial(spec: SimSpec) -> SurvivalDataset:
    """One dataset of `spec.n` subjects drawn from the stream of `spec.seed` by `_observed`;
    identical seeds give bit-identical datasets."""
    return SurvivalDataset(*next(_observed(spec, [spec.seed])))


def fi_distribution(
    spec: SimSpec, config: AnalysisConfig, replications: int
) -> dict[int | str, int]:
    """Histogram of fragility outcomes over independent replications.

    Keys are attained index values (ints) plus the markers "not_attained",
    "not_applicable" and "error"; counts always sum to `replications`.
    Replication i uses substream i of the seed, so prefixes agree across
    different replication counts. Builds no dataset: `crossing_outcome` takes
    each replication's event count and total time, the latter summed by
    `survival._row_order_total` as in SurvivalDataset.
    SimSpec keeps every time positive and finite, so "error" comes from the
    search alone: an overflowing total or a shape outside the kernel's domain."""
    if not (isinstance(replications, int) and replications >= 1):
        raise ValueError(f"replications must be a positive integer, got {replications!r}")
    counts: Counter[int | str] = Counter()
    for times, flags in _observed(spec, (substream_seed(spec.seed, i) for i in range(replications))):
        events = flags.count(1)
        status, _, fi, _ = crossing_outcome(events, _row_order_total(times), spec.n - events, config)
        counts[status if status != "ok" else "not_attained" if fi is None else fi] += 1
    return dict(counts)
