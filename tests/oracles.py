"""Independent oracles used across the test suite.

Everything here deliberately avoids the code paths under test: erf comes
from its own power series, the incomplete gamma at large shapes from mpmath
at 40 digits, Kaplan-Meier from a quadratic-time recount in exact
rationals, the fragility search from a direct scan built on scipy's
incomplete gamma, and the Monte Carlo histogram from one dataset and one
kernel-evaluated search per replication.
"""

from __future__ import annotations

import importlib.util
import math
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from pathlib import Path

import mpmath
from scipy.special import gammainc as scipy_gammainc

from fragsurv.fragility import NotFragileApplicableError, fragility_index
from fragsurv.sim import SimSpec, simulate_trial, substream_seed
from fragsurv.specfun import BracketError, ConvergenceError
from fragsurv.survival import LN2, AnalysisConfig, SurvivalDataset


def erf_series(z: float) -> float:
    """erf by power series: alternating Maclaurin for small z, the scaled
    all-positive-term series otherwise (no cancellation at large z)."""
    if z == 0.0:
        return 0.0
    if z < 0:
        return -erf_series(-z)
    two_over_sqrt_pi = 2.0 / math.sqrt(math.pi)
    if z * z <= 9.0:
        total = 0.0
        term = z
        n = 0
        while True:
            contrib = term / (2 * n + 1)
            total += contrib if n % 2 == 0 else -contrib
            n += 1
            term *= z * z / n
            if term / (2 * n + 1) < 1e-18 * abs(total):
                return two_over_sqrt_pi * total
    # erf(z) = (2z/sqrt(pi)) e^{-z^2} sum_n (2 z^2)^n / (1*3*...*(2n+1))
    total = 0.0
    term = 1.0
    n = 0
    while term > 1e-18 * max(total, 1.0):
        total += term
        n += 1
        term *= 2.0 * z * z / (2 * n + 1)
    return two_over_sqrt_pi * z * math.exp(-z * z) * total


def mp_reg_lower_inc_gamma(a: float, x: float) -> float:
    """P(a, x) to 40 digits in mpmath arithmetic: the power series for x < a, else 1 - the Legendre
    continued fraction for Q. O(sqrt(a)) terms near x = a, so meant for shapes up to about 1e6; there
    mpmath's own gammainc raises NoConvergence at some points (x = a + 5 sqrt(a))."""
    with mpmath.workdps(50):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        tol = mpmath.mpf(10) ** -45
        prefactor = mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a))
        if x < a:
            term = total = 1 / a
            n = 0
            while term > tol * total:
                n += 1
                term *= x / (a + n)
                total += term
            return float(prefactor * total)
        # modified Lentz; b = x + 1 - a >= 1, so no denominator starts at 0
        b = x + 1 - a
        c, d = mpmath.mpf(10) ** 60, 1 / b
        h = d
        i = 0
        while True:
            i += 1
            an = -i * (i - a)
            b += 2
            d = 1 / (an * d + b)
            c = b + an / c
            delta = c * d
            h *= delta
            if abs(delta - 1) < tol:
                return float(1 - prefactor * h)


@cache
def temme_table_exact() -> tuple[tuple[Fraction, ...], ...]:
    """The exact rational coefficients that tools/temme_coefficients.py derives."""
    path = Path(__file__).resolve().parent.parent / "tools" / "temme_coefficients.py"
    spec = importlib.util.spec_from_file_location("temme_coefficients", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(map(tuple, module.temme_table()))


def mp_temme_lower(a: float, x: float) -> float:
    """P(a, x) by the expansion `specfun` uses (DLMF 8.12.8, the same rows and columns), with exact
    coefficients, at 40 digits. Judges the kernel's rounding where no series is affordable."""
    with mpmath.workdps(60):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        s = (x - a) / a
        log1pmx = mpmath.log1p(s) - s
        eta = mpmath.sign(s) * mpmath.sqrt(-2 * log1pmx)
        total = mpmath.mpf(0)
        for k, row in enumerate(temme_table_exact()):
            c = sum(mpmath.mpf(d.numerator) / d.denominator * eta**n for n, d in enumerate(row))
            total += c / a**k
        return float(mpmath.erfc(-eta * mpmath.sqrt(a / 2)) / 2
                     - mpmath.exp(a * log1pmx) / mpmath.sqrt(2 * mpmath.pi * a) * total)


def km_recount(data: SurvivalDataset) -> list[tuple[float, Fraction, int, int]]:
    """O(n^2) product-limit recount: (time, survival, at_risk, events) per event time.

    Risk set at t counts every subject with observed time >= t, so subjects
    censored exactly at t are still at risk (events-first tie convention).
    """
    rows = list(zip(data.times, data.events))
    event_times = sorted({u for u, e in rows if e == 1})
    survival = Fraction(1)
    out = []
    for t in event_times:
        at_risk = sum(1 for u, _ in rows if u >= t)
        d = sum(1 for u, e in rows if e == 1 and u == t)
        survival *= Fraction(at_risk - d, at_risk)
        out.append((t, survival, at_risk, d))
    return out


def exhaustive_fi(data: SurvivalDataset, config: AnalysisConfig) -> int | str:
    """Direct fragility scan on scipy's incomplete gamma.

    Evaluates P(shape + k, rate * ln2 / t0) for every k = 0..m and returns
    the first k with probability strictly below p0; "not_applicable" when
    k = 0 already fails the strict bar, "not_attained" when no k crosses.
    """
    shape = config.prior.shape + data.num_events
    rate = config.prior.rate + data.total_time
    x0 = rate * LN2 / config.t0
    if not scipy_gammainc(shape, x0) > config.p0:
        return "not_applicable"
    for k in range(1, data.num_censored + 1):
        if scipy_gammainc(shape + k, x0) < config.p0:
            return k
    return "not_attained"


def fi_histogram_reference(spec: SimSpec, config: AnalysisConfig, reps: int) -> dict[int | str, int]:
    """fi_distribution's histogram from `simulate_trial` and `fragility_index`
    per replication, with the kernel evaluated at every flip. SimSpec keeps
    every time positive and finite, so the ValueError left to count as an
    error is the posterior's: a total follow-up time that overflows."""
    counts: Counter[int | str] = Counter()
    for i in range(reps):
        try:
            dataset = simulate_trial(SimSpec(**{**vars(spec), "seed": substream_seed(spec.seed, i)}))
            result = fragility_index(dataset, config)
        except NotFragileApplicableError:
            counts["not_applicable"] += 1
        except (ConvergenceError, BracketError, ValueError):
            counts["error"] += 1
        else:
            counts[result.fi if result.attained else "not_attained"] += 1
    return dict(counts)


def random_dataset(rng: random.Random, n: int, censor_fraction: float) -> SurvivalDataset:
    """n observations with exponential-ish times and the given censoring share."""
    num_censored = round(n * censor_fraction)
    flags = [0] * num_censored + [1] * (n - num_censored)
    rng.shuffle(flags)
    times = [rng.expovariate(rng.uniform(0.05, 2.0)) + 1e-9 for _ in flags]
    return SurvivalDataset(times, flags)


def gamma_log_density(lam: float, shape: float, rate: float) -> float:
    """Gamma(shape, rate) log-density via the standard library's lgamma."""
    return shape * math.log(rate) - math.lgamma(shape) + (shape - 1.0) * math.log(lam) - rate * lam


def threshold_config(data: SurvivalDataset, z_offset: float, p0: float) -> AnalysisConfig:
    """Config whose baseline probability sits about z_offset posterior
    standard deviations above one half.

    Keeps the baseline away from the double-precision saturation at 1.0
    that a threshold far below the posterior median would produce on large
    datasets.
    """
    prior = AnalysisConfig(t0=1.0).prior
    shape = prior.shape + data.num_events
    rate = prior.rate + data.total_time
    x0 = shape + z_offset * math.sqrt(shape)
    return AnalysisConfig(t0=rate * LN2 / x0, p0=p0, prior=prior)
