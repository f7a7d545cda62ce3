"""Scalar special functions and root finding used by the survival machinery.

Self-contained double-precision kernel on the standard library's
`math.lgamma`: the regularized lower incomplete gamma function P(a, x)
(series / continued fraction split, as in Numerical Recipes ch. 6, with the
prefactor formed as in Cephes igam.c), its shape step P(a, x) - P(a + 1, x),
and bracketed bisection. No external numerical dependencies.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "ConvergenceError",
    "BracketError",
    "reg_lower_inc_gamma",
    "reg_gamma_shape_step",
    "bisect_root",
]


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to converge within its iteration budget."""

    def __init__(self, message: str, iterations: int):
        super().__init__(f"{message} (after {iterations} iterations)")
        self.iterations = iterations


class BracketError(ValueError):
    """A root bracket is invalid: the function does not change sign over it."""


# Smallest representable scale for the modified Lentz algorithm.
_FPMIN = sys.float_info.min / sys.float_info.epsilon

# Relative termination tolerance of the incomplete-gamma series and
# continued fraction.
_EPSILON = 1e-14

_BISECT_MAX_ITERATIONS = 256

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)

# From here on a + 1 == a: a shape step is lost and the series cannot advance
# (above 2.56e305, lgamma(a) overflows too).
MAX_SHAPE = 2.0**53
# The smallest normal double, 2**-1022. Below it the series' first term 1 / a
# overflows, and the prefactor x^a e^{-x} / Gamma(a) underflows before the
# shape step can divide it by a.
MIN_SHAPE = sys.float_info.min


def reg_lower_inc_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x) = gamma(a, x) / Gamma(a).

    Equivalently the CDF at x of a Gamma(shape=a, rate=1) random variable.
    Power series for x < a + 1, modified Lentz continued fraction otherwise;
    the x^a e^{-x} / Gamma(a) prefactor is assembled in log space so large
    shapes do not overflow, and near x = a without cancellation. Absolute
    error <= 5e-14 for a in [0.1, 500], x in [0, 1000], and <= 1e-12 for
    shapes up to 1e6 with x within a few sqrt(a) of a. At x = +inf it
    returns the limit 1.

    Raises:
        ValueError: unless MIN_SHAPE (2**-1022) <= a < MAX_SHAPE (2**53) and x >= 0.
        ConvergenceError: if the scheme does not converge within
            _iteration_budget(a) iterations.
    """
    if not (isinstance(a, (int, float)) and MIN_SHAPE <= a < MAX_SHAPE):
        raise ValueError(f"reg_lower_inc_gamma requires 2**-1022 <= a < 2**53, got {a!r}")
    if not (isinstance(x, (int, float)) and x >= 0):
        raise ValueError(f"reg_lower_inc_gamma requires x >= 0, got {x!r}")
    a = float(a)
    x = float(x)
    if x == 0.0:
        return 0.0
    if x == math.inf:
        return 1.0
    if x < a + 1.0:
        p = _lower_gamma_series(a, x)
    else:
        p = 1.0 - _upper_gamma_cont_fraction(a, x)
    # Guard against sub-ulp overshoot at the boundaries.
    return min(1.0, max(0.0, p))


def reg_gamma_shape_step(a: float, x: float) -> float:
    """P(a, x) - P(a + 1, x) = x^a e^{-x} / Gamma(a + 1) (DLMF 8.8.5), 0 at x = 0 and +inf.
    Formed afresh from the kernel's prefactor. `crossing_fi` carries it as a running product,
    which underflows for x >> a, and calls this while that is below 2**-900, at shapes below 2**53.
    Raises ValueError unless MIN_SHAPE (2**-1022) <= a < MAX_SHAPE (2**53) and x >= 0."""
    if not (isinstance(a, (int, float)) and MIN_SHAPE <= a < MAX_SHAPE and x >= 0):
        raise ValueError(f"reg_gamma_shape_step requires 2**-1022 <= a < 2**53 and x >= 0, got {a!r}, {x!r}")
    if x == 0.0 or x == math.inf:
        return 0.0
    return math.exp(_log_prefactor(a, x)) / a


def _iteration_budget(a: float) -> int:
    # Near x = a both schemes need O(sqrt(a)) terms. Measured up to a = 1e6:
    # at most 9.2 sqrt(a) for the series (a >= 50) and 4 sqrt(a) for the
    # continued fraction; the constant covers small shapes.
    return 300 + 10 * math.isqrt(int(a))


def _log_prefactor(a: float, x: float) -> float:
    # log of x^a e^{-x} / Gamma(a). Near x = a the terms of the direct form
    # cancel, so there the Stirling part of ln Gamma(a) is taken out
    # analytically, as in Cephes igam_fac: with t = (x - a) / a the log is
    # a (log1p(t) - t) + ln(a / 2 pi) / 2 - mu(a), where mu(a) is the
    # remainder ln Gamma(a) - ((a - 1/2) ln a - a + ln(2 pi) / 2). Far from
    # x = a the direct form stays: there t can round to -1. The 5-term
    # Stirling series of mu is below 1e-17 off from a = 20 on.
    if abs(x - a) > 0.4 * a:
        return a * math.log(x) - x - math.lgamma(a)
    if a < 20.0:
        mu = math.lgamma(a) - ((a - 0.5) * math.log(a) - a + _HALF_LN_2PI)
    else:
        r = 1.0 / (a * a)
        mu = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / a
    t = (x - a) / a
    return a * (math.log1p(t) - t) + 0.5 * math.log(a) - _HALF_LN_2PI - mu


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a,x) = x^a e^{-x} / Gamma(a) * sum_{n>=0} x^n / (a (a+1) ... (a+n))
    budget = _iteration_budget(a)
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(budget):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPSILON:
            return total * math.exp(_log_prefactor(a, x))
    raise ConvergenceError(
        f"incomplete gamma series did not converge for a={a}, x={x}", budget
    )


def _upper_gamma_cont_fraction(a: float, x: float) -> float:
    # Q(a,x) = x^a e^{-x} / Gamma(a) * 1/(x+1-a- 1*(1-a)/(x+3-a- ...)),
    # evaluated with the modified Lentz algorithm.
    budget = _iteration_budget(a)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, budget + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPSILON:
            return math.exp(_log_prefactor(a, x)) * h
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge for a={a}, x={x}", budget
    )


def bisect_root(f, lo: float, hi: float, tol: float) -> float:
    """Root of f on [lo, hi] by bisection; f must change sign over the bracket.

    Returns r with |f(r)| <= tol or bracket width <= tol, whichever occurs
    first. Deterministic for identical inputs.

    Raises:
        ValueError: if lo >= hi or tol <= 0.
        BracketError: if f(lo) and f(hi) have the same sign.
        ConvergenceError: if the fixed iteration budget is exhausted.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bisect_root requires finite lo < hi, got [{lo!r}, {hi!r}]")
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"bisect_root requires tol > 0, got {tol!r}")
    lo = float(lo)
    hi = float(hi)
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change over [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    for _ in range(_BISECT_MAX_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Bracket is at floating-point resolution.
            return mid
        fmid = f(mid)
        if abs(fmid) <= tol or (hi - lo) <= tol:
            return mid
        if (fmid > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    raise ConvergenceError(
        f"bisection did not reach tol={tol} on [{lo}, {hi}]", _BISECT_MAX_ITERATIONS
    )
