"""Scalar special functions and root finding used by the survival machinery.

Self-contained double-precision kernel: log-gamma (Lanczos), the regularized
lower incomplete gamma function P(a, x) (series / continued fraction split,
as in Numerical Recipes ch. 6), and bracketed bisection. No external
numerical dependencies.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "ConvergenceError",
    "BracketError",
    "log_gamma",
    "reg_lower_inc_gamma",
    "bisect_root",
]


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to converge within its iteration budget."""

    def __init__(self, message: str, iterations: int):
        super().__init__(f"{message} (after {iterations} iterations)")
        self.iterations = iterations


class BracketError(ValueError):
    """A root bracket is invalid: the function does not change sign over it."""


# Lanczos approximation with g = 607/128, 15 coefficients (Lanczos 1964 as
# rearranged by Godfrey; also Numerical Recipes 3rd ed., gammln). Relative
# error below 1e-14 on the positive real axis.
_LANCZOS_G_PLUS_HALF = 5.24218750000000000
_LANCZOS_C0 = 0.999999999999997092
_LANCZOS_COEFFS = (
    57.1562356658629235,
    -59.5979603554754912,
    14.1360979747417471,
    -0.491913816097620199,
    0.339946499848118887e-4,
    0.465236289270485756e-4,
    -0.983744753048795646e-4,
    0.158088703224912494e-3,
    -0.210264441724104883e-3,
    0.217439618115212643e-3,
    -0.164318106536763890e-3,
    0.844182239838527433e-4,
    -0.261908384015814087e-4,
    0.368991826595316234e-5,
)
_SQRT_2PI = 2.5066282746310005

# Smallest representable scale for the modified Lentz algorithm.
_FPMIN = sys.float_info.min / sys.float_info.epsilon

# Relative termination tolerance of the incomplete-gamma series and
# continued fraction.
_EPSILON = 1e-14

_BISECT_MAX_ITERATIONS = 256


def log_gamma(a: float) -> float:
    """Natural log of the gamma function for a > 0.

    Lanczos approximation with fixed published coefficients (g = 607/128);
    relative error <= 1e-13 over [1e-3, 1e6].

    Raises:
        ValueError: if a is not a finite positive number.
    """
    if not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0):
        raise ValueError(f"log_gamma requires finite a > 0, got {a!r}")
    a = float(a)
    tmp = a + _LANCZOS_G_PLUS_HALF
    tmp = (a + 0.5) * math.log(tmp) - tmp
    series = _LANCZOS_C0
    y = a
    for c in _LANCZOS_COEFFS:
        y += 1.0
        series += c / y
    return tmp + math.log(_SQRT_2PI * series / a)


def reg_lower_inc_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x) = gamma(a, x) / Gamma(a).

    Equivalently the CDF at x of a Gamma(shape=a, rate=1) random variable.
    Power series for x < a + 1, modified Lentz continued fraction otherwise;
    the x^a e^{-x} / Gamma(a) prefactor is assembled in log space so large
    shapes do not overflow. Absolute error <= 1e-12 for a in [0.1, 500],
    x in [0, 1000]; at larger shapes cancellation in the log prefactor
    dominates, about 1e-10 at a = 1e5 for x within a few sqrt(a) of a.

    Raises:
        ValueError: if a <= 0, x < 0, or either is not finite.
        ConvergenceError: if the scheme does not converge within
            _iteration_budget(a) iterations.
    """
    if not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0):
        raise ValueError(f"reg_lower_inc_gamma requires finite a > 0, got {a!r}")
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0):
        raise ValueError(f"reg_lower_inc_gamma requires finite x >= 0, got {x!r}")
    a = float(a)
    x = float(x)
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        p = _lower_gamma_series(a, x)
    else:
        p = 1.0 - _upper_gamma_cont_fraction(a, x)
    # Guard against sub-ulp overshoot at the boundaries.
    return min(1.0, max(0.0, p))


def _iteration_budget(a: float) -> int:
    # Near x = a both schemes need O(sqrt(a)) terms. Measured up to a = 1e6:
    # at most 9.2 sqrt(a) for the series (a >= 50) and 4 sqrt(a) for the
    # continued fraction; the constant covers small shapes.
    return 300 + 10 * math.isqrt(int(a))


def _log_prefactor(a: float, x: float) -> float:
    # log of x^a e^{-x} / Gamma(a)
    return a * math.log(x) - x - log_gamma(a)


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
