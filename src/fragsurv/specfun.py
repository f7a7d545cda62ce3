"""Scalar special functions and root finding used by the survival machinery.

Self-contained double-precision kernel on the standard library's
`math.lgamma` and `math.erfc`: the regularized lower incomplete gamma
function P(a, x) (Temme's uniform expansion at large shapes near x = a, as
DLMF 8.12; elsewhere the series / continued fraction split, as in Numerical
Recipes ch. 6, with the prefactor formed as in Cephes igam.c), its shape
step P(a, x) - P(a + 1, x), and bracketed bisection. No external numerical
dependencies.
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
# Terms allowed to the series and to the continued fraction. Near x = a they
# need O(sqrt(a)) terms, at most 249 (a = 999): from a = 1000 on Temme's
# expansion takes that band. Outside it they need at most 88 (series) and 11
# (continued fraction) there. A seeded test passes with 300.
_ITERATION_BUDGET = 610

_BISECT_MAX_ITERATIONS = 256

_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# The unit roundoff, 2**-53.
_MACHEP = sys.float_info.epsilon / 2

# From here on a + 1 == a: a shape step is lost and the series cannot advance
# (above 2.56e305, lgamma(a) overflows too).
MAX_SHAPE = 2.0**53
# The smallest normal double, 2**-1022. Below it the series' first term 1 / a
# overflows, and the prefactor x^a e^{-x} / Gamma(a) underflows before the
# shape step can divide it by a.
MIN_SHAPE = sys.float_info.min

# From this shape on, and for |x - a| <= _TEMME_BAND * a, P is Temme's uniform
# expansion (DLMF 8.12.8): O(1) work where the series and the continued
# fraction need O(sqrt(a)) terms near x = a.
_TEMME_MIN_SHAPE = 1000.0
_TEMME_BAND = 0.3
# Row k holds the Taylor coefficients in eta of c_k(eta) (DLMF 8.12.12), the
# doubles nearest the exact rationals `tools/temme_coefficients.py` prints.
_TEMME = (
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815, 0.0011574074074074073,
     0.0003527336860670194, -0.0001787551440329218, 3.919263178522438e-05, -2.185448510679992e-06,
     -1.85406221071516e-06, 8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09),
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454, -0.0009902263374485596,
     0.00020576131687242798, -4.018775720164609e-07, -1.8098550334489977e-05, 7.64916091608111e-06,
     -1.6120900894563446e-06, 4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08),
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049, 2.0093878600823047e-06,
     -0.0001073665322636516, 5.2923448829120125e-05, -1.2760635188618728e-05, 3.423578734096138e-08,
     1.3721957309062934e-06, -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10),
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557, 0.00026772063206283885,
     -7.561801671883977e-05, -2.396505113867297e-07, 1.1082654115347302e-05, -5.6749528269915965e-06,
     1.4230900732435883e-06, -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08),
)


def reg_lower_inc_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x) = gamma(a, x) / Gamma(a).

    Equivalently the CDF at x of a Gamma(shape=a, rate=1) random variable.
    Temme's uniform expansion, in O(1) work, for a >= 1000 and
    |x - a| <= 0.3 a; otherwise the power series for x < a + 1 and the
    modified Lentz continued fraction above, with the x^a e^{-x} / Gamma(a)
    prefactor assembled in log space so large shapes do not overflow, and
    near x = a without cancellation. Absolute error <= 5e-14 for a in
    [0.1, 500], x in [0, 1000], and <= 2.5e-16 (within 1e-15 on a seeded
    sweep) in the expansion's band, up to a = 2**53 - 2 (README, Numerics).
    At x = +inf it returns the limit 1.

    Raises:
        ValueError: unless MIN_SHAPE (2**-1022) <= a < MAX_SHAPE (2**53) and x >= 0.
        ConvergenceError: if the scheme does not converge within
            _ITERATION_BUDGET iterations.
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
    if a >= _TEMME_MIN_SHAPE and abs(x - a) <= _TEMME_BAND * a:
        p = _temme_lower(a, x)
    elif x < a + 1.0:
        p = _lower_gamma_series(a, x)
    else:
        p = 1.0 - _upper_gamma_cont_fraction(a, x)
    # Guard against sub-ulp overshoot at the boundaries.
    return min(1.0, max(0.0, p))


def reg_gamma_shape_step(a: float, x: float) -> float:
    """P(a, x) - P(a + 1, x) = x^a e^{-x} / Gamma(a + 1) (DLMF 8.8.5), 0 at x = 0 and +inf.
    Formed afresh from the kernel's prefactor. `crossing_outcome` carries it as a running product,
    which underflows for x >> a, and calls this while that is below 2**-900, at shapes below 2**53.
    Raises ValueError unless MIN_SHAPE (2**-1022) <= a < MAX_SHAPE (2**53) and x >= 0."""
    if not (isinstance(a, (int, float)) and MIN_SHAPE <= a < MAX_SHAPE and x >= 0):
        raise ValueError(f"reg_gamma_shape_step requires 2**-1022 <= a < 2**53 and x >= 0, got {a!r}, {x!r}")
    if x == 0.0 or x == math.inf:
        return 0.0
    return math.exp(_log_prefactor(a, x)) / a


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


def _log1pmx(s: float) -> float:
    # log(1 + s) - s by its Taylor series, as Cephes does for |s| < 1/2: the
    # direct form loses about log10(1 / |s|) digits to cancellation. 0 at s = 0.
    power = s
    total = 0.0
    n = 2
    while True:
        power *= -s
        term = power / n
        total += term
        if abs(term) <= abs(total) * _MACHEP:
            return total
        n += 1


def _temme_lower(a: float, x: float) -> float:
    # P = erfc(-eta sqrt(a / 2)) / 2 - e^{-a eta^2 / 2} / sqrt(2 pi a) * sum_k c_k(eta) / a^k,
    # with -eta^2 / 2 = log1pmx(s), s = (x - a) / a, and eta of the sign of s (DLMF 8.12.8).
    log1pmx = _log1pmx((x - a) / a)
    eta = math.copysign(math.sqrt(-2.0 * log1pmx), x - a)
    inv_a = 1.0 / a
    total = 0.0
    for row in reversed(_TEMME):
        c = 0.0
        for d in reversed(row):
            c = c * eta + d
        total = total * inv_a + c
    return 0.5 * math.erfc(-eta * math.sqrt(0.5 * a)) - math.exp(a * log1pmx) / math.sqrt(math.tau * a) * total


def _lower_gamma_series(a: float, x: float) -> float:
    # P(a,x) = x^a e^{-x} / Gamma(a) * sum_{n>=0} x^n / (a (a+1) ... (a+n))
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_ITERATION_BUDGET):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPSILON:
            return total * math.exp(_log_prefactor(a, x))
    raise ConvergenceError(
        f"incomplete gamma series did not converge for a={a}, x={x}", _ITERATION_BUDGET
    )


def _upper_gamma_cont_fraction(a: float, x: float) -> float:
    # Q(a,x) = x^a e^{-x} / Gamma(a) * 1/(x+1-a- 1*(1-a)/(x+3-a- ...)),
    # evaluated with the modified Lentz algorithm.
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITERATION_BUDGET + 1):
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
        f"incomplete gamma continued fraction did not converge for a={a}, x={x}", _ITERATION_BUDGET
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
