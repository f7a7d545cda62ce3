#!/usr/bin/env python3
"""Coefficients of Temme's uniform expansion of P(a, x), from exact rational arithmetic.

    python3 tools/temme_coefficients.py

Prints the table `fragsurv.specfun._TEMME` holds, as a Python literal: row k
lists the Taylor coefficients d[k][0], d[k][1], ... of c_k(eta) in DLMF
8.12.12, each the double nearest its exact rational. tests/test_specfun.py
checks that the literals in `specfun` equal this output bit for bit.

The derivation is the one of scipy's `special/_precompute/gammainc_asy.py`,
done here in `fractions.Fraction` with the standard library only:
- eta(s) = sign(s) sqrt(2 (s - log(1 + s))) as a power series in s = x/a - 1
  (DLMF 8.12.1), and its inverse s(eta) = sum alpha[n] eta^n by Lagrange
  inversion (DLMF 8.12.13);
- d[0][0] = -1/3 and d[0][n] = (n + 2) alpha[n + 2];
- d[k][n] = (-1)^k g[k] d[0][n] + (n + 2) d[k - 1][n + 2] (DLMF 8.12.12),
  with g[k] the coefficients of Gamma*(a) ~ sum g[k] / a^k (DLMF 5.11.3),
  here from the exponential of Stirling's series.
"""

from __future__ import annotations

import sys
from fractions import Fraction

ROWS = 4
COLUMNS = 12


def _bernoulli(count: int) -> list[Fraction]:
    """B_0 .. B_{count - 1}, with B_1 = -1/2."""
    b: list[Fraction] = []
    for m in range(count):
        total = Fraction(0)
        binom = 1  # C(m + 1, j)
        for j in range(m):
            total += binom * b[j]
            binom = binom * (m + 1 - j) // (j + 1)
        b.append(-total / (m + 1) if m else Fraction(1))
    return b


def _multiply(p: list[Fraction], q: list[Fraction], n: int) -> list[Fraction]:
    """The first n coefficients of the product of two power series."""
    return [sum((p[i] * q[k - i] for i in range(k + 1) if i < len(p) and k - i < len(q)), Fraction(0))
            for k in range(n)]


def _reciprocal(p: list[Fraction], n: int) -> list[Fraction]:
    """The first n coefficients of 1 / p, for p[0] != 0."""
    r = [1 / p[0]]
    for k in range(1, n):
        r.append(-sum((p[i] * r[k - i] for i in range(1, min(k, len(p) - 1) + 1)), Fraction(0)) / p[0])
    return r


def stirling_gamma_star(count: int) -> list[Fraction]:
    """g[0] .. g[count - 1] of Gamma*(a) = Gamma(a) / (sqrt(2 pi / a) (a / e)^a) ~ sum g[k] / a^k."""
    # log Gamma*(a) ~ sum_m B_2m / (2m (2m - 1) a^(2m - 1)); exponentiate with n E_n = sum_j j s_j E_{n-j}.
    b = _bernoulli(count + 1)
    s = [Fraction(0)] * count
    for j in range(1, count, 2):
        s[j] = b[j + 1] / ((j + 1) * j)
    e = [Fraction(1)]
    for n in range(1, count):
        e.append(sum((j * s[j] * e[n - j] for j in range(1, n + 1)), Fraction(0)) / n)
    return e


def eta_inverse(count: int) -> list[Fraction]:
    """alpha[0] .. alpha[count - 1] of s(eta) = sum alpha[n] eta^n, the inverse of eta(s)."""
    # eta^2 / s^2 = 2 (s - log(1 + s)) / s^2 = sum_m 2 (-1)^m s^m / (m + 2); take its square root r,
    # so eta = s r(s), and invert: alpha[k] = [s^(k - 1)] (1 / r)^k / k (Lagrange).
    u = [Fraction(2 * (-1) ** m, m + 2) for m in range(count)]
    r = [Fraction(1)]
    for n in range(1, count):
        r.append((u[n] - sum((r[j] * r[n - j] for j in range(1, n)), Fraction(0))) / 2)
    h = _reciprocal(r, count)
    alpha = [Fraction(0)]
    power = [Fraction(1)]
    for k in range(1, count):
        power = _multiply(power, h, count)
        alpha.append(power[k - 1] / k)
    return alpha


def temme_table() -> list[list[Fraction]]:
    """d[k][n] for k < ROWS and n < COLUMNS, exact."""
    # row k needs row k - 1 two columns further
    m = COLUMNS + 2 * ROWS
    alpha = eta_inverse(m + 2)
    g = stirling_gamma_star(ROWS)
    d = [[Fraction(-1, 3)] + [(n + 2) * alpha[n + 2] for n in range(1, m)]]
    for k in range(1, ROWS):
        d.append([(-1) ** k * g[k] * d[0][n] + (n + 2) * d[k - 1][n + 2] for n in range(m - 2 * k)])
    return [row[:COLUMNS] for row in d]


def render(table: list[list[Fraction]]) -> str:
    """The table as the Python literal `specfun._TEMME` is written in, four coefficients a line."""
    lines = ["("]
    for row in table:
        cells = [repr(float(c)) for c in row]
        chunks = [", ".join(cells[i:i + 4]) for i in range(0, len(cells), 4)]
        lines.append("    (" + ",\n     ".join(chunks) + "),")
    lines.append(")")
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.stdout.write(render(temme_table()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
