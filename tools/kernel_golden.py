#!/usr/bin/env python3
"""Bit pins of the incomplete-gamma kernel and of two `fi` trajectories.

    python3 tools/kernel_golden.py [--out tests/data/kernel_bits.json]

Evaluates `fragsurv.specfun.reg_lower_inc_gamma` and `reg_gamma_shape_step`
of this tree (src/ next to this file) on a seeded sample of each regime of the
kernel, and `fragsurv.fragility.fragility_index` on two cohort-size searches,
and writes every double as `float.hex`. tests/test_specfun.py and
tests/test_fragility.py replay the file bit for bit, so a rewrite of the
kernel that moves one bit of one value fails tier-1.

The sample:
- the power series (x < a + 1 outside Temme's band), shapes from 1e-1 to
  2**53 - 2 and the smallest normal shape;
- the continued fraction (x >= a + 1 outside the band), likewise;
- Temme's band (a >= 1000, |x - a| <= 0.3 a), shapes from 1e3 to 2**53 - 2:
  x = a, x = a -/+ 0.3 a and their neighbours, points within 10 sqrt(a) of a,
  and points across the band;
- x = 0 and x = +inf, and invalid arguments with their error messages.
Each point is filed under the regime the kernel's own rule picks for it.
The two searches start at shapes of about 3.5e3 and 1.4e4 from a saturated
baseline and cross p0 = 1/2 after about 560 and 1000 flips.

Standard library only, like tools/temme_coefficients.py.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fragsurv.fragility import fragility_index  # noqa: E402
from fragsurv.specfun import (  # noqa: E402
    MAX_SHAPE, MIN_SHAPE, _TEMME_BAND, _TEMME_MIN_SHAPE, reg_gamma_shape_step, reg_lower_inc_gamma,
)
from fragsurv.survival import LN2, AnalysisConfig, GammaParams, SurvivalDataset  # noqa: E402

SEED = 20261020
TOP_SHAPE = MAX_SHAPE - 2.0
# (events, censored, z): the baseline sits z sqrt(a) below x, under a prior Gamma(0.5, 0.5).
SEARCHES = ((3_500, 800, 9.5), (14_000, 1_500, 8.5))


def regime(a: float, x: float) -> str:
    """The branch `reg_lower_inc_gamma` takes at (a, x), by its own rule."""
    if a >= _TEMME_MIN_SHAPE and abs(x - a) <= _TEMME_BAND * a:
        return "temme"
    return "series" if x < a + 1.0 else "continued fraction"


def sample(rng: random.Random) -> list[tuple[float, float]]:
    points = []
    log_top = math.log10(TOP_SHAPE)
    for _ in range(60):  # below the band's shapes: series and continued fraction
        a = 10 ** rng.uniform(-1, 3)
        points.append((a, a * rng.uniform(0.0, 1.0)))
        points.append((a, a + 1.0 + a * rng.uniform(0.0, 5.0)))
    for _ in range(20):  # at the band's shapes, outside it
        a = 10 ** rng.uniform(3, log_top)
        points.append((a, a * rng.uniform(0.01, 0.69)))
        points.append((a, a * rng.uniform(1.31, 3.0)))
    for _ in range(60):  # in the band
        a = 10 ** rng.uniform(3, log_top)
        points.append((a, a + rng.uniform(-10.0, 10.0) * math.sqrt(a)))
        points.append((a, a * (1.0 + rng.uniform(-_TEMME_BAND, _TEMME_BAND))))
    for a in (1000.0, 1000.5, 3500.5, 1e4, 14000.5, 1e6, 1e9, 1e12, 1e15, TOP_SHAPE):
        for x in (a, a - _TEMME_BAND * a, a + _TEMME_BAND * a):
            points += [(a, x), (a, math.nextafter(x, 0.0)), (a, math.nextafter(x, math.inf))]
        points += [(a, a + z * math.sqrt(a)) for z in (-10.0, -1.0, 1e-9, 1.0, 10.0)]
    points += [(MIN_SHAPE, 0.5), (MIN_SHAPE, 2.0), (0.5, 1e-300), (129.0, 1e-14)]
    return points


def errors() -> list[list]:
    """[a, x, reg_lower_inc_gamma's message, reg_gamma_shape_step's message] at invalid arguments."""
    cases = [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.inf, 1.0), (-math.inf, 1.0),
             (0.0, 1.0), (-0.0, 1.0), (-2.0, 1.0), (1.0, -0.1), (1.0, -math.inf), (MAX_SHAPE, 1.0),
             (5e-324, 0.5), (2.0**-1023, 0.5), (1e308, 1e308), (math.inf, -1.0)]
    rows = []
    for a, x in cases:
        row = [a.hex(), x.hex()]
        for function in (reg_lower_inc_gamma, reg_gamma_shape_step):
            try:
                function(a, x)
            except ValueError as exc:
                row.append(str(exc))
            else:
                raise AssertionError(f"{function.__name__}({a!r}, {x!r}) raised nothing")
        rows.append(row)
    return rows


def searches() -> list[dict]:
    found = []
    for events, censored, z in SEARCHES:
        data = SurvivalDataset([1.0] * (events + censored), [1] * events + [0] * censored)
        prior = GammaParams(0.5, 0.5)
        a = prior.shape + events
        x = a + z * math.sqrt(a)
        config = AnalysisConfig(t0=(prior.rate + data.total_time) * LN2 / x, p0=0.5, prior=prior)
        result = fragility_index(data, config)
        found.append({"events": events, "censored": censored, "t0": config.t0.hex(), "p0": config.p0.hex(),
                      "fi": result.fi, "trajectory": [p.hex() for _, p in result.trajectory]})
    return found


def golden() -> dict:
    kernel: dict[str, list] = {"series": [], "continued fraction": [], "temme": [], "edges": []}
    for a, x in sample(random.Random(SEED)):
        row = [a.hex(), x.hex(), reg_lower_inc_gamma(a, x).hex(), reg_gamma_shape_step(a, x).hex()]
        kernel[regime(a, x)].append(row)
    for a in (MIN_SHAPE, 0.5, 999.5, 1e4, TOP_SHAPE):
        for x in (0.0, math.inf):
            kernel["edges"].append([a.hex(), x.hex(), reg_lower_inc_gamma(a, x).hex(),
                                    reg_gamma_shape_step(a, x).hex()])
    return {"about": "[a, x, P(a, x), P(a, x) - P(a + 1, x)] as float.hex, by kernel regime; "
                     "written by tools/kernel_golden.py",
            "kernel": kernel, "errors": errors(), "fragility_index": searches()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "tests" / "data" / "kernel_bits.json"))
    args = parser.parse_args(argv)
    Path(args.out).write_text(json.dumps(golden(), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
