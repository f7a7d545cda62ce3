import ast
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammainc as scipy_gammainc

from fragsurv import specfun
from fragsurv.specfun import ConvergenceError, reg_gamma_shape_step, reg_lower_inc_gamma

from oracles import erf_series, mp_reg_lower_inc_gamma, mp_temme_lower, temme_table_exact

# scipy's gammainc is the judge below a = 5e5. From there on it is wrong for |x - a| > 4.5 sqrt(a), outside its
# own asymptotic band (off by 1.2e-12 at a = 1e6, x = a - 5 sqrt(a)), and mpmath at 40 digits judges instead.
_SCIPY_GOOD_BELOW = 5e5
KERNEL_BITS = Path(__file__).parent / "data" / "kernel_bits.json"


def judge(a, x):
    return scipy_gammainc(a, x) if a < _SCIPY_GOOD_BELOW else mp_reg_lower_inc_gamma(a, x)


class TestRegLowerIncGamma:
    def test_zero_x_is_zero(self):
        assert reg_lower_inc_gamma(3.7, 0.0) == 0.0

    def test_shape_one_is_exponential_cdf(self):
        assert reg_lower_inc_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_half_shape_is_erf(self):
        assert reg_lower_inc_gamma(0.5, 0.5) == pytest.approx(erf_series(math.sqrt(0.5)), abs=1e-12)

    def test_shape_one_identity_on_grid(self):
        for i in range(1001):
            x = 50.0 * i / 1000
            assert abs(reg_lower_inc_gamma(1.0, x) - (1.0 - math.exp(-x))) <= 1e-12

    def test_half_shape_identity_on_grid(self):
        for i in range(501):
            x = 20.0 * i / 500
            assert abs(reg_lower_inc_gamma(0.5, x) - erf_series(math.sqrt(x))) <= 1e-10

    def test_recurrence_shift_in_shape(self):
        # P(a+1, x) = P(a, x) - x^a e^{-x} / Gamma(a+1)
        rng = random.Random(20240901)
        for _ in range(1000):
            a = rng.uniform(0.1, 60.0)
            x = rng.uniform(0.0, 80.0)
            lhs = reg_lower_inc_gamma(a + 1.0, x)
            term = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0)) if x > 0 else 0.0
            rhs = reg_lower_inc_gamma(a, x) - term
            assert abs(lhs - rhs) <= 1e-11

    def test_bounded_and_limits(self):
        for a in (0.5, 1.0, 5.0, 22.5, 100.0):
            assert reg_lower_inc_gamma(a, 0.0) == 0.0
            far = a + 40.0 * math.sqrt(a) + 40.0
            assert reg_lower_inc_gamma(a, far) > 1.0 - 1e-10
            for i in range(200):
                x = far * i / 199
                p = reg_lower_inc_gamma(a, x)
                assert 0.0 <= p <= 1.0

    def test_monotone_in_x(self):
        for a in (0.3, 1.0, 7.5, 40.0):
            prev = -1.0
            for i in range(400):
                x = 3.0 * a * i / 399
                p = reg_lower_inc_gamma(a, x)
                assert p >= prev
                prev = p

    def test_monotone_decreasing_in_shape(self):
        for x in (0.5, 2.0, 10.0, 30.0):
            prev = 2.0
            for j in range(60):
                a = 0.2 + j * 0.7
                p = reg_lower_inc_gamma(a, x)
                assert p <= prev
                prev = p

    def test_quadrature_oracle_small_arguments(self):
        rng = random.Random(7)
        for _ in range(25):
            a = rng.uniform(0.2, 8.0)
            x = rng.uniform(0.01, 12.0)
            density = lambda u: math.exp((a - 1.0) * math.log(u) - u - math.lgamma(a))
            integral, err = quad(density, 0.0, x, epsabs=1e-12, epsrel=1e-12, limit=200)
            assert err < 1e-9
            assert abs(reg_lower_inc_gamma(a, x) - integral) <= 1e-8

    @given(
        a=st.floats(min_value=0.1, max_value=500.0),
        x=st.floats(min_value=0.0, max_value=1000.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_always_a_probability(self, a, x):
        assert 0.0 <= reg_lower_inc_gamma(a, x) <= 1.0

    @pytest.mark.parametrize(
        "a,x", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.1), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                (2.0**53, 1.0), (1e308, 1e308), (5e-324, 0.5), (2.0**-1023, 0.5)]
    )
    def test_domain_errors(self, a, x):
        with pytest.raises(ValueError):
            reg_lower_inc_gamma(a, x)
        # the smallest normal shape is inside: there the series starts from 1 / a = 2**1022
        assert reg_lower_inc_gamma(specfun.MIN_SHAPE, 0.5) == 1.0

    @pytest.mark.parametrize("a", [0.1, 1.0, 500.0, 1e6])
    def test_infinite_x_is_the_limit_one(self, a):
        assert reg_lower_inc_gamma(a, math.inf) == 1.0

    @pytest.mark.parametrize(
        "budget,a,x,scheme",
        [
            # near the series/fraction split at large shape, 50 iterations is not enough
            (50, 500.0, 500.9, "series"),
            # far above the shape the continued fraction needs more than 1
            (1, 5.0, 30.0, "continued fraction"),
        ],
    )
    def test_reports_iteration_count_on_convergence_failure(self, monkeypatch, budget, a, x, scheme):
        monkeypatch.setattr(specfun, "_ITERATION_BUDGET", budget)
        with pytest.raises(ConvergenceError) as excinfo:
            reg_lower_inc_gamma(a, x)
        assert excinfo.value.iterations == budget
        assert str(excinfo.value) == (
            f"incomplete gamma {scheme} did not converge for a={a}, x={x} (after {budget} iterations)"
        )

    def test_half_the_iteration_budget_is_enough_on_a_seeded_sweep(self, monkeypatch):
        # below a = 1000 within 12 sqrt(a) of a, where the series and the continued fraction need the most terms,
        # and from a = 1000 on just outside Temme's band, where they take over again
        monkeypatch.setattr(specfun, "_ITERATION_BUDGET", 300)
        rng = random.Random(20261021)
        for _ in range(3000):
            a = math.exp(rng.uniform(math.log(0.1), math.log(1000.0)))
            if a < 1000.0:
                reg_lower_inc_gamma(a, max(0.0, a + rng.uniform(-12.0, 12.0) * math.sqrt(a)))
        for a in (999.0, 999.9):
            for x in (a - 1.0, a - 0.5, a, a + 0.5, a + 1.0, a + 2.0):
                reg_lower_inc_gamma(a, x)
        for _ in range(3000):
            a = min(math.exp(rng.uniform(math.log(1e3), math.log(2.0**53))), 2.0**53 - 2)
            side = rng.choice((-1.0, 1.0))
            reg_lower_inc_gamma(a, a * (1.0 + side * (0.3 + rng.uniform(1e-9, 0.01))))

    @pytest.mark.parametrize("a", [3500.5, 14000.5, 1e5, 1e6])
    @pytest.mark.parametrize("offset", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_large_shapes_match_scipy_near_the_mode(self, a, offset):
        # x = a + offset * sqrt(a), with a + 1 standing in for offset 0; all inside Temme's band
        x = a + 1.0 if offset == 0.0 else a + offset * math.sqrt(a)
        assert abs(reg_lower_inc_gamma(a, x) - judge(a, x)) <= 2.5e-16

    def test_small_shapes_match_scipy_on_a_seeded_sweep(self):
        rng = random.Random(20240917)
        for _ in range(4000):
            a = rng.uniform(0.1, 500.0)
            x = rng.uniform(0.0, 1000.0)
            assert abs(reg_lower_inc_gamma(a, x) - scipy_gammainc(a, x)) <= 5e-14, (a, x)

    @pytest.mark.parametrize("a", [0.5, 7.0, 19.5, 20.5, 129.0, 500.0])
    @pytest.mark.parametrize("side", [-1.0, 1.0])
    @pytest.mark.parametrize("scale", [1.0 - 1e-9, 1.0 + 1e-9])
    def test_both_sides_of_the_prefactor_switch(self, a, side, scale):
        # the log prefactor changes form at |x - a| = 0.4 a
        x = a + side * 0.4 * a * scale
        assert abs(reg_lower_inc_gamma(a, x) - scipy_gammainc(a, x)) <= 5e-14

    def test_temme_band_matches_mpmath_on_a_seeded_sweep(self):
        # a log-uniform in [1e3, 2e5]; x within 10 sqrt(a) of a, or anywhere in |x - a| <= 0.3 a
        rng = random.Random(20261020)
        for i in range(300):
            a = math.exp(rng.uniform(math.log(1e3), math.log(2e5)))
            x = a + rng.uniform(-10.0, 10.0) * math.sqrt(a) if i % 2 else a * (1.0 + rng.uniform(-0.3, 0.3))
            assert abs(reg_lower_inc_gamma(a, x) - mp_reg_lower_inc_gamma(a, x)) <= 1e-15, (a, x)

    @pytest.mark.parametrize("a", [1e6, 1e8, 1e12, 2.0**53 - 2])
    def test_huge_shapes_match_the_expansion_at_40_digits(self, a):
        # no series is affordable here; the 4 x 12 truncation is below 1e-30 from a = 1e6 on, so this
        # judges the rounding of eta, erfc and the Horner sums
        root = math.sqrt(a)
        for x in [a + z * root for z in (-9.0, -4.67, -1.0, 0.0, 0.5, 4.5, 9.0)] + [a * 0.71, a * 0.99999, a * 1.29]:
            assert abs(reg_lower_inc_gamma(a, x) - mp_temme_lower(a, x)) <= 2.5e-16, (a, x)

    def test_at_the_mode_of_the_largest_shape(self):
        # P(a, a) = 1/2 + 1/(3 sqrt(2 pi a)) + O(a^-3/2); the series would need about 1e9 terms here
        a = 2.0**53 - 2
        assert abs(reg_lower_inc_gamma(a, a) - (0.5 + 1.0 / (3.0 * math.sqrt(2.0 * math.pi * a)))) <= 1.2e-16

    @pytest.mark.parametrize("a", [1000.0, 14000.5, 1e14])
    def test_eta_is_zero_at_x_equal_to_a(self, a):
        assert abs(reg_lower_inc_gamma(a, a) - mp_temme_lower(a, a)) <= 1.2e-16

    def test_the_band_takes_no_series_and_no_continued_fraction(self, monkeypatch):
        def fail(a, x):
            raise AssertionError(f"O(sqrt(a)) scheme called at a={a}, x={x}")

        monkeypatch.setattr(specfun, "_lower_gamma_series", fail)
        monkeypatch.setattr(specfun, "_upper_gamma_cont_fraction", fail)
        for a in (1000.0, 14000.5, 1e14, 2.0**53 - 2):
            for x in (a * 0.71, a - math.sqrt(a), a, a + 1.0, a + 9.0 * math.sqrt(a), a * 1.29):
                assert 0.0 <= reg_lower_inc_gamma(a, x) <= 1.0
        # outside the band, and below a = 1000, the O(sqrt(a)) schemes stay
        for a, x in ((1000.0, 1300.5), (1000.0, 699.5), (999.5, 999.5)):
            with pytest.raises(AssertionError, match="O\\(sqrt\\(a\\)\\) scheme"):
                reg_lower_inc_gamma(a, x)

    @pytest.mark.parametrize("z", [-4.5, -1.0, 0.0, 1.0, 4.0, 9.0])
    def test_monotone_in_shape_across_the_switch_at_1000(self, z):
        x = 1000.0 + z * math.sqrt(1000.0)
        shapes = [1000.0 + j / 64 for j in range(-64, 65)]
        probs = [reg_lower_inc_gamma(a, x) for a in shapes]
        assert all(p >= q for p, q in zip(probs, probs[1:]))
        # strictly so, where 1 - P is not below the rounding of P
        assert all(p > q for p, q in zip(probs, probs[1:]) if p < 0.999)
        assert abs(probs[63] - judge(shapes[63], x)) <= 5e-14
        assert abs(probs[64] - judge(shapes[64], x)) <= 2.5e-16

    def test_coefficients_are_what_the_tool_prints(self):
        # tools/temme_coefficients.py derives them in Fraction arithmetic, with the standard library alone
        tool = Path(__file__).resolve().parent.parent / "tools" / "temme_coefficients.py"
        printed = subprocess.run([sys.executable, "-I", str(tool)], capture_output=True, text=True, check=True).stdout
        assert [[c.hex() for c in row] for row in specfun._TEMME] == [
            [c.hex() for c in row] for row in ast.literal_eval(printed)
        ]
        assert [[c.hex() for c in row] for row in specfun._TEMME] == [
            [float(c).hex() for c in row] for row in temme_table_exact()
        ]
        assert specfun._TEMME[0][:3] == (-1 / 3, 1 / 12, -2 / 135)

    def test_the_golden_file_is_what_the_tool_writes(self, tmp_path):
        # tools/kernel_golden.py samples each regime with a fixed seed; its output is the file replayed below
        tool = Path(__file__).resolve().parent.parent / "tools" / "kernel_golden.py"
        out = tmp_path / "kernel_bits.json"
        subprocess.run([sys.executable, "-I", str(tool), "--out", str(out)], check=True)
        assert out.read_bytes() == KERNEL_BITS.read_bytes()

    @pytest.mark.parametrize("regime", ["series", "continued fraction", "temme", "edges"])
    def test_every_golden_point_replays_bit_for_bit(self, regime):
        rows = json.loads(KERNEL_BITS.read_text())["kernel"][regime]
        assert len(rows) >= 10
        for a, x, p, step in rows:
            a, x = float.fromhex(a), float.fromhex(x)
            assert (reg_lower_inc_gamma(a, x).hex(), reg_gamma_shape_step(a, x).hex()) == (p, step), (a, x)

    def test_every_golden_error_message_replays(self):
        for a, x, kernel_message, step_message in json.loads(KERNEL_BITS.read_text())["errors"]:
            a, x = float.fromhex(a), float.fromhex(x)
            for function, message in ((reg_lower_inc_gamma, kernel_message), (reg_gamma_shape_step, step_message)):
                with pytest.raises(ValueError) as excinfo:
                    function(a, x)
                assert str(excinfo.value) == message

    @pytest.mark.parametrize("a,x,expected", [
        (True, 1, "0x1.43a54e4e98865p-1"), (3, 2, "0x1.4b15566a13b86p-2"), (1500, 1500.0, "0x1.01c20b31c8f78p-1"),
        (2.5, True, "0x1.34f37283a59abp-3"), (1.0, 0, "0x0.0p+0"),
    ])
    def test_integer_and_bool_arguments_are_read_as_floats(self, a, x, expected):
        assert reg_lower_inc_gamma(a, x).hex() == expected

    @pytest.mark.parametrize("a,x,message", [
        ("1", 1.0, "reg_lower_inc_gamma requires 2**-1022 <= a < 2**53, got '1'"),
        (None, 1.0, "reg_lower_inc_gamma requires 2**-1022 <= a < 2**53, got None"),
        (1.0, "1", "reg_lower_inc_gamma requires x >= 0, got '1'"),
        (-1, "1", "reg_lower_inc_gamma requires 2**-1022 <= a < 2**53, got -1"),
        (2**53, 1.0, "reg_lower_inc_gamma requires 2**-1022 <= a < 2**53, got 9007199254740992"),
        (1.0, -1, "reg_lower_inc_gamma requires x >= 0, got -1"),
    ])
    def test_non_float_arguments_are_value_errors(self, a, x, message):
        with pytest.raises(ValueError) as excinfo:
            reg_lower_inc_gamma(a, x)
        assert str(excinfo.value) == message

    def test_tiny_x_far_below_a_moderate_shape(self):
        # (x - a) / a rounds to -1 here, outside the domain of log1p
        p = reg_lower_inc_gamma(129.0, 1e-14)
        assert 0.0 <= p <= 1e-300
        assert abs(p - scipy_gammainc(129.0, 1e-14)) <= 5e-14


class TestRegGammaShapeStep:
    """P(a, x) - P(a + 1, x) = x^a e^{-x} / Gamma(a + 1)."""

    def test_matches_scipy_difference_on_a_seeded_sweep(self):
        rng = random.Random(20261018)
        for _ in range(4000):
            a = rng.uniform(0.1, 500.0)
            x = rng.uniform(0.0, 1000.0)
            expected = scipy_gammainc(a, x) - scipy_gammainc(a + 1.0, x)
            assert abs(reg_gamma_shape_step(a, x) - expected) <= 5e-15, (a, x)

    @pytest.mark.parametrize("a", [1e3, 1e5, 1e6])
    @pytest.mark.parametrize("offset", [-5.0, -1.0, 0.0, 1.0, 5.0])
    def test_large_shapes_match_scipy_near_the_mode(self, a, offset):
        # at a = 1e6 and offset -5 scipy's step is off by 8.5e-15: mpmath judges from 5e5 on
        x = a + offset * math.sqrt(a)
        expected = judge(a, x) - judge(a + 1.0, x)
        assert abs(reg_gamma_shape_step(a, x) - expected) <= 3e-16

    @pytest.mark.parametrize("a", [0.1, 1.0, 500.0, 1e6])
    def test_zero_at_both_ends_of_x(self, a):
        assert reg_gamma_shape_step(a, 0.0) == 0.0
        assert reg_gamma_shape_step(a, math.inf) == 0.0

    def test_each_step_is_formed_afresh_far_above_the_shape(self):
        # a running product of x / (a + k) from a = 5.5 would stay at 0
        assert reg_gamma_shape_step(5.5, 2500.0) == 0.0
        assert reg_gamma_shape_step(2490.5, 2500.0) > 1e-3

    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (1.0, -0.1), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                     (2.0**53, 1.0), (1e308, 1e308), (5e-324, 1.0), (2.0**-1023, 1.0)])
    def test_domain_errors(self, a, x):
        with pytest.raises(ValueError):
            reg_gamma_shape_step(a, x)
        # the smallest normal shape is inside: its prefactor, about e^-709, is divided by a = 2**-1022
        a = specfun.MIN_SHAPE
        assert abs(reg_gamma_shape_step(a, 1.0) - math.exp(a * math.log(1.0) - 1.0 - math.lgamma(a + 1.0))) <= 3e-14

    def test_three_hundred_steps_reach_the_kernel(self):
        rng = random.Random(20261019)
        starts = [(rng.uniform(0.1, 500.0), rng.uniform(0.0, 1000.0)) for _ in range(100)]
        starts += [(a, a + z * math.sqrt(a)) for a in (1e3, 1e5, 1e6) for z in (-3.0, 0.0, 3.0, 9.0)]
        for a, x in starts:
            p = reg_lower_inc_gamma(a, x)
            for k in range(300):
                p -= reg_gamma_shape_step(a + k, x)
            assert abs(p - reg_lower_inc_gamma(a + 300, x)) <= 1e-12, (a, x)
