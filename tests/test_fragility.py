import math
import random
import re
from fractions import Fraction
from statistics import NormalDist

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc as scipy_gammainc
from scipy.special import gammaincinv as scipy_gammaincinv

from fragsurv import fragility
from fragsurv.commands.reproduce import CaseStudy
from fragsurv.fragility import (
    FragilityResult,
    GridCell,
    NotFragileApplicableError,
    SensitivityGrid,
    calibrate,
    crossing_outcome,
    fragility_index,
    fragility_quotient,
    sensitivity_scan,
)
from fragsurv.km import KMCurve
from fragsurv.sim import SimSpec
from fragsurv.specfun import BracketError, reg_gamma_shape_step, reg_lower_inc_gamma
from fragsurv.survival import (
    LN2,
    AnalysisConfig,
    GammaParams,
    SurvivalDataset,
    posterior_prob_median_exceeds,
    posterior_update,
)

from oracles import erf_series, exhaustive_fi, random_dataset


def ds(*pairs):
    return SurvivalDataset(*zip(*pairs))


def applicable_config(data, p0=0.7, prior=GammaParams(0.5, 0.5)):
    """t0 low enough that the baseline probability clears p0 on most datasets."""
    posterior = posterior_update(prior, data)
    median_estimate = LN2 * posterior.rate / posterior.shape
    return AnalysisConfig(t0=max(median_estimate * 0.45, 1e-6), p0=p0, prior=prior)


class TestFragilityIndex:
    def test_not_applicable_when_baseline_fails(self):
        data = ds((0.5, 1), (0.4, 1), (0.8, 1), (0.2, 0))
        config = AnalysisConfig(t0=50.0)
        with pytest.raises(NotFragileApplicableError) as excinfo:
            fragility_index(data, config)
        assert excinfo.value.p0 == 0.7
        assert excinfo.value.initial_prob <= 0.7

    def test_no_censored_observations_is_not_attained(self):
        data = ds((10.0, 1), (12.0, 1), (14.0, 1))
        config = applicable_config(data)
        result = fragility_index(data, config)
        assert not result.attained
        assert result.fi is None
        assert result.fq is None
        assert len(result.trajectory) == 1
        assert result.fi_text == "> 0"

    def test_matches_exhaustive_scan_on_random_datasets(self):
        rng = random.Random(20240612)
        checked_attained = 0
        for _ in range(120):
            data = random_dataset(rng, rng.randint(2, 60), rng.uniform(0.0, 0.8))
            config = applicable_config(data, p0=rng.uniform(0.55, 0.9))
            expected = exhaustive_fi(data, config)
            if expected == "not_applicable":
                with pytest.raises(NotFragileApplicableError):
                    fragility_index(data, config)
                continue
            result = fragility_index(data, config)
            if expected == "not_attained":
                assert result.fi is None
            else:
                assert result.fi == expected
                checked_attained += 1
        assert checked_attained >= 30

    def test_trajectory_strictly_decreasing(self):
        rng = random.Random(5150)
        for _ in range(30):
            data = random_dataset(rng, rng.randint(3, 40), rng.uniform(0.2, 0.8))
            config = applicable_config(data)
            try:
                result = fragility_index(data, config)
            except NotFragileApplicableError:
                continue
            probs = [p for _, p in result.trajectory]
            assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_crossing_is_strict_and_boundary_does_not_stop(self):
        # engineer a dataset whose k=1 probability equals p0 almost exactly:
        # equality must not stop the search
        data = ds((2.0, 0), (3.0, 0), (10.0, 1), (11.0, 1))
        posterior = posterior_update(GammaParams(0.5, 0.5), data)
        config0 = AnalysisConfig(t0=5.0, p0=0.5)
        p1 = posterior_prob_median_exceeds(GammaParams(posterior.shape + 1, posterior.rate), config0.t0)
        result = fragility_index(data, AnalysisConfig(t0=5.0, p0=p1))
        assert result.fi is not None and result.fi >= 2

    def test_flip_keeps_time_and_posterior_rate(self):
        data = ds((1.0, 0), (2.0, 0), (9.0, 1))
        config = applicable_config(data)
        result = fragility_index(data, config)
        prior = config.prior
        x0 = (prior.rate + data.total_time) * LN2 / config.t0
        for k, prob in result.trajectory:
            expected = scipy_gammainc(prior.shape + data.num_events + k, x0)
            assert prob == pytest.approx(expected, abs=1e-12)

    def test_flip_order_cannot_change_the_result(self):
        rng = random.Random(777)
        for _ in range(100):
            data = random_dataset(rng, rng.randint(4, 30), rng.uniform(0.3, 0.8))
            config = applicable_config(data)
            try:
                result = fragility_index(data, config)
            except NotFragileApplicableError:
                continue
            censored = [i for i, e in enumerate(data.events) if e == 0]
            rng.shuffle(censored)
            events = bytearray(data.events)
            prob_by_k = dict(result.trajectory)
            for k, idx in enumerate(censored, start=1):
                events[idx] = 1
                flipped = SurvivalDataset(data.times, events)
                posterior = posterior_update(config.prior, flipped)
                prob = posterior_prob_median_exceeds(posterior, config.t0)
                if k in prob_by_k:
                    assert prob == prob_by_k[k]  # bit-identical: rate untouched by flips

    def test_result_echoes_config_and_quotient(self):
        data = ds((1.0, 0), (2.0, 0), (3.0, 0), (9.0, 1), (9.5, 1))
        config = applicable_config(data)
        result = fragility_index(data, config)
        assert result.config is config
        if result.attained:
            assert result.fq == Fraction(result.fi, data.n)
            assert 0 < result.fq <= 1


def counts_dataset(events, censored):
    return SurvivalDataset([1.0] * (events + censored), [1] * events + [0] * censored)


def config_at(data, x, p0, prior_shape=0.5):
    """Config whose posterior sits at P(shape, x) under a prior of this shape and rate 0.5."""
    prior = GammaParams(prior_shape, 0.5)
    rate = posterior_update(prior, data).rate
    return AnalysisConfig(t0=rate * LN2 / x, p0=p0, prior=prior)


def kernel_trajectory(data, config):
    x = posterior_update(config.prior, data).rate * LN2 / config.t0
    return [reg_lower_inc_gamma(config.prior.shape + (data.num_events + k), x) for k in range(data.num_censored + 1)]


def crossing_matches(data, config):
    """crossing_outcome on the statistics against fragility_index on the data."""
    outcome = crossing_outcome(data.num_events, data.total_time, data.num_censored, config)
    try:
        expected = fragility_index(data, config)
    except NotFragileApplicableError as exc:
        assert outcome == ("not_applicable", exc.initial_prob, None, None)
        return "not_applicable"
    except ValueError as exc:
        assert outcome == ("error", None, None, str(exc))
        return "error"
    assert outcome == ("ok", expected.initial_prob, expected.fi, None)
    return expected.fi


def count_kernel_calls(monkeypatch):
    """The shapes of the kernel calls that fragility makes from here on, in call order."""
    shapes = []
    kernel = fragility.reg_lower_inc_gamma

    def counting(a, x):
        shapes.append(a)
        return kernel(a, x)

    monkeypatch.setattr(fragility, "reg_lower_inc_gamma", counting)
    return shapes


def definition_corpus(rng):
    """Seeded (regime, prior_shape, (events, censored), x, p0) in each regime of the crossing search."""
    for _ in range(200):
        events, censored = rng.randint(0, 300), rng.randint(1, 400)
        a = 0.5 + events
        p0 = rng.choice([rng.uniform(0.05, 0.95), 1 - 10 ** -rng.uniform(1, 6)])
        z = NormalDist().inv_cdf(p0) + rng.uniform(0.1, 2.0)
        yield "near the mode", 0.5, (events, censored), max(a + z * math.sqrt(a), 0.5), p0
    for _ in range(10):
        # P(0) rounds to 1.0 and keeps that value over the first flips
        events = rng.randint(0, 200)
        a = 0.5 + events
        yield "saturated", 0.5, (events, 1_500), a + rng.uniform(12, 40) * math.sqrt(a) + 60, rng.uniform(0.3, 0.999999)
    for _ in range(10):
        # the step at the starting shape is far below 2**-900
        events = rng.randint(0, 5)
        x = rng.uniform(900, 2_500)
        yield "x >> a", 0.5, (events, int(x) + 200), x, rng.uniform(0.3, 0.999999)
    for _ in range(10):
        events = rng.randint(100_000, 150_000)
        a = 0.5 + events
        x = a + rng.uniform(0.3, 1.5) * math.sqrt(a)
        yield "a >= 1e5", 0.5, (events, 300), x, reg_lower_inc_gamma(a, x) - rng.uniform(0.005, 0.05)
    for _ in range(60):
        # a flip's shape reaches 2**53 before, at or after the crossing, or at P(0); x stays off the mode
        events, censored = rng.randint(0, 3), rng.randint(1, 6)
        prior_shape = 2.0**53 - rng.randint(1, censored + 2)
        a = prior_shape + events
        if a >= 2.0**53 or rng.random() < 0.3:
            yield "shape bound", prior_shape, (events, censored), a * rng.uniform(1.5, 4), rng.uniform(0.3, 0.999999)
        else:
            # a step of about 4e-9 to 5e-11, so p0 falls inside the window of some flips and outside others
            x = a + rng.uniform(0.5, 3) * math.sqrt(a)
            p0 = reg_lower_inc_gamma(a, x) - rng.uniform(0, censored + 1) * reg_gamma_shape_step(a, x)
            yield "shape bound", prior_shape, (events, censored), x, p0


class TestCrossingFi:
    @pytest.mark.parametrize("events,censored,z", [(20, 40, 1.5), (100_000, 400, 1.0)])
    def test_p0_on_a_kernel_value_and_its_neighbours(self, events, censored, z):
        # P(k) == p0 does not stop the search; one ulp lower or higher moves the FI
        data = counts_dataset(events, censored)
        a = 0.5 + events
        base = config_at(data, a + z * math.sqrt(a), 0.5)
        probs = kernel_trajectory(data, base)
        for k in (1, 5, 12, 30):
            assert probs[k + 1] < probs[k]
            for p0, fi in ((probs[k], k + 1), (math.nextafter(probs[k], 0.0), k + 1), (math.nextafter(probs[k], 1.0), k)):
                assert crossing_matches(data, AnalysisConfig(t0=base.t0, p0=p0)) == fi

    def test_large_shape_near_the_mode(self):
        data = counts_dataset(150_000, 1_000)
        a = 150_000.5
        for z, p0 in ((0.5, 0.6), (1.0, 0.7), (2.0, 0.9)):
            assert isinstance(crossing_matches(data, config_at(data, a + z * math.sqrt(a), p0)), int)

    def test_saturated_baseline(self):
        data = counts_dataset(5, 400)
        config = config_at(data, 200.0, 0.7)
        assert kernel_trajectory(data, config)[:60] == [1.0] * 60
        assert isinstance(crossing_matches(data, config), int)

    @pytest.mark.parametrize("p0", [0.3, 0.7, 0.999])
    def test_far_above_the_shape_where_a_running_product_underflows(self, p0):
        # the step at a = 5.5, x = 2500 is 0 in double precision
        data = counts_dataset(5, 3_000)
        fi = crossing_matches(data, config_at(data, 2500.0, p0))
        assert 2_300 < fi < 3_000

    def test_not_attained(self):
        data = counts_dataset(20, 3)
        assert crossing_matches(data, config_at(data, 20.5 + 3 * math.sqrt(20.5), 0.7)) is None

    def test_not_applicable(self):
        data = counts_dataset(20, 30)
        assert crossing_matches(data, config_at(data, 20.5 - 2 * math.sqrt(20.5), 0.7)) == "not_applicable"

    def test_overflowing_posterior_rate_is_a_value_error(self):
        error = "Gamma rate must be finite and > 0, got inf"
        assert crossing_outcome(1, math.inf, 1, AnalysisConfig(t0=1.0)) == ("error", None, None, error)

    def test_matches_the_definition_on_a_seeded_corpus(self):
        fis = {}
        for regime, prior_shape, (events, censored), x, p0 in definition_corpus(random.Random(2026)):
            if regime == "saturated":
                assert reg_lower_inc_gamma(prior_shape + events, x) == 1.0
            if regime == "x >> a":
                assert reg_gamma_shape_step(prior_shape + events, x) < 2.0**-900
            data = counts_dataset(events, censored)
            fis.setdefault(regime, []).append(crossing_matches(data, config_at(data, x, p0, prior_shape)))
        # each regime reaches its crossings, and the FIs run into the thousands
        assert all(any(isinstance(fi, int) for fi in found) for found in fis.values())
        # at the shape bound, some searches end not attained and some fail
        assert {None, "error"} <= set(fis["shape bound"])
        assert max(fi for found in fis.values() for fi in found if isinstance(fi, int)) >= 1_000

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_a_crossing_outside_the_window_makes_one_kernel_call(self, monkeypatch, k):
        # p0 halfway between P(k - 1) and P(k): the recurrence decides, and the kernel gives P(0) alone
        data = counts_dataset(20, 40)
        base = config_at(data, 20.5 + 1.5 * math.sqrt(20.5), 0.5)
        probs = kernel_trajectory(data, base)
        config = AnalysisConfig(t0=base.t0, p0=(probs[k - 1] + probs[k]) / 2)
        assert crossing_matches(data, config) == k
        shapes = count_kernel_calls(monkeypatch)
        assert crossing_outcome(20, data.total_time, 40, config) == ("ok", probs[0], k, None)
        assert shapes == [20.5]

    @pytest.mark.parametrize("prior_shape", [2.0**53 - 1, 2.0**53 - 2])
    def test_a_flip_shape_of_2_to_the_53_raises_at_the_same_flip(self, prior_shape):
        # no events and two censored: the shape reaches 2**53 at the first flip, or at the last
        data = SurvivalDataset([0.3, 0.4], [0, 0])
        config = AnalysisConfig(t0=9.234575219833763e-17, prior=GammaParams(prior_shape, 0.5))
        error = "reg_lower_inc_gamma requires 2**-1022 <= a < 2**53, got 9007199254740992.0"
        with pytest.raises(ValueError) as excinfo:
            fragility_index(data, config)
        assert str(excinfo.value) == error
        assert crossing_outcome(0, data.total_time, 2, config) == ("error", None, None, error)

    def test_a_crossing_at_a_shape_of_2_to_the_53_is_the_kernels_error(self):
        # a step of 3.7e-9 jumps the window at the second flip, whose shape is 2**53
        a = 2.0**53 - 2
        t0 = 3.5 * LN2 / (a + 0.5 * math.sqrt(a))
        x = 3.5 * LN2 / t0
        p0 = reg_lower_inc_gamma(a, x) - 1.5 * reg_gamma_shape_step(a, x)
        config = AnalysisConfig(t0=t0, p0=p0, prior=GammaParams(a, 0.5))
        error = "reg_lower_inc_gamma requires 2**-1022 <= a < 2**53, got 9007199254740992.0"
        assert crossing_outcome(0, 3.0, 3, config) == ("error", None, None, error)

    def test_grid_cells_at_the_mode_of_a_shape_of_2_to_the_53_minus_2_are_the_definitions(self):
        # no events and two censored, x at the shape: P(0) is one O(1) kernel call, where the series would need
        # about 1e9 terms; a p0 half a step below P(0) is crossed at the first flip, one 1.5 steps below is not,
        # and the second flip's shape is 2**53
        data = SurvivalDataset([0.3, 0.4], [0, 0])
        a = 2.0**53 - 2
        base = config_at(data, a, 0.5, prior_shape=a)
        x = posterior_update(base.prior, data).rate * LN2 / base.t0
        p, step = reg_lower_inc_gamma(a, x), reg_gamma_shape_step(a, x)
        assert abs(p - 0.5) <= 1e-7
        grid = sensitivity_scan(data, base, {"prior_shape": [9007199254740990], "p0": [p - step / 2, p - 1.5 * step]})
        error = "reg_lower_inc_gamma requires 2**-1022 <= a < 2**53, got 9007199254740992.0"
        assert [(c.status, c.initial_prob, c.fi, c.error) for c in grid.cells] == [
            ("ok", p, 1, None), ("error", None, None, error)]
        for cell, expected in zip(grid.cells, [1, "error"]):
            config = AnalysisConfig(base.t0, cell.params["p0"], GammaParams(a, 0.5))
            assert crossing_matches(data, config) == expected


class TestFragilityQuotient:
    def test_published_case_counts(self):
        assert fragility_quotient(5, 30) == Fraction(1, 6)
        assert float(fragility_quotient(5, 30)) == pytest.approx(0.1667, abs=5e-5)
        assert fragility_quotient(6, 28) == Fraction(3, 14)
        assert float(fragility_quotient(6, 28)) == pytest.approx(0.2143, abs=5e-5)

    def test_boundary(self):
        assert fragility_quotient(1, 1) == Fraction(1, 1)

    @pytest.mark.parametrize("fi,n", [(0, 5), (6, 5), (-1, 5), (5, 0)])
    def test_domain_errors(self, fi, n):
        with pytest.raises(ValueError):
            fragility_quotient(fi, n)

    @pytest.mark.parametrize("fi,n", [(1.0, 5), (1, 5.0)])
    def test_rejects_non_integers(self, fi, n):
        with pytest.raises(ValueError):
            fragility_quotient(fi, n)


class TestFiTrajectory:
    def test_baseline_entry_is_the_posterior_probability(self):
        data = ds((1.0, 0), (4.0, 1))
        config = AnalysisConfig(t0=2.0)
        posterior = posterior_update(config.prior, data)
        result = fragility_index(data, config)
        assert result.trajectory[0] == (0, posterior_prob_median_exceeds(posterior, config.t0))
        assert result.initial_prob == result.trajectory[0][1]

    def test_posterior_one_one_recurrence_identity(self):
        # prior (1, 0.5) + one censored observation at 0.5 gives posterior (1, 1);
        # flipping it gives (2, 1), and P(2, 1) = 1 - 2/e by the shape recurrence
        data = ds((0.5, 0))
        config = AnalysisConfig(t0=LN2, p0=0.5, prior=GammaParams(1.0, 0.5))
        trajectory = fragility_index(data, config).trajectory
        assert trajectory[0][1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        assert trajectory[1][1] == pytest.approx(1.0 - 2.0 * math.exp(-1.0), abs=1e-12)

    def test_strictly_decreasing_full_depth(self):
        # p0 far below every reachable probability: the search flips every
        # censored observation without crossing
        rng = random.Random(31337)
        data = random_dataset(rng, 25, 0.6)
        result = fragility_index(data, applicable_config(data, p0=0.01))
        assert not result.attained
        probs = [p for _, p in result.trajectory]
        assert len(probs) == data.num_censored + 1
        assert all(a > b for a, b in zip(probs, probs[1:]))


class TestCalibrate:
    def test_inverts_shape_one_identity(self):
        rate = calibrate(1.0, 1.0 - math.exp(-1.0), LN2)
        assert rate == pytest.approx(1.0, abs=1e-8)

    def test_inverts_half_shape_erf_identity(self):
        rate = calibrate(0.5, erf_series(math.sqrt(0.5)), LN2)
        assert rate == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize(
        "shape,target,t0",
        [(22.5, 0.935, 7.0), (20.5, 0.958, 3.5), (31.5, 0.948, 15.0)],
    )
    def test_case_study_rates_match_scipy_inverse(self, shape, target, t0):
        rate = calibrate(shape, target, t0)
        expected = scipy_gammaincinv(shape, target) * t0 / LN2
        assert rate == pytest.approx(expected, rel=1e-9)
        achieved = posterior_prob_median_exceeds(GammaParams(shape, rate), t0)
        assert abs(achieved - target) <= 1e-9

    def test_deterministic(self):
        assert calibrate(22.5, 0.935, 7.0) == calibrate(22.5, 0.935, 7.0)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_degenerate_targets(self, target):
        with pytest.raises(ValueError):
            calibrate(1.0, target, 1.0)

    def test_rejects_a_t0_of_zero(self):
        with pytest.raises(ValueError, match=r"^t0 must be finite and > 0, got 0\.0$"):
            calibrate(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("t0", [math.inf, math.nan, "1"])
    def test_rejects_a_t0_that_is_not_a_finite_positive_number(self, t0):
        with pytest.raises(ValueError, match=f"^{re.escape(f't0 must be finite and > 0, got {t0!r}')}$"):
            calibrate(1.0, 0.5, t0)

    def test_a_rate_past_200_doublings_is_a_bracket_error(self):
        # P(1, b ln 2 / 1e300) stays below 0.5 for every b up to 2^200
        with pytest.raises(BracketError, match="within 200 doublings"):
            calibrate(1.0, 0.5, 1e300)

    @given(
        shape=st.floats(min_value=0.5, max_value=80.0),
        target=st.floats(min_value=0.01, max_value=0.99),
        t0=st.floats(min_value=0.2, max_value=30.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_across_the_domain(self, shape, target, t0):
        rate = calibrate(shape, target, t0)
        achieved = posterior_prob_median_exceeds(GammaParams(shape, rate), t0)
        assert abs(achieved - target) <= 1e-9


class TestCaseStudyReconstruction:
    """Summary-calibrated versions of the three bundled case studies.

    The strict below-p0 crossing lands one step after the published index
    in every case; the published values equal the last step at which the
    criterion still held.
    """

    @pytest.mark.parametrize(
        "events,censored,t0,target,strict_fi,published_fi",
        [
            (22, 8, 7.0, 0.935, 6, 5),
            (20, 8, 3.5, 0.958, 7, 6),
            (31, 20, 15.0, 0.948, 7, 6),
        ],
    )
    def test_strict_crossing_index(self, events, censored, t0, target, strict_fi, published_fi):
        prior = GammaParams(0.5, 0.5)
        n = events + censored
        posterior_rate = calibrate(prior.shape + events, target, t0)
        per_subject = (posterior_rate - prior.rate) / n
        data = ds(*([(per_subject, 1)] * events + [(per_subject, 0)] * censored))
        config = AnalysisConfig(t0=t0, p0=0.7, prior=prior)
        result = fragility_index(data, config)
        assert result.initial_prob == pytest.approx(target, abs=1e-9)
        assert exhaustive_fi(data, config) == strict_fi
        assert result.fi == strict_fi
        assert result.fi == published_fi + 1
        # crossing is genuine: above p0 at fi-1, below at fi
        probs = dict(result.trajectory)
        assert probs[result.fi - 1] >= 0.7
        assert probs[result.fi] < 0.7


class TestSensitivityScan:
    def test_single_point_grid_equals_direct_call(self):
        data = ds((1.0, 0), (2.0, 0), (9.0, 1), (9.5, 1))
        base = applicable_config(data)
        grid = sensitivity_scan(data, base, {"p0": [base.p0]})
        assert len(grid.cells) == 1
        cell = grid.cells[0]
        direct = fragility_index(data, base)
        assert (cell.status, cell.fi, cell.initial_prob) == ("ok", direct.fi, direct.initial_prob)

    def test_p0_axis_weakly_decreasing_fi(self):
        rng = random.Random(9001)
        for _ in range(10):
            data = random_dataset(rng, rng.randint(6, 40), rng.uniform(0.3, 0.7))
            base = applicable_config(data, p0=0.7)
            p0_values = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9]
            grid = sensitivity_scan(data, base, {"p0": p0_values})
            last_fi = None
            for cell in grid.cells:
                expected = exhaustive_fi(data, AnalysisConfig(t0=base.t0, p0=cell.params["p0"], prior=base.prior))
                if cell.status == "not_applicable":
                    assert expected == "not_applicable"
                    continue
                assert cell.status == "ok"
                assert (cell.fi if cell.fi is not None else "not_attained") == expected
                if cell.fi is not None:
                    if last_fi is not None:
                        assert cell.fi <= last_fi
                    last_fi = cell.fi

    def test_t0_axis_strictly_decreasing_initial_prob(self):
        data = ds((2.0, 0), (5.0, 0), (8.0, 1), (12.0, 1), (20.0, 1))
        base = AnalysisConfig(t0=4.0)
        grid = sensitivity_scan(data, base, {"t0": [2.0, 4.0, 6.0, 8.0, 10.0]})
        probs = [cell.initial_prob for cell in grid.cells]
        assert all(p is not None for p in probs)
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_not_applicable_cells_recorded_not_raised(self):
        data = ds((2.0, 0), (5.0, 0), (8.0, 1), (12.0, 1), (20.0, 1))
        base = AnalysisConfig(t0=4.0)
        grid = sensitivity_scan(data, base, {"t0": [4.0, 500.0]})
        assert grid.cells[0].status == "ok"
        assert grid.cells[1].status == "not_applicable"
        assert grid.cells[1].initial_prob is not None

    def test_invalid_cell_value_recorded_as_error(self):
        data = ds((2.0, 0), (8.0, 1))
        base = AnalysisConfig(t0=4.0)
        grid = sensitivity_scan(data, base, {"prior_shape": [0.5, -1.0]})
        assert grid.cells[0].error is None
        assert grid.cells[1].status == "error"
        assert grid.cells[1].error == "Gamma shape must be finite and > 0, got -1.0"

    def test_at_most_three_kernel_calls_per_cell(self, monkeypatch):
        # one kernel call per flip makes 110 calls here
        shapes = count_kernel_calls(monkeypatch)
        data = counts_dataset(20, 200)
        base = config_at(data, 20.5 + 3 * math.sqrt(20.5), 0.7)
        grid = sensitivity_scan(data, base, {"p0": [0.6, 0.7, 0.8], "prior_shape": [0.25, 0.5, 1.0]})
        assert [cell.status for cell in grid.cells] == ["ok"] * 9
        assert all(isinstance(cell.fi, int) for cell in grid.cells)
        assert len(shapes) <= 3 * len(grid.cells)

    def test_axis_validation(self):
        data = ds((2.0, 0), (8.0, 1))
        base = AnalysisConfig(t0=4.0)
        with pytest.raises(ValueError):
            sensitivity_scan(data, base, {})
        with pytest.raises(ValueError):
            sensitivity_scan(data, base, {"bogus": [1.0]})
        with pytest.raises(ValueError):
            sensitivity_scan(data, base, {"t0": []})

    def test_cell_order_is_canonical_product_order(self):
        data = ds((2.0, 0), (8.0, 1))
        base = AnalysisConfig(t0=4.0)
        grid = sensitivity_scan(data, base, {"p0": [0.6, 0.7], "t0": [3.0, 5.0]})
        coords = [(c.params["t0"], c.params["p0"]) for c in grid.cells]
        assert coords == [(3.0, 0.6), (3.0, 0.7), (5.0, 0.6), (5.0, 0.7)]

    def test_scan_is_reproducible(self):
        data = ds((2.0, 0), (5.0, 0), (8.0, 1), (12.0, 1))
        base = AnalysisConfig(t0=4.0)
        axes = {"p0": [0.6, 0.7], "prior_rate": [0.25, 0.5]}
        assert sensitivity_scan(data, base, axes) == sensitivity_scan(data, base, axes)


class TestResultTypeContract:
    """What callers rely on from the three fragility value types: constructors, keyword defaults,
    equality, hash, repr text and immutability."""

    @staticmethod
    def _result(fi=2):
        return FragilityResult(fi, ((0, 0.9), (1, 0.8), (2, 0.6)), 0.9, 3, Fraction(2, 5), AnalysisConfig(2.0))

    @staticmethod
    def _values():
        cell = GridCell({"t0": 1.0}, "ok", 0.9, 2)
        return [TestResultTypeContract._result(), cell, SensitivityGrid({"t0": (1.0,)}, (cell,))]

    def test_fragility_result(self):
        result = self._result()
        fields = (2, ((0, 0.9), (1, 0.8), (2, 0.6)), 0.9, 3, Fraction(2, 5), AnalysisConfig(2.0))
        assert (result.fi, result.trajectory, result.initial_prob, result.censored_count, result.fq,
                result.config) == fields
        same = FragilityResult(fi=2, trajectory=((0, 0.9), (1, 0.8), (2, 0.6)), initial_prob=0.9, censored_count=3,
                               fq=Fraction(2, 5), config=AnalysisConfig(2.0))
        assert result == same and hash(result) == hash(same) == hash(fields)
        assert result != self._result(fi=1) and result != fields
        assert (result.attained, result.fi_text) == (True, "2")
        assert (self._result(fi=None).attained, self._result(fi=None).fi_text) == (False, "> 3")
        assert repr(result) == (
            "FragilityResult(fi=2, trajectory=((0, 0.9), (1, 0.8), (2, 0.6)), initial_prob=0.9, censored_count=3, "
            "fq=Fraction(2, 5), config=AnalysisConfig(t0=2.0, p0=0.7, prior=GammaParams(shape=0.5, rate=0.5)))")
        with pytest.raises(TypeError):
            FragilityResult(2, (), 0.9, 3, None)

    def test_grid_cell_defaults_and_no_hash(self):
        cell = GridCell({"t0": 1.0}, "error", error="t0 must be finite and > 0, got -1.0")
        assert (cell.params, cell.status, cell.initial_prob, cell.fi, cell.error) == (
            {"t0": 1.0}, "error", None, None, "t0 must be finite and > 0, got -1.0")
        assert cell == GridCell(params={"t0": 1.0}, status="error", initial_prob=None, fi=None,
                                error="t0 must be finite and > 0, got -1.0")
        assert GridCell({"t0": 1.0}, "ok", 0.9, 2) == GridCell({"t0": 1.0}, "ok", initial_prob=0.9, fi=2)
        assert cell != GridCell({"t0": 2.0}, "error", error=cell.error) and cell != GridCell({"t0": 1.0}, "ok")
        assert repr(GridCell({"t0": 1.0}, "ok")) == (
            "GridCell(params={'t0': 1.0}, status='ok', initial_prob=None, fi=None, error=None)")
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(cell)  # params is a dict
        with pytest.raises(TypeError):
            GridCell({"t0": 1.0})
        with pytest.raises(TypeError):
            GridCell({"t0": 1.0}, "ok", status_text="ok")

    def test_sensitivity_grid(self):
        cell = GridCell({"t0": 1.0}, "ok", 0.9, 2)
        grid = SensitivityGrid({"t0": (1.0,)}, (cell,))
        assert (grid.axes, grid.cells) == ({"t0": (1.0,)}, (cell,))
        assert grid == SensitivityGrid(axes={"t0": (1.0,)}, cells=(GridCell({"t0": 1.0}, "ok", 0.9, 2),))
        assert grid != SensitivityGrid({"t0": (1.0,)}, ()) and grid != ({"t0": (1.0,)}, (cell,))
        assert repr(grid) == ("SensitivityGrid(axes={'t0': (1.0,)}, cells=(GridCell(params={'t0': 1.0}, status='ok', "
                              "initial_prob=0.9, fi=2, error=None),))")
        with pytest.raises(TypeError):
            hash(grid)

    @pytest.mark.parametrize("index", range(3))
    def test_assignment_and_deletion_raise_attribute_error(self, index):
        value = self._values()[index]
        before = repr(value)
        for name in [*vars(value), "new_attribute"]:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, 1.0)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
        assert repr(value) == before


# (type, every field in order, one field changed, repr text)
_VALUE_ROWS = [
    (SimSpec, {"n": 5, "event_rate": 0.5, "censor_time": None, "censor_rate": 0.25, "seed": 7}, {"seed": 8},
     "SimSpec(n=5, event_rate=0.5, censor_time=None, censor_rate=0.25, seed=7)"),
    (KMCurve, {"times": (1.0, 2.0), "survival": (Fraction(2, 3), Fraction(1, 3)), "at_risk": (3, 2),
               "events": (1, 1), "censor_marks": (1.5,)}, {"censor_marks": ()},
     "KMCurve(times=(1.0, 2.0), survival=(Fraction(2, 3), Fraction(1, 3)), at_risk=(3, 2), events=(1, 1), "
     "censor_marks=(1.5,))"),
    (CaseStudy, {"key": "lung-cancer", "label": "Lung", "n": 30, "events": 22, "t0": 7.0,
                 "reported_initial_prob": 0.935, "published_fi": 5}, {"published_fi": 6},
     "CaseStudy(key='lung-cancer', label='Lung', n=30, events=22, t0=7.0, reported_initial_prob=0.935, "
     "published_fi=5)"),
]
_VALUE_IDS = [row[0].__name__ for row in _VALUE_ROWS]


class TestSpecTypeContract:
    """SimSpec, KMCurve and CaseStudy keep the contract of the fragility value types: positional and keyword
    constructors, field order, equality, hash of the field tuple, repr text and immutability."""

    @pytest.mark.parametrize("cls,fields,changed,text", _VALUE_ROWS, ids=_VALUE_IDS)
    def test_constructors_equality_hash_and_repr(self, cls, fields, changed, text):
        value = cls(*fields.values())
        assert list(vars(value).items()) == list(fields.items())
        assert value == cls(**fields) and hash(value) == hash(cls(**fields)) == hash(tuple(fields.values()))
        assert value != cls(**{**fields, **changed}) and value != tuple(fields.values())
        assert repr(value) == text
        with pytest.raises(TypeError):
            cls(*list(fields.values())[:-2], extra=1)
        with pytest.raises(TypeError):
            cls()

    def test_sim_spec_defaults_and_case_study_censored(self):
        assert SimSpec(5, 0.5) == SimSpec(n=5, event_rate=0.5, censor_time=None, censor_rate=None, seed=0)
        assert SimSpec(5, 0.5, 2.0) == SimSpec(n=5, event_rate=0.5, censor_time=2.0)
        assert vars(SimSpec(5, 0.5, seed=3)) == {"n": 5, "event_rate": 0.5, "censor_time": None,
                                                 "censor_rate": None, "seed": 3}
        assert CaseStudy("k", "K", 30, 22, 7.0, 0.935, 5).censored == 8

    @pytest.mark.parametrize("cls,fields,changed,text", _VALUE_ROWS, ids=_VALUE_IDS)
    def test_assignment_and_deletion_raise_attribute_error(self, cls, fields, changed, text):
        value = cls(**fields)
        for name in [*fields, "new_attribute"]:
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, 1.0)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
        assert repr(value) == text
