import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fragsurv.survival import (
    AnalysisConfig,
    GammaParams,
    SurvivalDataset,
    _Value,
    log_likelihood,
    posterior_prob_median_exceeds,
    posterior_update,
)

from oracles import erf_series, gamma_log_density, random_dataset


def ds(*pairs):
    return SurvivalDataset(*zip(*pairs))


class TestSurvivalDataset:
    def test_derived_counts(self):
        d = ds((2, 1), (3, 0), (1, 1))
        assert d.n == 3
        assert d.num_events == 2
        assert d.num_censored == 1
        assert d.total_time == 6.0

    def test_statistics_are_stored_on_construction(self):
        rng = random.Random(60)
        for _ in range(50):
            d = random_dataset(rng, rng.randint(1, 400), rng.uniform(0.0, 0.9))
            stored = vars(d)
            assert stored["num_events"] == sum(d.events)
            # bit for bit: the stored total is the row-order float sum
            assert stored["total_time"] == sum(d.times)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SurvivalDataset((), ())

    def test_preserves_input_order(self):
        d = ds((5, 0), (1, 1), (3, 0))
        assert d.times == (5.0, 1.0, 3.0)
        assert d.events == b"\x00\x01\x00"

    def test_time_unit_metadata(self):
        d = SurvivalDataset((1,), (1,), time_unit="weeks")
        assert d.time_unit == "weeks"

    def test_equal_columns_give_equal_datasets(self):
        rng = random.Random(61)
        for _ in range(50):
            n = rng.randint(1, 400)
            times = [rng.expovariate(rng.uniform(0.05, 2.0)) + 1e-9 for _ in range(n)]
            events = [rng.randint(0, 1) for _ in range(n)]
            from_bytes = SurvivalDataset(times, bytearray(events), "weeks")
            from_lists = SurvivalDataset(iter(times), events, "weeks")
            assert from_bytes == from_lists and hash(from_bytes) == hash(from_lists)
            assert from_bytes.num_events == from_lists.num_events == sum(events)
            assert from_bytes.total_time.hex() == from_lists.total_time.hex()
            assert list(zip(from_bytes.times, from_bytes.events)) == list(zip(times, events))
            assert from_bytes != SurvivalDataset(times, events, "days")

    @pytest.mark.parametrize(
        "times,events",
        [
            ([1.0, 2.0], [1]),
            ([1.0], [1, 0]),
            ([math.nan], [1]),
            ([math.inf], [0]),
            ([0.0], [1]),
            ([-1.0], [0]),
            ([1.0, 2.0], [1, 2]),
            ([1.0, 2.0], b"\x01\x02"),
            ([1.0], [-1]),
            ([1.0], [0.5]),
            ([1.0], [None]),
            ([1.0, 2.0, 3.0], 3),
            ([], []),
        ],
        ids=["short-events", "short-times", "nan", "inf", "zero", "negative", "event-2", "event-byte-2",
             "event-negative", "event-half", "event-none", "events-an-int", "empty"],
    )
    def test_rejects_bad_columns(self, times, events):
        with pytest.raises(ValueError):
            SurvivalDataset(times, events)


class TestGammaParams:
    @pytest.mark.parametrize("shape,rate", [(0, 1), (1, 0), (-1, 1), (1, -1), (math.inf, 1), (1, math.nan)])
    def test_rejects_nonpositive(self, shape, rate):
        with pytest.raises(ValueError):
            GammaParams(shape, rate)


class TestAnalysisConfig:
    def test_defaults(self):
        cfg = AnalysisConfig(t0=7.0)
        assert cfg.p0 == 0.7
        assert cfg.prior == GammaParams(0.5, 0.5)

    @pytest.mark.parametrize("t0,p0", [(0.0, 0.7), (-1.0, 0.7), (7.0, 0.0), (7.0, 1.0), (7.0, 1.5)])
    def test_rejects_bad_thresholds(self, t0, p0):
        with pytest.raises(ValueError):
            AnalysisConfig(t0=t0, p0=p0)


class TestLogLikelihood:
    def test_single_censored(self):
        assert log_likelihood(ds((1, 0)), 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_single_event(self):
        assert log_likelihood(ds((2, 1)), 0.5) == pytest.approx(math.log(0.5) - 1.0, abs=1e-12)

    def test_mixed_matches_term_by_term_product(self):
        data = ds((2, 1), (3, 0), (1, 1))
        rate = 0.4
        expected = 0.0
        for time, event in zip(data.times, data.events):
            if event:
                expected += math.log(rate * math.exp(-rate * time))
            else:
                expected += math.log(math.exp(-rate * time))
        assert expected == pytest.approx(2 * math.log(0.4) - 2.4, abs=1e-12)
        assert log_likelihood(data, rate) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("rate", [0.0, -0.5, math.inf, math.nan])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError):
            log_likelihood(ds((1, 1)), rate)


class TestPosteriorUpdate:
    def test_censored_only_adds_time(self):
        assert posterior_update(GammaParams(1, 1), ds((5, 0))) == GammaParams(1, 6)

    def test_direct_arithmetic(self):
        assert posterior_update(GammaParams(0.5, 0.5), ds((2, 1), (3, 0))) == GammaParams(1.5, 5.5)

    def test_lung_case_event_count_gives_posterior_shape(self):
        rng = random.Random(1)
        pairs = [(rng.uniform(0.5, 30.0), 1) for _ in range(22)] + [
            (rng.uniform(0.5, 30.0), 0) for _ in range(8)
        ]
        posterior = posterior_update(GammaParams(0.5, 0.5), ds(*pairs))
        assert posterior.shape == 22.5

    @given(
        pairs=st.lists(
            st.tuples(st.floats(min_value=0.01, max_value=100.0), st.integers(0, 1)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_order_invariance_and_additivity(self, pairs):
        prior = GammaParams(0.5, 0.5)
        data = ds(*pairs)
        shuffled = list(pairs)
        random.Random(0).shuffle(shuffled)
        permuted = ds(*shuffled)
        a = posterior_update(prior, data)
        b = posterior_update(prior, permuted)
        assert a.shape == b.shape
        # positive-term sums under permutation: error bounded by n ulps
        assert a.rate == pytest.approx(b.rate, rel=5e-14)
        # sequential update on a split equals one update on the union
        if len(pairs) >= 2:
            cut = len(pairs) // 2
            first = posterior_update(prior, ds(*pairs[:cut]))
            second = posterior_update(first, ds(*pairs[cut:]))
            assert second.shape == a.shape
            assert second.rate == pytest.approx(a.rate, rel=1e-12)

    def test_conjugacy_against_numerical_integration(self):
        # likelihood x prior, normalized numerically, equals the closed-form
        # Gamma(shape', rate') density pointwise
        rng = random.Random(314)
        for _ in range(10):
            n = rng.randint(1, 5)
            data = ds(*[(rng.uniform(0.5, 10.0), rng.randint(0, 1)) for _ in range(n)])
            prior = GammaParams(rng.uniform(0.4, 3.0), rng.uniform(0.4, 3.0))
            posterior = posterior_update(prior, data)

            def unnormalized(lam):
                return math.exp(
                    log_likelihood(data, lam) + gamma_log_density(lam, prior.shape, prior.rate)
                )

            # finite range holding all posterior mass: mean + 50 sd of Gamma(shape', rate')
            upper = (posterior.shape + 50.0 * math.sqrt(posterior.shape)) / posterior.rate
            norm, err = quad(unnormalized, 0.0, upper, epsabs=1e-15, epsrel=1e-12, limit=400)
            assert err <= 1e-7 * norm  # normalized-density error stays far below 1e-6
            for j in range(1, 21):
                lam = j * 0.35 * posterior.shape / posterior.rate / 10.0 + 1e-4
                numeric = unnormalized(lam) / norm
                exact = math.exp(gamma_log_density(lam, posterior.shape, posterior.rate))
                assert abs(numeric - exact) <= 1e-6


class TestPosteriorProbMedianExceeds:
    def test_shape_one_reduces_to_exponential_cdf(self):
        p = posterior_prob_median_exceeds(GammaParams(1, 1), math.log(2.0))
        assert p == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_half_shape_reduces_to_erf(self):
        p = posterior_prob_median_exceeds(GammaParams(0.5, 0.5), math.log(2.0))
        assert p == pytest.approx(erf_series(math.sqrt(0.5)), abs=1e-12)

    def test_strictly_decreasing_in_t0(self):
        posterior = GammaParams(22.5, 300.0)
        probs = [posterior_prob_median_exceeds(posterior, t0) for t0 in [3 + 0.5 * i for i in range(20)]]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_strictly_increasing_in_rate(self):
        probs = [
            posterior_prob_median_exceeds(GammaParams(22.5, 200.0 + 10.0 * i), 7.0)
            for i in range(20)
        ]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_strictly_decreasing_in_shape_for_fixed_rate(self):
        probs = [
            posterior_prob_median_exceeds(GammaParams(20.0 + i, 300.0), 7.0) for i in range(15)
        ]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_matches_quadrature_of_posterior_density(self):
        rng = random.Random(99)
        for _ in range(8):
            posterior = GammaParams(rng.uniform(0.5, 30.0), rng.uniform(0.5, 100.0))
            t0 = rng.uniform(0.5, 20.0)
            upper = math.log(2.0) / t0
            integral, err = quad(
                lambda lam: math.exp(gamma_log_density(lam, posterior.shape, posterior.rate)),
                0.0,
                upper,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=400,
            )
            assert err < 1e-8
            assert posterior_prob_median_exceeds(posterior, t0) == pytest.approx(integral, abs=1e-8)

    @pytest.mark.parametrize("t0", [0.0, -2.0, math.inf])
    def test_rejects_bad_threshold(self, t0):
        with pytest.raises(ValueError):
            posterior_prob_median_exceeds(GammaParams(1, 1), t0)


class TestValueTypeContract:
    """What callers rely on from the three value types: constructors, defaults, validation messages,
    equality, hash, repr text and immutability."""

    @staticmethod
    def _values():
        return [GammaParams(1, 2), AnalysisConfig(t0=7.0), SurvivalDataset([2, 3.5], [1, 0])]

    def test_gamma_params(self):
        params = GammaParams(1, 2)
        assert (params.shape, params.rate) == (1.0, 2.0)
        assert type(params.shape) is type(params.rate) is float
        assert params == GammaParams(shape=1.0, rate=2.0) and hash(params) == hash((1.0, 2.0))
        assert params != GammaParams(1, 3) and params != (1.0, 2.0)
        assert repr(params) == "GammaParams(shape=1.0, rate=2.0)"

    def test_analysis_config_defaults(self):
        config = AnalysisConfig(7)
        assert (config.t0, config.p0, config.prior) == (7.0, 0.7, GammaParams(0.5, 0.5))
        assert type(config.t0) is float
        assert config == AnalysisConfig(7.0, 0.7, GammaParams(0.5, 0.5))
        assert hash(config) == hash((7.0, 0.7, GammaParams(0.5, 0.5)))
        assert config != AnalysisConfig(7.0, 0.8) and config != AnalysisConfig(7.0, prior=GammaParams(1, 1))
        assert repr(config) == "AnalysisConfig(t0=7.0, p0=0.7, prior=GammaParams(shape=0.5, rate=0.5))"
        assert AnalysisConfig(t0=2, p0=0.5, prior=GammaParams(3, 4)).p0 == 0.5
        with pytest.raises(TypeError):
            AnalysisConfig()
        with pytest.raises(TypeError):
            AnalysisConfig(7.0, q0=0.5)

    def test_survival_dataset(self):
        data = SurvivalDataset([2, 3.5], [1, 0])
        assert (data.times, data.events, data.time_unit) == ((2.0, 3.5), b"\x01\x00", "months")
        assert (data.num_events, data.total_time) == (1, 5.5)
        # equal columns from any iterables give equal datasets with equal hashes; the unit counts too
        same = SurvivalDataset(iter([2.0, 3.5]), bytearray(b"\x01\x00"), "months")
        assert data == same and hash(data) == hash(same) == hash(((2.0, 3.5), b"\x01\x00", "months"))
        assert data != SurvivalDataset([2, 3.5], [1, 0], "weeks") and data != SurvivalDataset([2, 3.5], [0, 0])
        assert data != ((2.0, 3.5), b"\x01\x00", "months")
        assert repr(data) == "SurvivalDataset(times=(2.0, 3.5), events=b'\\x01\\x00', time_unit='months')"
        assert len({data, same, SurvivalDataset([2, 3.5], [1, 0], time_unit="weeks")}) == 2

    def test_fields_are_the_constructor_parameters(self):
        class Pair(_Value):
            def __init__(self, b, a):
                vars(self).update(b=b, a=a)

        assert Pair._fields == ("b", "a")
        assert repr(Pair(1, 2)) == "Pair(b=1, a=2)"
        assert Pair(1, 2) == Pair(1, 2) and Pair(1, 2) != Pair(1, 3)
        assert hash(Pair(1, 2)) == hash((1, 2))

    @pytest.mark.parametrize("index", range(3))
    def test_assignment_and_deletion_raise_attribute_error(self, index):
        value = self._values()[index]
        before = repr(value)
        for name in [*vars(value), "new_attribute"]:
            with pytest.raises(AttributeError):
                setattr(value, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == before

    @pytest.mark.parametrize("build,message", [
        (lambda: GammaParams(0, 1), "Gamma shape must be finite and > 0, got 0"),
        (lambda: GammaParams(1, math.nan), "Gamma rate must be finite and > 0, got nan"),
        (lambda: GammaParams("1", 1), "Gamma shape must be finite and > 0, got '1'"),
        (lambda: AnalysisConfig(t0=-1), "t0 must be finite and > 0, got -1"),
        (lambda: AnalysisConfig(t0=math.inf), "t0 must be finite and > 0, got inf"),
        (lambda: AnalysisConfig(t0=1, p0=1), "p0 must lie in (0, 1), got 1"),
        (lambda: AnalysisConfig(t0=1, p0=None), "p0 must lie in (0, 1), got None"),
        (lambda: SurvivalDataset([1.0], 1), "event indicators must be the integers 0 and 1"),
        (lambda: SurvivalDataset([1.0], [0.5]), "event indicators must be the integers 0 and 1"),
        (lambda: SurvivalDataset([1.0, 2.0], [1, 2]), "event indicator must be 0 or 1, got 2"),
        (lambda: SurvivalDataset([1.0, 2.0], [1]), "2 times but 1 event indicators"),
        (lambda: SurvivalDataset([], []), "a survival dataset must contain at least one observation"),
        (lambda: SurvivalDataset([1.0, -0.0], [1, 0]), "observation time must be finite and > 0, got -0.0"),
        (lambda: SurvivalDataset([1.0, "2"], [1, 0]), "observation time must be finite and > 0, got '2'"),
    ])
    def test_validation_messages(self, build, message):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message
