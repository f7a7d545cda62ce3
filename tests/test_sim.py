import math
import statistics

import pytest

from fragsurv import fragility
from fragsurv.sim import SimSpec, SplitMix64, fi_distribution, simulate_trial, substream_seed
from fragsurv.survival import LN2, AnalysisConfig, GammaParams, posterior_update

from oracles import fi_histogram_reference

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _unxorshift(y: int, shift: int) -> int:
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix64(z: int) -> int:
    """Inverse of the SplitMix64 finalizer: the state whose output is z."""
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & _MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & _MASK64
    return _unxorshift(z, 30)


class TestSplitMix64:
    def test_known_stream_from_zero_seed(self):
        # reference values of the published algorithm, seed 0
        rng = SplitMix64(0)
        assert [rng.next_uint64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_uniform_open_interval(self):
        rng = SplitMix64(123456789)
        values = [rng.uniform() for _ in range(10000)]
        assert all(0.0 < v < 1.0 for v in values)

    def test_substreams_differ(self):
        seeds = {substream_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestSimSpec:
    def test_rejects_both_censoring_mechanisms(self):
        with pytest.raises(ValueError):
            SimSpec(n=5, event_rate=1.0, censor_time=2.0, censor_rate=0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "event_rate": 1.0},
            {"n": 5, "event_rate": 0.0},
            {"n": 5, "event_rate": 1.0, "censor_time": 0.0},
            {"n": 5, "event_rate": 1.0, "censor_rate": -1.0},
            {"n": 5, "event_rate": 1.0, "seed": -1},
        ],
    )
    def test_rejects_invalid_fields(self, kwargs):
        with pytest.raises(ValueError):
            SimSpec(**kwargs)


class TestSimulateTrial:
    def test_identical_seed_identical_dataset(self):
        spec = SimSpec(n=50, event_rate=0.3, censor_rate=0.1, seed=987654321)
        a = simulate_trial(spec)
        b = simulate_trial(spec)
        assert a == b

    def test_different_seeds_differ(self):
        a = simulate_trial(SimSpec(n=20, event_rate=0.3, seed=1))
        b = simulate_trial(SimSpec(n=20, event_rate=0.3, seed=2))
        assert a != b

    def test_administrative_censoring_branch(self):
        # cutoff far below the typical event time forces the censored record (c, 0)
        spec = SimSpec(n=200, event_rate=0.001, censor_time=1e-6, seed=5)
        data = simulate_trial(spec)
        censored = [t for t, e in zip(data.times, data.events) if e == 0]
        assert len(censored) >= 199
        assert all(t == 1e-6 for t in censored)
        events = [t for t, e in zip(data.times, data.events) if e == 1]
        assert all(t <= 1e-6 for t in events)

    def test_exponential_censoring_records_minimum(self):
        spec = SimSpec(n=500, event_rate=0.5, censor_rate=0.5, seed=11)
        data = simulate_trial(spec)
        assert 0 < data.num_censored < data.n
        assert all(t > 0 for t in data.times)

    def test_uncensored_mean_within_three_standard_errors(self):
        spec = SimSpec(n=10_000, event_rate=0.2, seed=20240101)
        data = simulate_trial(spec)
        mean = statistics.fmean(data.times)
        standard_error = (1 / 0.2) / math.sqrt(10_000)
        assert abs(mean - 5.0) <= 3 * standard_error
        assert data.num_events == data.n

    def test_posterior_concentrates_at_true_rate(self):
        rate = 0.25
        spec = SimSpec(n=20_000, event_rate=rate, seed=777)
        data = simulate_trial(spec)
        posterior = posterior_update(GammaParams(0.5, 0.5), data)
        point_estimate = posterior.shape / posterior.rate
        estimated_median = LN2 / point_estimate
        true_median = LN2 / rate
        # relative sampling error of the rate estimate is ~ 1/sqrt(n)
        assert abs(estimated_median - true_median) <= 4 * true_median / math.sqrt(spec.n)


class TestFiDistribution:
    def test_single_replication_single_bucket(self):
        spec = SimSpec(n=20, event_rate=0.1, censor_rate=0.05, seed=3)
        config = AnalysisConfig(t0=2.0)
        counts = fi_distribution(spec, config, 1)
        assert sum(counts.values()) == 1

    def test_counts_sum_to_replications(self):
        spec = SimSpec(n=15, event_rate=0.2, censor_rate=0.2, seed=9)
        config = AnalysisConfig(t0=3.0)
        counts = fi_distribution(spec, config, 60)
        assert sum(counts.values()) == 60

    def test_deterministic_histogram(self):
        spec = SimSpec(n=15, event_rate=0.2, censor_rate=0.2, seed=9)
        config = AnalysisConfig(t0=3.0)
        assert fi_distribution(spec, config, 40) == fi_distribution(spec, config, 40)

    def test_replication_prefix_stable_across_counts(self):
        # replication i uses substream i, so the first draws agree
        spec = SimSpec(n=10, event_rate=0.3, censor_rate=0.1, seed=77)
        first = [
            simulate_trial(SimSpec(n=10, event_rate=0.3, censor_rate=0.1, seed=substream_seed(77, i)))
            for i in range(3)
        ]
        again = [
            simulate_trial(SimSpec(n=10, event_rate=0.3, censor_rate=0.1, seed=substream_seed(77, i)))
            for i in range(5)
        ][:3]
        assert first == again

    def test_far_threshold_concentrates_not_applicable(self):
        # true median ln2/0.5 ~ 1.4 far below t0=30: conclusions never hold
        spec = SimSpec(n=40, event_rate=0.5, censor_rate=0.05, seed=21)
        config = AnalysisConfig(t0=30.0)
        counts = fi_distribution(spec, config, 50)
        assert counts.get("not_applicable", 0) >= 45

    def test_near_threshold_heavy_data_concentrates_not_attained(self):
        # true median ln2/0.05 ~ 13.9 far above t0=1, light censoring:
        # flipping the few censored observations cannot drag the probability down
        spec = SimSpec(n=120, event_rate=0.05, censor_rate=0.002, seed=22)
        config = AnalysisConfig(t0=1.0)
        counts = fi_distribution(spec, config, 50)
        assert counts.get("not_attained", 0) >= 45

    def test_rejects_bad_replications(self):
        spec = SimSpec(n=5, event_rate=0.5, seed=1)
        with pytest.raises(ValueError):
            fi_distribution(spec, AnalysisConfig(t0=1.0), 0)

    def test_the_top_lattice_point_stays_below_one(self):
        # ((2^53 - 1) + 0.5) * 2^-53 rounds to 1.0, where -ln(U) would be -0.0
        seed = (_unmix64((2**53 - 1) << 11) - _GOLDEN) & _MASK64
        assert SplitMix64(seed).uniform() == math.nextafter(1.0, 0.0)
        assert simulate_trial(SimSpec(n=3, event_rate=1.0, seed=seed)).times[0] > 0.0
        spec = SimSpec(n=3, event_rate=1.0, seed=(_unmix64(seed) - _GOLDEN) & _MASK64)
        assert substream_seed(spec.seed, 0) == seed
        config = AnalysisConfig(t0=1.0)
        counts = fi_distribution(spec, config, 2)
        assert "error" not in counts
        assert counts == fi_histogram_reference(spec, config, 2)

    def test_at_most_two_and_a_half_kernel_calls_per_replication(self, monkeypatch):
        # one kernel call per flip makes 2450 calls here
        calls = 0
        kernel = fragility.reg_lower_inc_gamma

        def counting(a, x):
            nonlocal calls
            calls += 1
            return kernel(a, x)

        monkeypatch.setattr(fragility, "reg_lower_inc_gamma", counting)
        spec = SimSpec(n=50, event_rate=0.1, censor_rate=0.05, seed=4242)
        counts = fi_distribution(spec, AnalysisConfig(t0=5.0), 250)
        assert sum(v for k, v in counts.items() if isinstance(k, int)) >= 100
        assert calls <= 2.5 * 250


_MEDIAN = LN2 / 0.2


class TestFiDistributionEqualsReference:
    """fi_distribution against one dataset and one fragility_index per replication."""

    def test_all_censoring_modes_sizes_and_outcomes(self):
        outcomes = set()
        for censoring in ({}, {"censor_time": _MEDIAN}, {"censor_rate": 0.2}):
            for n in (1, 2, 50, 300):
                spec = SimSpec(n=n, event_rate=0.2, seed=1000 + n, **censoring)
                reps = 40 if n == 300 else 120
                for t0 in (0.6 * _MEDIAN, 0.8 * _MEDIAN, _MEDIAN):
                    config = AnalysisConfig(t0=t0)
                    counts = fi_distribution(spec, config, reps)
                    assert counts == fi_histogram_reference(spec, config, reps), (censoring, n, t0)
                    outcomes.update("fi" if isinstance(k, int) else k for k in counts)
        assert outcomes == {"fi", "not_attained", "not_applicable"}

    def test_overflowing_total_time_is_an_error(self):
        # each draw is finite, but 500 of them at rate 1e-306 sum past the largest double
        spec = SimSpec(n=500, event_rate=1e-306, seed=3)
        config = AnalysisConfig(t0=1.0)
        assert fi_distribution(spec, config, 3) == fi_histogram_reference(spec, config, 3) == {"error": 3}

    @pytest.mark.parametrize("censoring", [{}, {"censor_time": _MEDIAN}, {"censor_rate": 0.2}])
    def test_t0_that_overflows_x_is_never_attained(self, censoring):
        # x = rate ln 2 / 1e-320 is inf, where P(a, inf) = 1 for every shape
        spec = SimSpec(n=50, event_rate=0.2, seed=8, **censoring)
        config = AnalysisConfig(t0=1e-320)
        counts = fi_distribution(spec, config, 30)
        assert counts == fi_histogram_reference(spec, config, 30) == {"not_attained": 30}
