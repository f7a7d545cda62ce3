import math
import re
import statistics
import sys

import pytest

from fragsurv import fragility
from fragsurv.sim import _BLOCK, SimSpec, SplitMix64, _uniforms, fi_distribution, simulate_trial, substream_seed
from fragsurv.survival import LN2, AnalysisConfig, GammaParams, posterior_update

from oracles import fi_histogram_reference

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_LARGEST_RATE = math.nextafter(2.0**1022, 0.0)  # the largest rate whose smallest draw is above 0


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


def _seed_for_first_draw(q: int) -> int:
    """The seed whose first uniform() has top 53 bits q (and the low 11 bits zero)."""
    return (_unmix64(q << 11) - _GOLDEN) & _MASK64


def _scalar_trial(spec: SimSpec) -> tuple[list[float], bytes]:
    """Times and events drawn one subject at a time from SplitMix64, the reference for the bulk kernel."""
    rng = SplitMix64(spec.seed)
    times, events = [], bytearray()
    for _ in range(spec.n):
        t = -math.log(rng.uniform()) / spec.event_rate
        if spec.censor_time is not None:
            c = spec.censor_time
        elif spec.censor_rate is not None:
            c = -math.log(rng.uniform()) / spec.censor_rate
        else:
            c = math.inf
        times.append(min(t, c))
        events.append(t <= c)
    return times, bytes(events)


class TestUniforms:
    """The bulk kernel against SplitMix64.uniform, compared as float.hex strings."""

    @staticmethod
    def _reference(states, count):
        draws = []
        for state in states:
            rng = SplitMix64(state)
            draws += [rng.uniform().hex() for _ in range(count)]
        return draws

    @pytest.mark.parametrize("count", [1, 2, 7, _BLOCK // 2 + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_one_stream_bit_for_bit(self, count):
        for seed in (0, 1, 12345, _GOLDEN, _MASK64, 2**63, 0xDEADBEEFCAFEBABE):
            assert [u.hex() for u in _uniforms([seed], count)] == self._reference([seed], count), seed

    @pytest.mark.parametrize("count", [1, 3, 50, _BLOCK // 4, _BLOCK + 1])
    def test_many_streams_bit_for_bit(self, count):
        states = [substream_seed(2024, i) for i in range(9)] + [0, _MASK64, 2**64 + 17]
        assert [u.hex() for u in _uniforms(states, count)] == self._reference(states, count)

    def test_lowest_lattice_point_is_two_to_the_minus_54(self):
        seed = _seed_for_first_draw(0)
        assert SplitMix64(seed).uniform() == 2.0**-54
        draws = _uniforms([1, seed, 2], 3)
        assert draws[3] == 2.0**-54
        assert [u.hex() for u in draws] == self._reference([1, seed, 2], 3)

    def test_top_lattice_point_is_just_below_one(self):
        # (2^54 - 1)·2^-54 rounds to 1.0, which must not reach -ln(U)
        seed = _seed_for_first_draw(2**53 - 1)
        assert SplitMix64(seed).uniform() == math.nextafter(1.0, 0.0)
        draws = _uniforms([7, seed], 5)
        assert draws[5] == math.nextafter(1.0, 0.0)
        assert max(draws) < 1.0
        assert [u.hex() for u in draws] == self._reference([7, seed], 5)

    def test_seed_is_taken_mod_two_to_the_64(self):
        for seed in (2**64, 2**64 + 99, 2**128 + 5, 2**300 - 1):
            assert [u.hex() for u in _uniforms([seed, 3], 20)] == self._reference([seed & _MASK64, 3], 20)


class TestSimSpec:
    def test_rejects_both_censoring_mechanisms(self):
        with pytest.raises(ValueError):
            SimSpec(n=5, event_rate=1.0, censor_time=2.0, censor_rate=0.5)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"n": 0, "event_rate": 1.0}, "n must be a positive integer, got 0"),
            ({"n": 5, "event_rate": 0.0}, "event_rate must be finite and > 0, got 0.0"),
            ({"n": 5, "event_rate": 1.0, "censor_time": 0.0}, "censor_time must be finite and > 0, got 0.0"),
            ({"n": 5, "event_rate": 1.0, "censor_rate": -1.0}, "censor_rate must be finite and > 0, got -1.0"),
            ({"n": 5, "event_rate": 1.0, "seed": -1}, "seed must be a nonnegative integer, got -1"),
            ({"n": 5, "event_rate": "1"}, "event_rate must be finite and > 0, got '1'"),
            ({"n": 5, "event_rate": None}, "event_rate must be finite and > 0, got None"),
            ({"n": 5, "event_rate": 1.0, "censor_rate": "0.5"}, "censor_rate must be finite and > 0, got '0.5'"),
        ],
    )
    def test_rejects_invalid_fields(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimSpec(**kwargs)

    @pytest.mark.parametrize("rate", [2.0**1022, 1e308, sys.float_info.max])
    @pytest.mark.parametrize("name", ["event_rate", "censor_rate"])
    def test_rejects_a_rate_whose_smallest_draw_rounds_to_0(self, name, rate):
        # the smallest draw -ln(1 - 2^-53) / rate is 2^-53 / rate, which rounds to 0 from 2^1022 on
        rates = {"event_rate": 1.0, name: rate}
        with pytest.raises(ValueError, match="^" + re.escape(f"{name} {rate!r} is too large: ")):
            SimSpec(n=5, **rates)

    def test_the_largest_accepted_rate_gives_the_least_positive_double(self):
        # the stream starts at the top lattice point, whose draw 2^-53 / (2^1022 - ulp) is 5e-324
        spec = SimSpec(n=3, event_rate=_LARGEST_RATE, seed=_seed_for_first_draw(2**53 - 1))
        assert simulate_trial(spec).times[0] == 5e-324


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


class TestSimulateTrialEqualsScalarDraws:
    """simulate_trial in blocks against subjects drawn one at a time."""

    @pytest.mark.parametrize("censoring", [{}, {"censor_time": 6.0}, {"censor_rate": 0.05}])
    def test_sizes_around_the_block(self, censoring):
        for n in (1, 2, _BLOCK // 2 - 1, _BLOCK // 2, _BLOCK // 2 + 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
            spec = SimSpec(n=n, event_rate=0.1, seed=31 * n + 7, **censoring)
            data = simulate_trial(spec)
            times, events = _scalar_trial(spec)
            assert [t.hex() for t in data.times] == [t.hex() for t in times], (censoring, n)
            assert data.events == events

    @pytest.mark.parametrize("censoring", [{}, {"censor_time": 6.0}, {"censor_rate": 0.05}])
    def test_seed_of_two_to_the_64_or_more_gives_the_seed_mod_two_to_the_64(self, censoring):
        n = 2 * _BLOCK + 3
        base = simulate_trial(SimSpec(n=n, event_rate=0.1, seed=123, **censoring))
        for seed in (2**64 + 123, 2**100 * 3 + 123, 2**512 + 123):
            data = simulate_trial(SimSpec(n=n, event_rate=0.1, seed=seed, **censoring))
            assert data == base
            assert data.total_time == base.total_time
        spec = SimSpec(n=40, event_rate=0.1, seed=2**64 + 123, **censoring)
        config = AnalysisConfig(t0=5.0)
        assert fi_distribution(spec, config, 30) == fi_distribution(SimSpec(**{**vars(spec), "seed": 123}), config, 30)


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
        seed = _seed_for_first_draw(2**53 - 1)
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

    @pytest.mark.parametrize("censoring", [{}, {"censor_time": _MEDIAN}, {"censor_rate": 0.2}])
    def test_partial_last_group_and_replications_spanning_blocks(self, censoring):
        # 50 subjects: 10 or 20 replications per block, and 25 leaves a partial last group;
        # above half a block one replication takes a whole block, or two with two draws a subject
        for n, reps in ((50, 25), (_BLOCK // 2 + 88, 7), (_BLOCK + 300, 3)):
            spec = SimSpec(n=n, event_rate=0.2, seed=4000 + n, **censoring)
            for t0 in (0.8 * _MEDIAN, 0.95 * _MEDIAN):
                config = AnalysisConfig(t0=t0)
                assert fi_distribution(spec, config, reps) == fi_histogram_reference(spec, config, reps), (n, t0)

    @pytest.mark.parametrize("censoring", [{}, {"censor_time": _MEDIAN}, {"censor_rate": 0.2}])
    def test_statistics_are_those_of_the_dataset_bit_for_bit(self, censoring, monkeypatch):
        # the search sees each replication's event count and row-order total, across block ends too
        seen = []

        def recording(events, total_time, censored, config):
            seen.append((events, total_time.hex(), censored))
            return None, None

        monkeypatch.setattr(fragility, "crossing_fi", recording)
        for n, reps in ((50, 25), (_BLOCK + 300, 3)):
            spec = SimSpec(n=n, event_rate=0.2, seed=77 + n, **censoring)
            seen.clear()
            assert fi_distribution(spec, AnalysisConfig(t0=1.0), reps) == {"not_attained": reps}
            datasets = [simulate_trial(SimSpec(**{**vars(spec), "seed": substream_seed(spec.seed, i)}))
                        for i in range(reps)]
            assert seen == [(d.num_events, d.total_time.hex(), d.num_censored) for d in datasets], n

    @pytest.mark.parametrize("censoring", [{}, {"censor_rate": _LARGEST_RATE}])
    def test_the_largest_accepted_rate_is_no_error(self, censoring):
        # replication 0 starts at the top lattice point, whose time 2^-53 / (2^1022 - ulp) is 5e-324
        seed = (_unmix64(_seed_for_first_draw(2**53 - 1)) - _GOLDEN) & _MASK64
        spec = SimSpec(n=20, event_rate=_LARGEST_RATE, seed=seed, **censoring)
        config = AnalysisConfig(t0=1e-300)
        counts = fi_distribution(spec, config, 30)
        assert counts == fi_histogram_reference(spec, config, 30)
        assert "error" not in counts

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
