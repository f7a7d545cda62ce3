import random
from fractions import Fraction

import pytest

from fragsurv.km import km_estimate, km_to_plot_points
from fragsurv.survival import SurvivalDataset

from oracles import km_recount, random_dataset


def ds(*pairs):
    return SurvivalDataset(*zip(*pairs))


def rows(curve):
    """(time, survival, at_risk, events) per distinct event time, the shape km_recount returns."""
    return list(zip(curve.times, curve.survival, curve.at_risk, curve.events))


class TestKmEstimate:
    def test_all_censored_is_flat(self):
        curve = km_estimate(ds((1.0, 0), (2.5, 0), (4.0, 0)))
        assert (curve.times, curve.survival, curve.at_risk, curve.events) == ((), (), (), ())
        assert curve.censor_marks == (1.0, 2.5, 4.0)

    def test_three_observation_product_by_hand(self):
        curve = km_estimate(ds((1.0, 1), (2.0, 0), (3.0, 1)))
        assert list(zip(curve.times, curve.survival)) == [
            (1.0, Fraction(2, 3)),
            (3.0, Fraction(0)),
        ]
        assert list(zip(curve.at_risk, curve.events)) == [(3, 1), (1, 1)]
        assert curve.censor_marks == (2.0,)

    def test_matches_risk_set_recount_exactly(self):
        rng = random.Random(424242)
        for _ in range(60):
            n = rng.randint(1, 40)
            # discretized times force ties, including event/censor ties
            data = ds(*[(rng.randint(1, 12) * 0.5, rng.randint(0, 1)) for _ in range(n)])
            curve = km_estimate(data)
            expected = km_recount(data)
            assert rows(curve) == expected

    def test_float_product_above_300_subjects_matches_exact_recount(self):
        rng = random.Random(301)
        for _ in range(4):
            n = rng.randint(301, 2000)
            times = [rng.randint(1, 120) * 0.25 for _ in range(n)]  # ties within and across kinds
            data = SurvivalDataset(times, [rng.randint(0, 1) for _ in range(n)])
            curve = km_estimate(data)
            expected = km_recount(data)
            assert list(zip(curve.times, curve.at_risk, curve.events)) == [
                (t, at_risk, d) for t, _, at_risk, d in expected
            ]
            for survival, (_, exact, _, _) in zip(curve.survival, expected):
                assert type(survival) is float
                assert abs(survival - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("n,kind", [(300, Fraction), (301, float)])
    def test_survival_is_exact_up_to_300_subjects(self, n, kind):
        data = SurvivalDataset([1.0 + i % 7 for i in range(n)], [1] * n)
        assert set(map(type, km_estimate(data).survival)) == {kind}

    def test_no_censoring_equals_one_minus_ecdf(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 30)
            data = SurvivalDataset([rng.randint(1, 9) * 1.0 for _ in range(n)], [1] * n)
            curve = km_estimate(data)
            times = sorted(data.times)
            for time, survival in zip(curve.times, curve.survival):
                below_or_at = sum(1 for t in times if t <= time)
                assert survival == Fraction(n - below_or_at, n)

    def test_survival_monotone_and_at_risk_strictly_decreasing(self):
        rng = random.Random(99)
        for _ in range(40):
            data = random_dataset(rng, rng.randint(2, 50), rng.uniform(0.0, 0.6))
            curve = km_estimate(data)
            survivals = curve.survival
            assert all(a >= b for a, b in zip(survivals, survivals[1:]))
            assert all(Fraction(0) <= s <= Fraction(1) for s in survivals)
            at_risk = curve.at_risk
            assert all(a > b for a, b in zip(at_risk, at_risk[1:]))

    def test_trailing_censored_observation_adds_no_step(self):
        # the extra subject joins every risk set (so values are recomputed,
        # per the recount oracle) but no new drop appears
        base = ds((1.0, 1), (2.0, 0), (3.0, 1), (4.0, 1))
        extended = ds((1.0, 1), (2.0, 0), (3.0, 1), (4.0, 1), (9.0, 0))
        base_curve = km_estimate(base)
        extended_curve = km_estimate(extended)
        assert extended_curve.times == base_curve.times
        assert list(extended_curve.at_risk) == [at_risk + 1 for at_risk in base_curve.at_risk]
        assert extended_curve.censor_marks == (2.0, 9.0)
        assert rows(extended_curve) == km_recount(extended)

    def test_tied_event_and_censoring_processes_event_first(self):
        # censored subject at t=2 is still at risk for the event at t=2
        curve = km_estimate(ds((2.0, 1), (2.0, 0), (5.0, 0)))
        assert list(zip(curve.times, curve.survival, curve.at_risk)) == [(2.0, Fraction(2, 3), 3)]


class TestKmToPlotPoints:
    def test_flat_curve_two_points(self):
        points, ticks = km_to_plot_points(km_estimate(ds((1.0, 0), (4.0, 0))))
        assert points == [(0.0, 1.0), (4.0, 1.0)]
        assert ticks == [(1.0, 1.0), (4.0, 1.0)]

    def test_single_event(self):
        points, ticks = km_to_plot_points(km_estimate(ds((5.0, 1))))
        assert points == [(0.0, 1.0), (5.0, 1.0), (5.0, 0.0)]
        assert ticks == []

    def test_hand_enumerated_staircase(self):
        points, _ = km_to_plot_points(km_estimate(ds((1.0, 1), (2.0, 0), (3.0, 1))))
        assert points == [
            (0.0, 1.0),
            (1.0, 1.0),
            (1.0, pytest.approx(2.0 / 3.0)),
            (3.0, pytest.approx(2.0 / 3.0)),
            (3.0, 0.0),
        ]

    def test_censor_ticks_sit_on_the_staircase(self):
        # n=4: S = 3/4 on [1,3), 3/8 on [3, ...); ticks at the censor times
        points, ticks = km_to_plot_points(km_estimate(ds((1.0, 1), (2.0, 0), (3.0, 1), (6.0, 0))))
        assert ticks == [(2.0, 0.75), (6.0, 0.375)]
        # trailing censor extends the final level out to t=6
        assert points[-1] == (6.0, 0.375)

    def test_staircase_never_increases(self):
        rng = random.Random(321)
        for _ in range(30):
            data = random_dataset(rng, rng.randint(1, 40), rng.uniform(0.0, 0.7))
            points, _ = km_to_plot_points(km_estimate(data))
            assert points[0] == (0.0, 1.0)
            ys = [y for _, y in points]
            assert all(a >= b for a, b in zip(ys, ys[1:]))
            xs = [x for x, _ in points]
            assert all(a <= b for a, b in zip(xs, xs[1:]))

    @pytest.mark.parametrize("tied", [False, True])
    def test_censor_ticks_match_a_brute_force_lookup(self, tied):
        rng = random.Random(2718 + tied)
        for _ in range(40):
            n = rng.randint(1, 80)
            if tied:
                # coarse grid: ties among events, among censorings and between both
                data = ds(*[(rng.randint(1, 10) * 0.5, rng.randint(0, 1)) for _ in range(n)])
            else:
                data = random_dataset(rng, n, rng.uniform(0.0, 0.9))
            curve = km_estimate(data)
            _, ticks = km_to_plot_points(curve)
            expected = []
            for t in curve.censor_marks:
                at_or_before = [s for u, s in zip(curve.times, curve.survival) if u <= t]
                expected.append((t, float(at_or_before[-1]) if at_or_before else 1.0))
            assert ticks == expected
