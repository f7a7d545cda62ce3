"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import random
import time
from contextlib import contextmanager

import pytest
from scipy.integrate import quad

from fragsurv.cli import main
from fragsurv.fragility import NotFragileApplicableError, calibrate, fragility_index
from fragsurv.km import km_estimate
from fragsurv.sim import SimSpec, fi_distribution, simulate_trial
from fragsurv.specfun import reg_lower_inc_gamma
from fragsurv.survival import (
    AnalysisConfig,
    GammaParams,
    SurvivalDataset,
    log_likelihood,
    posterior_prob_median_exceeds,
    posterior_update,
)

from oracles import (
    erf_series,
    exhaustive_fi,
    gamma_log_density,
    km_recount,
    random_dataset,
    threshold_config,
)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s >= {budget_seconds}s"
        )
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS ({elapsed:.2f}s) - {description}")


def test_criterion_1_special_function_accuracy():
    with criterion(1, "special-function accuracy", 5.0):
        for i in range(1000):
            x = 50.0 * i / 999
            assert abs(reg_lower_inc_gamma(1.0, x) - (1.0 - math.exp(-x))) <= 1e-12
        for i in range(500):
            x = 20.0 * i / 499
            assert abs(reg_lower_inc_gamma(0.5, x) - erf_series(math.sqrt(x))) <= 1e-10
        rng = random.Random(1001)
        for _ in range(1000):
            a = rng.uniform(0.1, 60.0)
            x = rng.uniform(1e-6, 80.0)
            term = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0))
            lhs = reg_lower_inc_gamma(a + 1.0, x)
            rhs = reg_lower_inc_gamma(a, x) - term
            assert abs(lhs - rhs) <= 1e-11


def test_criterion_2_conjugacy_oracle():
    with criterion(2, "conjugacy against numerical integration", 30.0):
        rng = random.Random(2002)
        for _ in range(50):
            n = rng.randint(1, 5)
            data = SurvivalDataset(*zip(*[(rng.uniform(0.5, 10.0), rng.randint(0, 1)) for _ in range(n)]))
            prior = GammaParams(rng.uniform(0.4, 3.0), rng.uniform(0.4, 3.0))
            posterior = posterior_update(prior, data)

            def unnormalized(lam):
                return math.exp(
                    log_likelihood(data, lam) + gamma_log_density(lam, prior.shape, prior.rate)
                )

            upper = (posterior.shape + 50.0 * math.sqrt(posterior.shape)) / posterior.rate
            norm, err = quad(unnormalized, 0.0, upper, epsabs=1e-15, epsrel=1e-12, limit=400)
            assert err <= 1e-7 * norm
            mode_scale = posterior.shape / posterior.rate
            for j in range(1, 21):
                lam = j * mode_scale / 10.0
                numeric = unnormalized(lam) / norm
                exact = math.exp(gamma_log_density(lam, posterior.shape, posterior.rate))
                assert abs(numeric - exact) <= 1e-6


def test_criterion_3_case_study_reproduction():
    cases = [
        ("lung-cancer", 22.5, 7.0, 0.935, 5, 30),
        ("pembrolizumab-hcc", 20.5, 3.5, 0.958, 6, 28),
        ("palbociclib-breast", 31.5, 15.0, 0.948, 6, 51),
    ]
    # Each published FI is one step before the strict crossing (README,
    # "Known discrepancy").
    description = (
        "case-study reproduction (strict FI equals exhaustive scan; "
        "published FI is the last count still holding)"
    )
    with criterion(3, description, 1.0):
        failures = []
        for name, shape, t0, reported_prob, published_fi, n in cases:
            events = int(shape - 0.5)
            prior = GammaParams(0.5, 0.5)
            posterior_rate = calibrate(shape, reported_prob, t0)
            achieved = posterior_prob_median_exceeds(GammaParams(shape, posterior_rate), t0)
            assert abs(achieved - reported_prob) <= 1e-6
            per_subject = (posterior_rate - prior.rate) / n
            data = SurvivalDataset([per_subject] * n, [1] * events + [0] * (n - events))
            config = AnalysisConfig(t0=t0, p0=0.7, prior=prior)
            result = fragility_index(data, config)
            probs = dict(result.trajectory)
            trajectory = [(k, round(p, 6)) for k, p in result.trajectory]
            expected = exhaustive_fi(data, config)
            if result.fi != expected:
                failures.append(
                    f"{name}: computed FI {result.fi_text} != exhaustive scan {expected} "
                    f"(trajectory {trajectory})"
                )
            still_holds = probs.get(published_fi, -math.inf) >= config.p0
            crosses_next = probs.get(published_fi + 1, math.inf) < config.p0
            if not (still_holds and crosses_next and result.fi == published_fi + 1):
                failures.append(
                    f"{name}: published FI {published_fi} is not the last count still "
                    f"holding before a crossing at {published_fi + 1}; computed FI "
                    f"{result.fi_text} (trajectory {trajectory})"
                )
        assert not failures, "; ".join(failures)


def test_criterion_4_fragility_index_oracle_equivalence():
    with criterion(4, "fragility index equals exhaustive scan; order-free", 10.0):
        rng = random.Random(4004)
        attained = 0
        for _ in range(200):
            data = random_dataset(rng, rng.randint(2, 100), rng.uniform(0.0, 0.8))
            config = threshold_config(data, z_offset=rng.uniform(0.3, 3.5), p0=rng.uniform(0.55, 0.9))
            expected = exhaustive_fi(data, config)
            if expected == "not_applicable":
                with pytest.raises(NotFragileApplicableError):
                    fragility_index(data, config)
                continue
            result = fragility_index(data, config)
            got = result.fi if result.attained else "not_attained"
            assert got == expected
            probs = [p for _, p in result.trajectory]
            assert all(a > b for a, b in zip(probs, probs[1:]))
            if result.attained:
                attained += 1
            # order independence: random flip order, bit-identical probabilities
            censored = [i for i, e in enumerate(data.events) if e == 0]
            rng.shuffle(censored)
            events = bytearray(data.events)
            prob_by_k = dict(result.trajectory)
            for k, idx in enumerate(censored[: len(prob_by_k) - 1], start=1):
                events[idx] = 1
                flipped = SurvivalDataset(data.times, events)
                posterior = posterior_update(config.prior, flipped)
                assert posterior_prob_median_exceeds(posterior, config.t0) == prob_by_k[k]
        assert attained >= 40


def test_criterion_5_monotonicity_in_p0_and_t0():
    with criterion(5, "raising p0 or t0 never increases the index", 30.0):
        rng = random.Random(5005)
        for _ in range(50):
            data = random_dataset(rng, rng.randint(4, 60), rng.uniform(0.2, 0.8))
            base = threshold_config(data, z_offset=rng.uniform(1.0, 3.0), p0=0.5)

            def fi_at(config):
                try:
                    result = fragility_index(data, config)
                except NotFragileApplicableError:
                    return None
                return result.fi if result.attained else math.inf

            p0_grid = [0.5 + 0.05 * i for i in range(10)]  # 0.5 .. 0.95
            values = [fi_at(AnalysisConfig(t0=base.t0, p0=p0, prior=base.prior)) for p0 in p0_grid]
            seen_na = False
            last = math.inf
            for value in values:
                if value is None:
                    seen_na = True
                    continue
                assert not seen_na  # once inapplicable, stays inapplicable
                assert value <= last
                last = value

            t0_grid = [base.t0 * s for s in (0.6, 0.8, 1.0, 1.3, 1.7, 2.2)]
            values = [fi_at(AnalysisConfig(t0=t0, p0=0.7, prior=base.prior)) for t0 in t0_grid]
            seen_na = False
            last = math.inf
            for value in values:
                if value is None:
                    seen_na = True
                    continue
                assert not seen_na
                assert value <= last
                last = value


def test_criterion_6_km_oracle():
    with criterion(6, "product-limit equals exact risk-set recount", 10.0):
        rng = random.Random(6006)
        for _ in range(100):
            n = rng.randint(1, 50)
            if rng.random() < 0.5:
                rows = [(rng.randint(1, 15) * 0.5, rng.randint(0, 1)) for _ in range(n)]
            else:
                rows = [(rng.uniform(0.1, 30.0), rng.randint(0, 1)) for _ in range(n)]
            data = SurvivalDataset(*zip(*rows))
            curve = km_estimate(data)
            assert list(zip(curve.times, curve.survival, curve.at_risk, curve.events)) == km_recount(data)
        # no censoring: exact 1 - ECDF at every observed time
        for _ in range(20):
            n = rng.randint(1, 30)
            data = SurvivalDataset([rng.randint(1, 9) * 1.0 for _ in range(n)], [1] * n)
            from fractions import Fraction

            curve = km_estimate(data)
            for time, survival in zip(curve.times, curve.survival):
                assert survival == Fraction(n - sum(1 for t in data.times if t <= time), n)


def test_criterion_7_cli_contract(tmp_path, capsys):
    with criterion(7, "CLI determinism, exit-code taxonomy, reproduce-paper", 30.0):
        demo = tmp_path / "demo.csv"
        demo.write_text("time,status\n2,1\n3,0\n1,1\n8,0\n4,1\n", encoding="utf-8")

        # determinism: byte-identical JSON
        assert main(["fi", str(demo), "--t0", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["fi", str(demo), "--t0", "2"]) == 0
        assert capsys.readouterr().out == first

        # exit-code taxonomy: 0 covered above; 2, 3, 4
        assert main(["fi", str(demo), "--t0", "2", "--p0", "0.99"]) == 2
        capsys.readouterr()
        bad = tmp_path / "bad.csv"
        bad.write_text("time,status\n-1,1\n", encoding="utf-8")
        assert main(["fi", str(bad), "--t0", "2"]) == 3
        capsys.readouterr()
        assert main(["reproduce-paper"]) == 4  # mismatch path doubles as code-4 coverage
        first_run = capsys.readouterr()

        # reproduce-paper end to end: deterministic bundle reporting the
        # documented one-step offset from the published FIs as a mismatch
        assert main(["reproduce-paper"]) == 4
        second_run = capsys.readouterr()
        assert second_run.out == first_run.out
        bundle = json.loads(second_run.out)
        names = [c["case"] for c in bundle["cases"]]
        assert names == ["lung-cancer", "pembrolizumab-hcc", "palbociclib-breast"]
        for case in bundle["cases"]:
            assert case["initial_probability_matches"] is True
            assert case["computed_fi"] == case["published_fi"] + 1, case["case"]
        assert bundle["all_match"] is False
        mismatch_lines = [
            line for line in second_run.err.splitlines() if "reproduction-mismatch" in line
        ]
        assert len(mismatch_lines) == len(names)
        for name, line in zip(names, mismatch_lines):
            assert f"reproduction-mismatch: {name}:" in line


def test_criterion_8_simulation_determinism():
    with criterion(8, "seeded simulation determinism and CLT bound", 10.0):
        spec = SimSpec(n=10_000, event_rate=0.2, seed=20240101)
        a = simulate_trial(spec)
        b = simulate_trial(spec)
        assert (a.times, a.events) == (b.times, b.events)
        csv_a = "\n".join(f"{t!r},{e}" for t, e in zip(a.times, a.events))
        csv_b = "\n".join(f"{t!r},{e}" for t, e in zip(b.times, b.events))
        assert csv_a == csv_b  # byte-identical rendering

        mean = sum(a.times) / a.n
        standard_error = 5.0 / math.sqrt(10_000)
        assert abs(mean - 5.0) <= 3 * standard_error

        hist_spec = SimSpec(n=20, event_rate=0.2, censor_rate=0.15, seed=8)
        config = AnalysisConfig(t0=2.5)
        h1 = fi_distribution(hist_spec, config, 100)
        h2 = fi_distribution(hist_spec, config, 100)
        render = lambda h: json.dumps({str(k): v for k, v in h.items()}, sort_keys=True)
        assert render(h1) == render(h2)  # byte-identical histogram rendering
        assert h1 == h2
        assert sum(h1.values()) == 100
