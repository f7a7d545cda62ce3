"""Seeded input generation and the op list of each benchmark workload.

Everything here is stdlib-only and deterministic in the seed: the same seed
writes byte-identical CSVs and builds the same argv lists. Each input carries
the sufficient statistics (events, censored, total time) the generator
knows, which the oracle uses instead of re-reading the program's output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

LN2 = math.log(2.0)
PRIOR_SHAPE = 0.5
PRIOR_RATE = 0.5
P0 = 0.7

SENSITIVITY_GRID = "p0=0.6,0.7,0.8;prior_shape=0.25,0.5,1"

# trial-session: phase-II sizes, log-spaced over 20..300 (the bundled case
# studies have n = 28..51). Baselines and event shares are fixed lists, so a
# seed changes the data but not the shape of the session.
TRIAL_SIZES = (20, 23, 27, 31, 36, 42, 49, 57, 66, 76, 88, 102, 118, 137, 159, 184, 213, 247, 286, 300)
TRIAL_BASELINES = tuple(0.75 + 0.24 * i / (len(TRIAL_SIZES) - 1) for i in range(len(TRIAL_SIZES)))
TRIAL_BASELINE_ORDER = (7, 15, 2, 11, 19, 4, 9, 0, 13, 17, 6, 1, 16, 10, 3, 18, 8, 14, 5, 12)
TRIAL_EVENT_SHARES = (0.55, 0.6, 0.65, 0.7, 0.75)

# cohort-scale: registry sizes, thresholds z posterior SDs above one half
# (tests/oracles.threshold_config extended below one half and past the point
# where the baseline saturates to 1.0 in double precision).
COHORT_SIZES = (5000, 10000, 20000)
COHORT_Z = (-1.0, 1.3, 4.0, 9.0)
COHORT_KM_Z = 1.3
COHORT_EVENT_SHARE = 0.7
# `fi --with-km` runs on the two smaller cohorts and on a 3e4-row trial of
# its own, whose exact KM denominators (about 5.5k digits) pass Python's
# 4300-digit int-to-str limit on every seed, so that defect shows as a
# failed op on every run. At n = 2e4 they reach 3.8k-4.4k digits, and
# whether the op fails would depend on the seed.
COHORT_KM_SIZES = (5000, 10000, 30000)
COHORT_SIM_N = 20000

# monte-carlo: at n = 50 this mixes attained FIs, not-attained and
# not-applicable outcomes; several invocations per session give the latency
# percentiles ops at both sizes.
MC_RATE = 0.1
MC_CENSOR_RATE = 0.05
MC_T0 = 5.0
MC_RUNS = ((50, 250),) * 5 + ((200, 60),) * 3


@dataclass(frozen=True)
class Trial:
    """One generated CSV with the statistics the generator knows."""

    path: str
    n: int
    events: int
    censored: int
    total_time: float

    def stats(self) -> dict:
        return {"csv": self.path, "n": self.n, "events": self.events,
                "censored": self.censored, "total_time": self.total_time}


@dataclass
class Op:
    """One program invocation: argv for fragsurv.cli.main plus what the oracle needs."""

    kind: str
    argv: list[str]
    spec: dict
    outputs: list[str] = field(default_factory=list)
    rows: int = 0
    searches: int = 0
    n: int = 0
    same_work: str = ""
    """Ops with the same non-empty key do the same work and share one latency estimate."""

    def label(self) -> str:
        return " ".join(a if len(a) < 48 else "..." + a[-24:] for a in self.argv)


@dataclass
class Workload:
    name: str
    out: Path
    ops: list[Op]
    cold_start_argv: list[str]
    cold_start_spec: dict
    scaling_kind: str
    """Op kind whose wall time per search is regressed on log n for fi_scaling_exp."""


def write_trial(path: Path, rng: random.Random, n: int, event_share: float,
                decimals: int | None) -> Trial:
    """Exponential follow-up times with exactly round(n * event_share) events, in shuffled order."""
    events = round(n * event_share)
    flags = [1] * events + [0] * (n - events)
    rng.shuffle(flags)
    lines = ["time,status"]
    total = 0.0
    for flag in flags:
        t = rng.expovariate(0.1)
        t = max(round(t, decimals), 10.0 ** -decimals) if decimals is not None else t + 1e-6
        lines.append(f"{t!r},{flag}")
        total += t
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Trial(str(path), n, events, n - events, total)


def t0_for_baseline(trial: Trial, baseline: float) -> float:
    """Threshold whose posterior exceedance probability is about `baseline`.

    Wilson-Hilferty inverse of the Gamma CDF; only the rough placement
    matters, the oracle recomputes the exact baseline.
    """
    a = PRIOR_SHAPE + trial.events
    z = NormalDist().inv_cdf(baseline)
    x0 = a * (1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))) ** 3
    return (PRIOR_RATE + trial.total_time) * LN2 / x0


def t0_for_z(trial: Trial, z: float) -> float:
    """Threshold putting the baseline z posterior SDs above one half."""
    a = PRIOR_SHAPE + trial.events
    return (PRIOR_RATE + trial.total_time) * LN2 / (a + z * math.sqrt(a))


def _config(t0: float) -> dict:
    return {"t0": t0, "p0": P0, "prior_shape": PRIOR_SHAPE, "prior_rate": PRIOR_RATE}


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _mc_seed(seed: int, index: int) -> int:
    return random.Random(f"monte-carlo:{seed}:{index}").getrandbits(32)


def build(name: str, seed: int, inputs: Path, out: Path) -> Workload:
    """Write the workload's inputs under `inputs` and return its ops (outputs go to `out`)."""
    inputs.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    ops, scaling_kind = _BUILDERS[name](seed, inputs, out)
    # Every workload times the same kind of cold start: a fresh interpreter
    # running analyze on a 20-row trial.
    small = write_trial(inputs / "small.csv", _rng(name, seed, -1), TRIAL_SIZES[0], 0.6, decimals=2)
    t0 = t0_for_baseline(small, 0.9)
    cold = ["analyze", small.path, "--t0", repr(t0)]
    return Workload(name, out, ops, cold, {"input": small.stats(), "config": _config(t0)}, scaling_kind)


def _trial_session(seed: int, inputs: Path, out: Path) -> tuple[list[Op], str]:
    ops: list[Op] = []
    for i, n in enumerate(TRIAL_SIZES):
        trial = write_trial(inputs / f"trial{i:02d}.csv", _rng("trial-session", seed, i), n,
                            TRIAL_EVENT_SHARES[i % len(TRIAL_EVENT_SHARES)], decimals=2)
        t0 = t0_for_baseline(trial, TRIAL_BASELINES[TRIAL_BASELINE_ORDER[i]])
        t0s = repr(t0)
        base = {"input": trial.stats(), "config": _config(t0)}
        stem = out / f"trial{i:02d}"
        ops.append(Op("analyze", ["analyze", trial.path, "--t0", t0s, "--out", f"{stem}.analyze.json"],
                      base, [f"{stem}.analyze.json"], rows=n, n=n))
        ops.append(Op("fi", ["fi", trial.path, "--t0", t0s, "--out", f"{stem}.fi.json"],
                      base, [f"{stem}.fi.json"], rows=n, searches=1, n=n))
        ops.append(Op("fi_km_text", ["fi", trial.path, "--t0", t0s, "--with-km", "--format", "text",
                                     "--out", f"{stem}.fikm.txt"],
                      base, [f"{stem}.fikm.txt"], rows=n, searches=1, n=n))
        ops.append(Op("sensitivity", ["sensitivity", trial.path, "--t0", t0s, "--grid", SENSITIVITY_GRID,
                                      "--out", f"{stem}.sens.json"],
                      {**base, "grid": SENSITIVITY_GRID}, [f"{stem}.sens.json"], rows=n, n=n))
        ops.append(Op("km", ["km", trial.path, "--out", f"{stem}.km.svg", "--points-out", f"{stem}.km.json"],
                      base, [f"{stem}.km.svg", f"{stem}.km.json"], rows=n, n=n))
    ops.append(Op("reproduce", ["reproduce-paper", "--out", str(out / "reproduce.json")], {},
                  [str(out / "reproduce.json")]))
    return ops, "fi"


def _cohort_scale(seed: int, inputs: Path, out: Path) -> tuple[list[Op], str]:
    ops: list[Op] = []
    trials: dict[int, Trial] = {}
    for i, n in enumerate(COHORT_SIZES):
        trial = trials[n] = write_trial(inputs / f"cohort{n}.csv", _rng("cohort-scale", seed, i), n,
                                        COHORT_EVENT_SHARE, decimals=None)
        for z in COHORT_Z:
            t0 = t0_for_z(trial, z)
            t0s = repr(t0)
            base = {"input": trial.stats(), "config": _config(t0)}
            stem = out / f"cohort{n}_z{z:g}"
            # analyze does the same work at every threshold but one final
            # P(a, x). The z = -1 op is kept apart: there that P raises
            # today, before the report is hashed and rendered.
            ops.append(Op("analyze", ["analyze", trial.path, "--t0", t0s, "--out", f"{stem}.analyze.json"],
                          base, [f"{stem}.analyze.json"], rows=n, n=n,
                          same_work=f"analyze:{n}" if z > 0 else ""))
            kind = "fi_scaling" if z == COHORT_KM_Z else "fi"
            ops.append(Op(kind, ["fi", trial.path, "--t0", t0s, "--out", f"{stem}.fi.json"],
                          base, [f"{stem}.fi.json"], rows=n, searches=1, n=n))
    for j, n in enumerate(COHORT_KM_SIZES):
        trial = trials.get(n) or write_trial(inputs / f"cohort{n}.csv",
                                             _rng("cohort-scale", seed, len(COHORT_SIZES) + j), n,
                                             COHORT_EVENT_SHARE, decimals=None)
        t0 = t0_for_z(trial, COHORT_KM_Z)
        stem = out / f"cohort{n}_km"
        ops.append(Op("fi_km", ["fi", trial.path, "--t0", repr(t0), "--with-km", "--out", f"{stem}.fi.json"],
                      {"input": trial.stats(), "config": _config(t0)}, [f"{stem}.fi.json"],
                      rows=n, searches=1, n=n))
    sim = {"n": COHORT_SIM_N, "rate": MC_RATE, "censor_rate": MC_CENSOR_RATE, "seed": _mc_seed(seed, 99)}
    path = str(out / "simulated.csv")
    ops.append(Op("simulate_csv", ["simulate", "--n", str(sim["n"]), "--rate", repr(sim["rate"]),
                                   "--censor-rate", repr(sim["censor_rate"]), "--seed", str(sim["seed"]),
                                   "--out", path],
                  {"sim": sim}, [path], rows=COHORT_SIM_N, n=COHORT_SIM_N))
    return ops, "fi_scaling"


def _monte_carlo(seed: int, inputs: Path, out: Path) -> tuple[list[Op], str]:
    ops: list[Op] = []
    for j, (n, reps) in enumerate(MC_RUNS):
        sim = {"n": n, "rate": MC_RATE, "censor_rate": MC_CENSOR_RATE, "seed": _mc_seed(seed, j),
               "replications": reps, "config": _config(MC_T0)}
        path = str(out / f"mc{j}.json")
        ops.append(Op("simulate_mc", ["simulate", "--n", str(n), "--rate", repr(MC_RATE),
                                      "--censor-rate", repr(MC_CENSOR_RATE), "--seed", str(sim["seed"]),
                                      "--replications", str(reps), "--t0", repr(MC_T0), "--out", path],
                      {"sim": sim}, [path], rows=n * reps, searches=reps, n=n))
    return ops, "simulate_mc"


_BUILDERS = {
    "trial-session": _trial_session,
    "cohort-scale": _cohort_scale,
    "monte-carlo": _monte_carlo,
}
WORKLOADS = tuple(_BUILDERS)
