"""Independent oracle for benchmark ops; runs as a separate checker process.

Expectations come from the generator's sufficient statistics (events,
censored, total time) and scipy's incomplete gamma, never from fragsurv,
which this module does not import. Kaplan-Meier is recounted from the CSV
(exactly, in Fractions, for n <= 300), and Monte Carlo histograms are
recomputed replication by replication from an independent SplitMix64.

Run as a script, it reads one JSON list of op records per stdin line and
answers each with one JSON list of failures on stdout. Living in its own
process keeps scipy and the parsed reports out of the benchmark's peak RSS.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from itertools import product

import numpy as np
from scipy.special import gammainc, gammaincinv

LN2 = math.log(2.0)
PROB_TOL = 1e-9
PUBLISHED_PROB_TOL = 1e-6
EXACT_KM_MAX_N = 300

EXIT_OK, EXIT_NOT_APPLICABLE, EXIT_NUMERICAL_ERROR = 0, 2, 4

# Published case studies (n, events, t0, initial probability) and the FIs
# the strict definition gives for them; the published FIs are one less.
CASE_STUDIES = {
    "lung-cancer": (30, 22, 7.0, 0.935, 6),
    "pembrolizumab-hcc": (28, 20, 3.5, 0.958, 7),
    "palbociclib-breast": (51, 31, 15.0, 0.948, 7),
}
CASE_PRIOR = (0.5, 0.5)
CASE_P0 = 0.7


class Mismatch(Exception):
    """The program's output disagrees with the oracle."""


def search(shape: float, x0: float, p0: float, censored: int) -> dict:
    """Strict-definition FI scan: first k with P(shape + k, x0) strictly below p0."""
    probs = gammainc(shape + np.arange(censored + 1, dtype=float), x0)
    baseline = float(probs[0])
    if not baseline > p0:
        return {"baseline": baseline, "applicable": False}
    below = np.nonzero(probs[1:] < p0)[0]
    fi = int(below[0]) + 1 if below.size else None
    stop = fi if fi is not None else censored
    return {"baseline": baseline, "applicable": True, "fi": fi,
            "trajectory": [float(p) for p in probs[: stop + 1]]}


def expected_search(stats: dict, config: dict) -> dict:
    shape = config["prior_shape"] + stats["events"]
    rate = config["prior_rate"] + stats["total_time"]
    return _search(shape, rate * LN2 / config["t0"], config["p0"], stats["censored"])


# Every session repeats the same inputs; the checker answers them from memory.
_search = functools.lru_cache(maxsize=4096)(search)


@functools.lru_cache(maxsize=256)
def read_csv(path: str) -> list[tuple[float, int]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return [(float(t), int(s)) for t, s in rows[1:]]


@functools.lru_cache(maxsize=256)
def km_steps(path: str):
    rows = read_csv(path)
    return km_recount(rows, exact=len(rows) <= EXACT_KM_MAX_N)


def km_recount(rows: list[tuple[float, int]], exact: bool):
    """Product-limit steps (time, survival, at_risk, events); risk set counts times >= t."""
    times = sorted(t for t, _ in rows)
    events_at: dict[float, int] = {}
    for t, s in rows:
        if s == 1:
            events_at[t] = events_at.get(t, 0) + 1
    survival = Fraction(1) if exact else 1.0
    steps = []
    lo = 0
    for t in sorted(events_at):
        while times[lo] < t:
            lo += 1
        at_risk = len(times) - lo
        d = events_at[t]
        survival *= Fraction(at_risk - d, at_risk) if exact else (at_risk - d) / at_risk
        steps.append((t, survival, at_risk, d))
    return steps


def close(actual, expected: float, tol: float, what: str) -> None:
    if not isinstance(actual, (int, float)) or not abs(actual - expected) <= tol:
        raise Mismatch(f"{what}: got {actual!r}, oracle {expected!r}")


def same(actual, expected, what: str) -> None:
    if actual != expected:
        raise Mismatch(f"{what}: got {actual!r}, oracle {expected!r}")


# ---------------------------------------------------------------------------
# Report checks


def check_input_block(report: dict, stats: dict) -> None:
    block = report["input"]
    for key in ("n", "events", "censored"):
        same(block[key], stats[key], f"input.{key}")
    close(block["total_time"], stats["total_time"], 1e-9 * max(1.0, stats["total_time"]), "input.total_time")
    with open(stats["csv"], "rb") as handle:
        same(str(block["sha256"]), hashlib.sha256(handle.read()).hexdigest(), "input.sha256")


def check_analysis(report: dict, spec: dict, fragility: bool) -> None:
    stats, config = spec["input"], spec["config"]
    expected = expected_search(stats, config)
    check_input_block(report, stats)
    close(report["posterior"]["shape"], config["prior_shape"] + stats["events"], 1e-9, "posterior.shape")
    close(report["initial_probability"], expected["baseline"], PROB_TOL, "initial_probability")
    frag = report["fragility"]
    if not fragility:
        same(frag, None, "fragility")
        return
    same(frag["applicable"], expected["applicable"], "fragility.applicable")
    if not expected["applicable"]:
        return
    same(frag["fi"], expected["fi"], "fragility.fi")
    same(frag["censored_count"], stats["censored"], "fragility.censored_count")
    if expected["fi"] is not None:
        fq = Fraction(expected["fi"], stats["n"])
        same((frag["fq"]["numerator"], frag["fq"]["denominator"]), (fq.numerator, fq.denominator), "fragility.fq")
    trajectory = frag["trajectory"]
    same(len(trajectory), len(expected["trajectory"]), "trajectory length")
    for k, (entry, prob) in enumerate(zip(trajectory, expected["trajectory"])):
        same(entry["k"], k, "trajectory k")
        close(entry["probability"], prob, PROB_TOL, f"trajectory[{k}]")


def check_km_block(km: dict, csv_path: str) -> None:
    rows = read_csv(csv_path)
    exact = len(rows) <= EXACT_KM_MAX_N
    steps = km_steps(csv_path)
    same(len(km["steps"]), len(steps), "km step count")
    for got, (t, surv, at_risk, d) in zip(km["steps"], steps):
        same((got["time"], got["at_risk"], got["events"]), (t, at_risk, d), "km step")
        if exact:
            same(str(got["survival_exact"]), f"{surv.numerator}/{surv.denominator}", f"km survival_exact at {t}")
            same(got["survival"], float(surv), f"km survival at {t}")
        else:
            close(got["survival"], surv, 1e-9 * surv, f"km survival at {t}")
    same(list(km["censor_marks"]), sorted(t for t, s in rows if s == 0), "km censor_marks")


def check_sensitivity(report: dict, spec: dict) -> None:
    stats, config = spec["input"], spec["config"]
    axes = {}
    for chunk in spec["grid"].split(";"):
        name, _, values = chunk.partition("=")
        axes[name] = [float(v) for v in values.split(",")]
    expected_params = [dict(zip(axes, combo)) for combo in product(*axes.values())]
    cells = {json.dumps(c["params"], sort_keys=True): c for c in report["cells"]}
    same(len(report["cells"]), len(expected_params), "cell count")
    for params in expected_params:
        cell = cells.get(json.dumps(params, sort_keys=True))
        if cell is None:
            raise Mismatch(f"missing cell {params}")
        expected = expected_search(stats, {**config, **params})
        close(cell["initial_probability"], expected["baseline"], PROB_TOL, f"cell {params} initial_probability")
        if not expected["applicable"]:
            same(cell["status"], "not_applicable", f"cell {params} status")
        else:
            same((cell["status"], cell["fi"]), ("ok", expected["fi"]), f"cell {params}")


@functools.lru_cache(maxsize=256)
def staircase(path: str) -> tuple[list, list]:
    rows = read_csv(path)
    steps = km_steps(path)
    points = [(0.0, 1.0)]
    level = 1.0
    for t, surv, _, _ in steps:
        points += [(t, level), (t, float(surv))]
        level = float(surv)
    last = max(t for t, _ in rows)
    if last > points[-1][0]:
        points.append((last, level))
    ticks = []
    for t in sorted(t for t, s in rows if s == 0):
        ticks.append((t, next((float(s) for u, s, _, _ in reversed(steps) if u <= t), 1.0)))
    return points, ticks


def check_km_command(spec: dict, svg_path: str, points_path: str) -> None:
    points, ticks = staircase(spec["input"]["csv"])
    with open(points_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    same([(p["time"], p["survival"]) for p in payload["points"]], points, "km points")
    same([(p["time"], p["survival"]) for p in payload["censor_ticks"]], ticks, "km censor ticks")
    root = ET.parse(svg_path).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    polyline = root.find(f"{ns}polyline")
    same(len(polyline.get("points").split()), len(points), "svg polyline points")
    same(sum(1 for e in root.iter(f"{ns}line") if e.get("class") == "censor-tick"), len(ticks), "svg censor ticks")


def check_reproduce(report: dict) -> None:
    same(report["all_match"], False, "all_match")
    same([c["case"] for c in report["cases"]], list(CASE_STUDIES), "cases")
    shape0, _ = CASE_PRIOR
    for case in report["cases"]:
        n, events, t0, published, strict_fi = CASE_STUDIES[case["case"]]
        shape = shape0 + events
        expected = search(shape, float(gammaincinv(shape, published)), CASE_P0, n - events)
        same(expected["fi"], strict_fi, f"{case['case']} oracle FI")
        same(case["computed_fi"], strict_fi, f"{case['case']} computed_fi")
        close(case["computed_initial_probability"], published, PUBLISHED_PROB_TOL, f"{case['case']} initial probability")
        for k, (entry, prob) in enumerate(zip(case["trajectory"], expected["trajectory"])):
            close(entry["probability"], prob, PROB_TOL, f"{case['case']} trajectory[{k}]")
        same(len(case["trajectory"]), len(expected["trajectory"]), f"{case['case']} trajectory length")


# ---------------------------------------------------------------------------
# Simulation: SplitMix64 (Steele, Lea & Flood 2014) with substream i of a
# seed feeding replication i.

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def simulate(n: int, rate: float, censor_rate: float, seed: int) -> list[tuple[float, int]]:
    state = seed & _MASK64
    out = []
    for _ in range(n):
        draws = []
        for _ in range(2):
            state = (state + _GOLDEN) & _MASK64
            draws.append(((_mix64(state) >> 11) + 0.5) * 2.0**-53)
        t = -math.log(draws[0]) / rate
        c = -math.log(draws[1]) / censor_rate
        out.append((min(t, c), int(t <= c)))
    return out


@functools.lru_cache(maxsize=64)
def _histogram(key: str) -> dict[str, int]:
    return histogram(json.loads(key))


def histogram(sim: dict) -> dict[str, int]:
    config = sim["config"]
    counts: dict = {}
    for i in range(sim["replications"]):
        seed = _mix64((sim["seed"] + (i + 1) * _GOLDEN) & _MASK64)
        rows = simulate(sim["n"], sim["rate"], sim["censor_rate"], seed)
        events = sum(s for _, s in rows)
        stats = {"events": events, "censored": len(rows) - events, "total_time": sum(t for t, _ in rows)}
        result = expected_search(stats, config)
        if not result["applicable"]:
            key = "not_applicable"
        else:
            key = result["fi"] if result["fi"] is not None else "not_attained"
        counts[key] = counts.get(key, 0) + 1
    ordered = {str(k): counts[k] for k in sorted(k for k in counts if isinstance(k, int))}
    ordered.update({k: counts[k] for k in ("not_attained", "not_applicable") if k in counts})
    return ordered


def check_simulate_mc(report: dict, spec: dict) -> None:
    sim = spec["sim"]
    same(report["replications"], sim["replications"], "replications")
    same(report["counts"], _histogram(json.dumps(sim, sort_keys=True)), "histogram")


@functools.lru_cache(maxsize=4)
def simulated_csv(n: int, rate: float, censor_rate: float, seed: int) -> str:
    rows = simulate(n, rate, censor_rate, seed)
    return "time,status\n" + "".join(f"{t!r},{s}\n" for t, s in rows)


def check_simulate_csv(spec: dict, path: str) -> None:
    sim = spec["sim"]
    with open(path, encoding="utf-8") as handle:
        same(handle.read() == simulated_csv(sim["n"], sim["rate"], sim["censor_rate"], sim["seed"]),
             True, "simulated CSV bytes")


# ---------------------------------------------------------------------------
# Dispatch


def parse_text_report(text: str) -> dict:
    """Rebuild the nested report from the `a.b.0.c: value` text rendering."""
    root: dict = {}
    for line in text.splitlines():
        key, _, raw = line.partition(": ")
        value = {"null": None, "true": True, "false": False}.get(raw, raw)
        if isinstance(value, str):
            for cast in (int, float):
                try:
                    value = cast(raw)
                    break
                except ValueError:
                    pass
        parts = key.split(".")
        node = root
        for part, nxt in zip(parts, parts[1:]):
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return _listify(root)


def _listify(node):
    if not isinstance(node, dict):
        return node
    if node and all(k.isdigit() for k in node):
        return [_listify(node[str(i)]) for i in range(len(node))]
    return {k: _listify(v) for k, v in node.items()}


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def expected_exit(op: dict) -> int:
    """README exit-code taxonomy: analyze 0; fi 0 or 2; reproduce-paper 4 (published FIs differ)."""
    kind = op["kind"]
    if kind == "reproduce":
        return EXIT_NUMERICAL_ERROR
    if kind in ("fi", "fi_scaling", "fi_km", "fi_km_text"):
        applicable = expected_search(op["spec"]["input"], op["spec"]["config"])["applicable"]
        return EXIT_OK if applicable else EXIT_NOT_APPLICABLE
    return EXIT_OK


def check(op: dict) -> None:
    kind, spec, outputs = op["kind"], op["spec"], op["outputs"]
    same(op["rc"], expected_exit(op), "exit code")
    if kind in ("analyze", "fi", "fi_scaling", "fi_km"):
        report = load_json(outputs[0])
        check_analysis(report, spec, fragility=kind != "analyze")
        if kind == "fi_km":
            check_km_block(report["km"], spec["input"]["csv"])
    elif kind == "fi_km_text":
        with open(outputs[0], encoding="utf-8") as handle:
            report = parse_text_report(handle.read())
        check_analysis(report, spec, fragility=True)
        check_km_block(report["km"], spec["input"]["csv"])
    elif kind == "sensitivity":
        check_sensitivity(load_json(outputs[0]), spec)
    elif kind == "km":
        check_km_command(spec, outputs[0], outputs[1])
    elif kind == "reproduce":
        check_reproduce(load_json(outputs[0]))
    elif kind == "simulate_mc":
        check_simulate_mc(load_json(outputs[0]), spec)
    elif kind == "simulate_csv":
        check_simulate_csv(spec, outputs[0])
    else:
        raise Mismatch(f"unknown op kind {kind!r}")


def verdict(op: dict) -> dict | None:
    """None when the op agrees with the oracle, else a failure record.

    A failure is "refused" when the program exited with an error code
    (numerical or input error, or an uncaught exception) where the oracle
    expects a result; anything else is "wrong": a result that disagrees.
    """
    try:
        check(op)
        return None
    except (Mismatch, OSError, KeyError, IndexError, TypeError, ValueError, ET.ParseError) as exc:
        expects_error = op["kind"] == "reproduce"
        refused = not expects_error and op["rc"] not in (EXIT_OK, EXIT_NOT_APPLICABLE)
        return {"id": op["id"], "class": "refused" if refused else "wrong",
                "reason": f"{type(exc).__name__}: {exc}"[:300], "stderr": op.get("stderr", "")[:300]}


def serve() -> None:
    for line in sys.stdin:
        ops = json.loads(line)
        failures = [f for f in map(verdict, ops) if f is not None]
        sys.stdout.write(json.dumps(failures) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
