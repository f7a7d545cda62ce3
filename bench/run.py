#!/usr/bin/env python3
"""fragsurv benchmark: one closed-loop client calling fragsurv.cli.main in-process.

    python3 bench/run.py --workload trial-session --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ./src, inputs
and outputs live under ./.bench-work/<workload>/. Every op is checked by the
oracle (bench/oracle.py, a separate process) outside the timed region. The
last stdout line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run (bench/layers.py) with --trace 1. See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from layers import LAYER_METRICS, Tracer  # noqa: E402

SETUP_REPEATS = 15
COLD_STARTS = 20
MIN_SESSIONS = 4
SUBPROCESS_TIMEOUT_S = 120
IMPORT_PROBE = "import time; t = time.perf_counter(); import fragsurv.cli; print(time.perf_counter() - t)"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, no oracle)."""


@dataclass
class Session:
    op_seconds: list[float]
    failures: list[dict]
    output_bytes: int
    traced: bool

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program():
    sys.path.insert(0, str(SRC))
    import fragsurv.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "fragsurv").resolve():
        raise BenchError(f"imported fragsurv from {cli.__file__}, not from {SRC}")
    return cli


def first_import_seconds() -> float:
    """Import time of fragsurv.cli in a fresh interpreter (start-up excluded)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=program_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise BenchError(f"importing fragsurv.cli failed: {done.stderr.strip()[-300:]}")
    return float(done.stdout)


class Oracle:
    """The checker process: one JSON line of op records in, one line of failures out."""

    def __init__(self) -> None:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "oracle.py")], cwd=ROOT, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def check(self, records: list[dict]) -> list[dict]:
        self.proc.stdin.write(json.dumps(records) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"oracle process exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_op(cli, argv: list[str]) -> tuple[int, float, str]:
    """One closed-loop request: returns exit code, wall seconds, stderr text."""
    sink, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # an uncaught program fault is a failed op, not a benchmark crash
            rc = -1
            err.write(f"uncaught {type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
    return rc, elapsed, err.getvalue()


class Run:
    """One benchmark run: the closed loop, the cold starts, the set-up repeats and the oracle's verdicts."""

    def __init__(self, cli, wl: workloads.Workload, oracle: Oracle, tracer: Tracer | None,
                 setup: Callable[[], tuple[workloads.Workload, float]], setup_s: float) -> None:
        self.cli, self.wl, self.oracle, self.tracer = cli, wl, oracle, tracer
        self.setup = setup
        self.setup_times = [setup_s]
        self.sessions: list[Session] = []
        self.cold: list[float] = []
        self.cold_failures: list[dict] = []
        self.measured = 0.0

    def session(self, traced: bool) -> Session:
        tracer = self.tracer if traced else None
        times, records = [], []
        if tracer is not None:
            tracer.install()
        try:
            for i, op in enumerate(self.wl.ops):
                if tracer is not None:
                    tracer.op_id = len(self.sessions) * len(self.wl.ops) + i
                rc, elapsed, err = run_op(self.cli, op.argv)
                times.append(elapsed)
                records.append({"id": i, "kind": op.kind, "rc": rc, "spec": op.spec,
                                "outputs": op.outputs, "stderr": err})
        finally:
            if tracer is not None:
                tracer.remove()
        written = [Path(p) for op in self.wl.ops for p in op.outputs if Path(p).is_file()]
        output_bytes = sum(p.stat().st_size for p in written)
        failures = self.oracle.check(records)
        for p in written:
            p.unlink()
        return Session(times, failures, output_bytes, traced)

    def cold_start(self) -> None:
        """A fresh `python -m fragsurv analyze` process on a 20-row trial."""
        target = self.wl.out / "cold.json"
        start = perf_counter()
        done = subprocess.run([sys.executable, "-m", "fragsurv", *self.wl.cold_start_argv, "--out", str(target)],
                              env=program_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=False)
        self.cold.append(perf_counter() - start)
        self.cold_failures += self.oracle.check([{"id": "cold-start", "kind": "analyze", "rc": done.returncode,
                                                  "spec": self.wl.cold_start_spec, "outputs": [str(target)],
                                                  "stderr": done.stderr}])
        target.unlink(missing_ok=True)

    def loop(self, seconds: float) -> None:
        """Closed loop of whole sessions until `seconds` of op time is measured.

        Cold starts and set-up repeats are spread over the run rather than
        bunched, so they sample the same host conditions as the sessions.
        With a tracer, untraced and traced sessions alternate and come in
        pairs, so their ratio is the tracing overhead under the same
        conditions.
        """
        while len(self.sessions) < MIN_SESSIONS or self.measured < seconds or self._unpaired():
            if self.tracer is None:
                self._repeats_due(self.measured / seconds)
            traced = self.tracer is not None and len(self.sessions) % 2 == 1
            self.sessions.append(self.session(traced))
            self.measured += self.sessions[-1].seconds
        if self.tracer is None:
            self._repeats_due(1.0)

    def _repeats_due(self, share: float) -> None:
        """Run the cold starts and set-up repeats due once `share` of the run is done."""
        while len(self.cold) < COLD_STARTS * min(1.0, share):
            self.cold_start()
        while len(self.setup_times) < SETUP_REPEATS * min(1.0, share):
            self.setup_times.append(self.setup()[1])

    def _unpaired(self) -> bool:
        return self.tracer is not None and len(self.sessions) % 2 == 1

    @property
    def failures(self) -> list[dict]:
        return [f for s in self.sessions for f in s.failures] + self.cold_failures

    @property
    def attempted(self) -> int:
        return len(self.sessions) * len(self.wl.ops) + len(self.cold)


def op_latencies(wl: workloads.Workload, sessions: list[Session]) -> list[float]:
    """Each op's latency: the fastest of its repeats, one per session.

    The host is shared and its neighbours' load only ever adds time, so the
    minimum over repeats is the steadiest estimate of the program's own cost.
    Ops marked as doing the same work pool their repeats.
    """
    fastest = [min(s.op_seconds[i] for s in sessions) for i in range(len(wl.ops))]
    pooled: dict[str, float] = {}
    for op, t in zip(wl.ops, fastest):
        if op.same_work:
            pooled[op.same_work] = min(t, pooled.get(op.same_work, t))
    return [pooled.get(op.same_work, t) for op, t in zip(wl.ops, fastest)]


def scaling_exponent(wl: workloads.Workload, latencies: list[float]) -> float:
    """Least-squares slope of log(wall time per search) on log n over the scaling ops."""
    points = [(math.log(op.n), math.log(t / op.searches))
              for op, t in zip(wl.ops, latencies) if op.kind == wl.scaling_kind]
    return statistics.linear_regression(*zip(*points)).slope


def setup(name: str, seed: int, work: Path) -> tuple[workloads.Workload, float]:
    """Generate and write the inputs, then import fragsurv.cli in a fresh interpreter; time both.

    The inputs are a function of the seed, so a repeat rewrites the same bytes.
    """
    start = perf_counter()
    wl = workloads.build(name, seed, work / "inputs", work / "out")
    return wl, perf_counter() - start + first_import_seconds()


def summarize(run: Run, seed: int) -> None:
    wl, failures = run.wl, run.failures
    print(f"workload {wl.name} seed {seed}: {len(run.sessions)} sessions of {len(wl.ops)} ops, "
          f"{len(run.cold)} cold starts, {run.attempted} ops attempted, {len(failures)} failed the oracle")
    labels: dict = {}
    for f in failures:
        op = wl.ops[f["id"]].label() if isinstance(f["id"], int) else f["id"]
        key = (op, f["class"], f["reason"][:160])
        labels[key] = labels.get(key, 0) + 1
    for (op, cls, reason), count in sorted(labels.items()):
        print(f"  FAIL x{count} [{cls}] {op}: {reason}")
    latencies = op_latencies(wl, [s for s in run.sessions if not s.traced])
    failed = sum(len(s.failures) for s in run.sessions)
    attempted = len(run.sessions) * len(wl.ops)
    print(f"  fail_frac {failed / attempted:.6g} ({failed}/{attempted} session ops)")
    print(f"  fi_scaling_exp {scaling_exponent(wl, latencies):.6g} slope (ops of kind {wl.scaling_kind})")
    reps = sum(op.searches for op in wl.ops if op.kind == "simulate_mc")
    if reps:
        print(f"  replications_per_s {reps / sum(latencies):.6g} 1/s ({reps} replications per session)")


def end_to_end(run: Run) -> dict:
    wl, sessions = run.wl, run.sessions
    latencies = op_latencies(wl, sessions)
    session_s = sum(latencies)
    failed = sum(len(s.failures) for s in sessions)
    measured = {
        "setup_s": (min(run.setup_times), "s"),
        "ok_frac": (1.0 - failed / (len(sessions) * len(wl.ops)), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "output_mb": (statistics.median(s.output_bytes for s in sessions) / 1e6, "MB"),
        "sessions_per_s": (1.0 / session_s, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3, "ms"),
        "cold_start_ms": (min(run.cold) * 1e3, "ms"),
        "rows_per_s": (sum(op.rows for op in wl.ops) / session_s, "1/s"),
    }
    print(f"  op latency: fastest of {len(sessions)} repeats of each of {len(wl.ops)} ops; "
          f"op_tail_ms is the p90 of those {len(wl.ops)} latencies; cold_start_ms the fastest of {len(run.cold)}; "
          f"setup_s the fastest of {len(run.setup_times)}")
    metrics = {}
    for name, (value, unit) in measured.items():
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} {value:.6g} {unit}")
    return metrics


def per_layer(run: Run, work: Path) -> dict:
    wl, tracer = run.wl, run.tracer
    traced = [s for s in run.sessions if s.traced]
    plain = [s for s in run.sessions if not s.traced]
    values = tracer.layer_metrics(len(traced))
    values["trace.overhead_ratio"] = sum(op_latencies(wl, traced)) / sum(op_latencies(wl, plain))
    values["fi_scaling_exp"] = scaling_exponent(wl, op_latencies(wl, plain))
    units = {**LAYER_METRICS, "trace.overhead_ratio": "ratio", "fi_scaling_exp": "slope"}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    tracer.write(work / "trace.jsonl", metrics)
    print(f"  traced {len(traced)} of {len(run.sessions)} sessions, {len(tracer.spans)} spans -> "
          f"{work / 'trace.jsonl'}; trace.overhead_ratio is traced over untraced op time")
    if tracer.counts["trace.hook_errors"]:
        print(f"  {tracer.counts['trace.hook_errors']} counter hooks failed: a traced function changed shape")
    for name, entry in metrics.items():
        print(f"  {name} {entry['value']:.6g} {entry['unit']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = ROOT / ".bench-work" / args.workload
    try:
        if not (SRC / "fragsurv" / "cli.py").is_file():
            raise BenchError(f"no program source at {SRC / 'fragsurv'}")
        shutil.rmtree(work, ignore_errors=True)
        redo_setup = functools.partial(setup, args.workload, args.seed, work)
        wl, setup_s = redo_setup()
        cli = import_program()
        oracle = Oracle()
        try:
            run = Run(cli, wl, oracle, Tracer() if args.trace else None, redo_setup, setup_s)
            run.loop(args.seconds)
        finally:
            oracle.close()
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    summarize(run, args.seed)
    metrics = per_layer(run, work) if args.trace else end_to_end(run)
    failures = run.failures
    wrong = sum(1 for f in failures if f["class"] == "wrong")
    print(json.dumps({"correct": wrong == 0, "attempted": run.attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
