#!/usr/bin/env python3
"""Perf: what `python -m fragsurv` costs per process, measured from outside the program.

    python3 tools/perf.py startup --tree OLD --tree NEW --seed 1 --k 25 --work DIR --json startup.json

`startup` times one argv per command, plus `--help`, each in k fresh
`python -m fragsurv` processes per tree. The argvs are the first op of each
command in the benchmark workloads (bench/workloads.py, read only): analyze,
fi, sensitivity, km and reproduce-paper from trial-session, whose first trial
has 20 rows, and simulate --replications from monte-carlo. Their inputs are
written once under DIR and every tree reads the same files.

Each round runs every argv on every tree, and the order of the trees
alternates from round to round, so a drift of the machine's speed falls on
both. A child runs with PYTHONPATH=<tree>/src and PYTHONDONTWRITEBYTECODE=1,
its output discarded. For each argv and tree the JSON records the exit codes,
the fastest wall time of the k runs, and the median of the children's
`ru_maxrss` (from os.wait4), next to the interpreter, the seed and each tree's
commit. A tree whose src holds a `__pycache__` is flagged: its processes read
that bytecode instead of compiling, and start faster than a fresh checkout.
Remove the caches before comparing two trees:

    find OLD/src NEW/src -name __pycache__ -type d -prune -exec rm -rf {} +
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "bench"))

import workloads  # noqa: E402

# (command, workload whose first op of that command is timed)
_STARTUP_COMMANDS = (("analyze", "trial-session"), ("fi", "trial-session"), ("sensitivity", "trial-session"),
                     ("km", "trial-session"), ("reproduce-paper", "trial-session"), ("simulate", "monte-carlo"))


def startup_argvs(seed: int, work: Path) -> dict[str, list[str]]:
    """The argv timed for each command, then `--help`, with the inputs written under `work`."""
    ops = {name: workloads.build(name, seed, work / "inputs" / name, work / "out" / name).ops
           for name in dict.fromkeys(workload for _, workload in _STARTUP_COMMANDS)}
    argvs = {command: next(list(op.argv) for op in ops[workload] if op.argv[0] == command)
             for command, workload in _STARTUP_COMMANDS}
    return {**argvs, "--help": ["--help"]}


def _commit(tree: Path) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _run_once(tree: Path, argv: list[str], cwd: Path) -> tuple[int, float, int]:
    """(exit code, wall seconds, ru_maxrss in KiB) of one fresh `python -m fragsurv` process on `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "fragsurv", *argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    return proc.returncode, seconds, usage.ru_maxrss


def startup(trees: list[Path], seed: int, k: int, work: Path) -> dict:
    """Fastest wall time and median peak RSS of k fresh processes per argv and tree."""
    argvs = startup_argvs(seed, work)
    runs = {(name, tree): [] for name in argvs for tree in trees}
    for round_ in range(k):
        for name, argv in argvs.items():
            for tree in trees if round_ % 2 == 0 else trees[::-1]:
                runs[name, tree].append(_run_once(tree, argv, work))
    commands = []
    for name, argv in argvs.items():
        results = []
        for tree in trees:
            results.append({"tree": str(tree), "exit_codes": sorted({code for code, _, _ in runs[name, tree]}),
                            "fastest_ms": min(s for _, s, _ in runs[name, tree]) * 1e3,
                            "rss_mb": statistics.median(kib for _, _, kib in runs[name, tree]) / 1024})
        commands.append({"command": name, "argv": argv, "results": results})
    return {
        "tool": "tools/perf.py startup",
        "interpreter": {"version": platform.python_version(), "implementation": platform.python_implementation(),
                        "executable": sys.executable},
        "seed": seed,
        "k": k,
        "trees": [{"path": str(tree), "commit": _commit(tree),
                   "bytecode_cache": any((tree / "src").rglob("__pycache__"))} for tree in trees],
        "commands": commands,
    }


def _table(record: dict) -> str:
    """One line per command: each tree's fastest ms and median MB, then the last tree's change from the first."""
    lines = []
    for entry in record["commands"]:
        cells = [f"{r['fastest_ms']:.1f} ms {r['rss_mb']:.2f} MB" for r in entry["results"]]
        first, last = entry["results"][0], entry["results"][-1]
        if len(entry["results"]) > 1:
            cells.append(f"{last['fastest_ms'] / first['fastest_ms'] - 1:+.1%} ms "
                         f"{last['rss_mb'] - first['rss_mb']:+.2f} MB")
        lines.append(f"{entry['command']:<16} " + " | ".join(cells))
    return "\n".join(lines)


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("startup", help="fresh-process time and peak RSS of each command")
    p.add_argument("--tree", type=Path, action="append",
                   help="a checkout whose src/ to run; repeat to compare (default: this checkout)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--k", type=int, default=10, help="fresh processes per argv and tree (default 10)")
    p.add_argument("--work", type=Path, required=True, help="directory for the inputs and outputs")
    p.add_argument("--json", type=Path, required=True)
    args = parser.parse_args()
    if args.k < 1:
        parser.error("--k must be at least 1")
    trees = [tree.resolve() for tree in args.tree or [_ROOT]]
    record = startup(trees, args.seed, args.k, args.work.resolve())
    args.json.write_text(json.dumps(record, indent=1) + "\n")
    for tree in record["trees"]:
        if tree["bytecode_cache"]:
            print(f"warning: {tree['path']}/src holds a __pycache__, which its processes read", file=sys.stderr)
    print(_table(record))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
