#!/usr/bin/env python3
"""Byte check: run every benchmark op once and fingerprint what it emits.

    PYTHONPATH=<tree>/src python3 tools/bytecheck.py run --seed 1 --work DIR --json A.json
    python3 tools/bytecheck.py compare A.json B.json
    PYTHONPATH=<tree>/src python3 tools/bytecheck.py pin-help

`run` builds the ops of the three benchmark workloads (bench/workloads.py)
under DIR, calls `fragsurv.cli.main(argv)` in-process for each, and records
the exit code and the sha256 of stdout, stderr and every output file. Two
runs with the same DIR see the same paths, so their records compare byte for
byte.

`run` then calls `main` on each argv of tests/data/help/cases.json (help,
usage errors and the version), which the benchmark never runs, with
COLUMNS=80 so that argparse wraps its text the same way in any terminal.
`pin-help` writes what those argvs give into tests/data/help/<name>.txt,
which tests/test_cli.py replays: `exit N`, then `stdout B` and B bytes of
stdout, then `stderr B` and B bytes of stderr.

`run` also keeps what each op emitted, under A.kept/<op index>/ next to the
record. `compare` parses every stream or file that differs: JSON as a tree,
anything else line by line with the numbers split out. It reports the ops
whose only change is in float values, with the largest absolute and the
largest relative change (|a - b| / max(|a|, |b|), which shows the drift of
values far below 1 that an absolute maximum hides), and lists every other
difference (exit code, keys, integers, strings, stderr lines). `compare`
exits 0 only when every op is byte-identical, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "bench"))
HELP = _ROOT / "tests" / "data" / "help"

import workloads  # noqa: E402

# A number in a text line; a float is one written with a point or an exponent.
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call_main(argv: list[str]) -> tuple[int, bytes, bytes]:
    from fragsurv.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


def _help_cases() -> list[dict]:
    return json.loads((HELP / "cases.json").read_text())


def pin_help() -> None:
    for case in _help_cases():
        code, out, err = _call_main(case["argv"])
        data = b"exit %d\nstdout %d\n%sstderr %d\n%s" % (code, len(out), out, len(err), err)
        (HELP / f"{case['name']}.txt").write_bytes(data)


def _ops(seed: int, work: Path):
    """(workload, label, argv, output paths) of every benchmark op, then of every help case."""
    for name in workloads.WORKLOADS:
        load = workloads.build(name, seed, work / "inputs" / name, work / "out" / name)
        for op in load.ops:
            yield name, op.label(), list(op.argv), op.outputs
    for case in _help_cases():
        yield "help", " ".join(["fragsurv", *case["argv"]]), case["argv"], ()


def run(seed: int, work: Path, keep: Path) -> list[dict]:
    import fragsurv

    print(f"fragsurv from {fragsurv.__file__}", file=sys.stderr)
    records = []
    for name, label, argv, outputs in _ops(seed, work):
        code, out, err = _call_main(argv)
        emitted = {"stdout": out, "stderr": err}
        files = {}
        for path in outputs:
            p = Path(path)
            data = p.read_bytes() if p.exists() else b""
            files[p.name] = _sha(data)
            emitted[p.name] = data
            p.unlink(missing_ok=True)
        kept = keep.resolve() / str(len(records))
        kept.mkdir(parents=True, exist_ok=True)
        for stream, data in emitted.items():
            (kept / stream).write_bytes(data)
        records.append({"workload": name, "op": label, "exit": code,
                        "stdout": _sha(out), "stderr": _sha(err),
                        "files": files, "kept": str(kept)})
    return records


class _ValueDiff:
    """Walks two parsed outputs; collects the largest float changes and every other difference."""

    def __init__(self):
        self.max_float = 0.0
        self.max_rel = 0.0
        self.floats = 0
        self.other: list[str] = []

    def _float(self, a: float, b: float, where: str) -> None:
        delta = abs(a - b)
        if delta != delta or delta == float("inf"):
            self.other.append(f"{where}: {a!r} -> {b!r}")
            return
        self.floats += 1
        self.max_float = max(self.max_float, delta)
        self.max_rel = max(self.max_rel, delta / max(abs(a), abs(b)))

    def tree(self, a, b, where: str) -> None:
        if type(a) is float and type(b) is float:
            if a != b:
                self._float(a, b, where)
        elif isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b):
                self.other.append(f"{where}: keys {list(a)} -> {list(b)}")
                return
            for key in a:
                self.tree(a[key], b[key], f"{where}.{key}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.other.append(f"{where}: length {len(a)} -> {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.tree(x, y, f"{where}[{i}]")
        elif type(a) is not type(b) or a != b:
            self.other.append(f"{where}: {a!r} -> {b!r}")

    def lines(self, a: str, b: str, where: str, floats_ok: bool) -> None:
        la, lb = a.split("\n"), b.split("\n")
        if len(la) != len(lb):
            self.other.append(f"{where}: {len(la)} -> {len(lb)} lines")
            return
        for i, (x, y) in enumerate(zip(la, lb), 1):
            if x == y:
                continue
            nx, ny = _NUMBER.findall(x), _NUMBER.findall(y)
            same_text = _NUMBER.sub("#", x) == _NUMBER.sub("#", y)
            if floats_ok and same_text and all(u == v or _is_float(u) and _is_float(v)
                                               for u, v in zip(nx, ny)):
                for u, v in zip(nx, ny):
                    if u != v:
                        self._float(float(u), float(v), f"{where}:{i}")
            else:
                self.other.append(f"{where}:{i}: {x!r} -> {y!r}")


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eEn")


def _value_diff(ra: dict, rb: dict, differing: list[str]) -> _ValueDiff:
    diff = _ValueDiff()
    if ra["exit"] != rb["exit"]:
        diff.other.append(f"exit {ra['exit']} -> {rb['exit']}")
    for stream in differing:
        a = (Path(ra["kept"]) / stream).read_bytes().decode()
        b = (Path(rb["kept"]) / stream).read_bytes().decode()
        try:
            diff.tree(json.loads(a), json.loads(b), stream)
        except ValueError:
            # stderr lines are listed in full, whatever changed in them
            diff.lines(a, b, stream, floats_ok=stream != "stderr")
    return diff


def compare(a: list[dict], b: list[dict]) -> int:
    if [r["op"] for r in a] != [r["op"] for r in b]:
        print("op lists differ")
        return 1
    same = floats_only = 0
    worst = worst_rel = 0.0
    for ra, rb in zip(a, b):
        if all(ra[k] == rb[k] for k in ("exit", "stdout", "stderr", "files")):
            same += 1
            continue
        streams = [k for k in ("exit", "stdout", "stderr") if ra[k] != rb[k]]
        files = [f for f in ra["files"] if ra["files"][f] != rb["files"][f]]
        diff = _value_diff(ra, rb, [s for s in streams if s != "exit"] + files)
        moved = (f"{diff.floats} floats moved, max |delta| {diff.max_float:.3g}, "
                 f"max rel {diff.max_rel:.3g}"
                 if diff.floats else "no float moved")
        if diff.other:
            what = "; ".join([moved, *diff.other])
        else:
            what = f"floats only: {moved}"
            floats_only += 1
            worst = max(worst, diff.max_float)
            worst_rel = max(worst_rel, diff.max_rel)
        print(f"{ra['workload']}: {ra['op']}: {what}")
    print(f"{same} of {len(a)} ops byte-identical")
    print(f"{floats_only} of {len(a)} ops differ in float values only "
          f"(max |delta| {worst:.3g}, max rel {worst_rel:.3g}); "
          f"{len(a) - same - floats_only} differ otherwise")
    return 0 if same == len(a) else 1


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--json", type=Path, required=True)
    p = sub.add_parser("compare")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    sub.add_parser("pin-help")
    args = parser.parse_args()
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    if args.cmd == "pin-help":
        pin_help()
        return 0
    if args.cmd == "run":
        records = run(args.seed, args.work, args.json.with_suffix(".kept"))
        args.json.write_text(json.dumps(records, indent=1) + "\n")
        return 0
    return compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))


if __name__ == "__main__":
    sys.exit(_main())
