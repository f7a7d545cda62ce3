#!/usr/bin/env python3
"""Byte check: run every benchmark op once and fingerprint what it emits.

    PYTHONPATH=<tree>/src python3 tools/bytecheck.py run --seed 1 --work DIR --json A.json
    python3 tools/bytecheck.py compare A.json B.json

`run` builds the ops of the three benchmark workloads (bench/workloads.py)
under DIR, calls `fragsurv.cli.main(argv)` in-process for each, and records
the exit code and the sha256 of stdout, stderr and every output file. Two
runs with the same DIR see the same paths, so their records compare byte for
byte. Each output file also gets a second digest with the `survival_exact`
lines of a JSON KM block removed, so `compare` can tell an op whose only
change is that field from any other difference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _without_exact(data: bytes) -> bytes:
    return b"\n".join(line for line in data.split(b"\n") if b'"survival_exact": ' not in line)


def run(seed: int, work: Path) -> list[dict]:
    from fragsurv.cli import main

    print(f"fragsurv from {sys.modules['fragsurv'].__file__}", file=sys.stderr)
    records = []
    for name in workloads.WORKLOADS:
        load = workloads.build(name, seed, work / "inputs" / name, work / "out" / name)
        for op in load.ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(op.argv))
            files = {}
            for path in op.outputs:
                p = Path(path)
                data = p.read_bytes() if p.exists() else b""
                files[p.name] = [_sha(data), _sha(_without_exact(data))]
                p.unlink(missing_ok=True)
            records.append({"workload": name, "op": op.label(), "exit": code,
                            "stdout": _sha(out.getvalue().encode()),
                            "stderr": _sha(err.getvalue().encode()), "files": files})
    return records


def compare(a: list[dict], b: list[dict]) -> int:
    if [r["op"] for r in a] != [r["op"] for r in b]:
        print("op lists differ")
        return 1
    same = 0
    for ra, rb in zip(a, b):
        if ra == rb:
            same += 1
            continue
        streams = [k for k in ("exit", "stdout", "stderr") if ra[k] != rb[k]]
        raw = [f for f in ra["files"] if ra["files"][f][0] != rb["files"][f][0]]
        only_exact = raw and not streams and all(ra["files"][f][1] == rb["files"][f][1] for f in raw)
        what = "survival_exact only" if only_exact else f"exit {ra['exit']} -> {rb['exit']}; differs: {streams + raw}"
        print(f"{ra['workload']}: {ra['op']}: {what}")
    print(f"{same} of {len(a)} ops byte-identical")
    return 0


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
    args = parser.parse_args()
    if args.cmd == "run":
        args.json.write_text(json.dumps(run(args.seed, args.work), indent=1) + "\n")
        return 0
    return compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))


if __name__ == "__main__":
    sys.exit(_main())
