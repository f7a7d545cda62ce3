"""Self-tests of the benchmark: the oracle catches small errors, inputs are seeded.

    python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from fragsurv.cli import main  # noqa: E402


def run_cli(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def trial_session(tmp_path_factory):
    root = tmp_path_factory.mktemp("trial-session")
    return workloads.build("trial-session", 7, root / "inputs", root / "out")


def record(op, rc, outputs=None):
    return {"id": 0, "kind": op.kind, "rc": rc, "spec": op.spec, "outputs": outputs or op.outputs}


def first_op(wl, kind, attained=True):
    for op in wl.ops:
        if op.kind != kind:
            continue
        expected = oracle.expected_search(op.spec["input"], op.spec["config"])
        if expected["applicable"] and (expected["fi"] is not None) == attained and len(expected["trajectory"]) > 3:
            return op
    raise AssertionError(f"no {kind} op with an attained index")


def rewrite(path, edit):
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    edit(report)
    Path(path).write_text(json.dumps(report), encoding="utf-8")


def test_oracle_accepts_every_program_output(trial_session):
    for op in trial_session.ops:
        rc = run_cli(op.argv)
        assert oracle.verdict(record(op, rc)) is None, op.label()


def test_oracle_rejects_fi_off_by_one(trial_session):
    op = first_op(trial_session, "fi")
    rc = run_cli(op.argv)
    assert oracle.verdict(record(op, rc)) is None

    def one_less(report):
        report["fragility"]["fi"] -= 1
        report["fragility"]["trajectory"].pop()

    rewrite(op.outputs[0], one_less)
    failure = oracle.verdict(record(op, rc))
    assert failure is not None and failure["class"] == "wrong"
    assert "fragility.fi" in failure["reason"]


def test_oracle_rejects_published_fi_in_reproduce_paper(trial_session):
    op = next(op for op in trial_session.ops if op.kind == "reproduce")
    rc = run_cli(op.argv)
    assert oracle.verdict(record(op, rc)) is None

    def published(report):
        for case in report["cases"]:
            case["computed_fi"] = case["published_fi"]

    rewrite(op.outputs[0], published)
    failure = oracle.verdict(record(op, rc))
    assert failure is not None and "computed_fi" in failure["reason"]


def test_oracle_rejects_trajectory_perturbed_by_1e6(trial_session):
    op = first_op(trial_session, "fi")
    rc = run_cli(op.argv)

    def perturb(report):
        report["fragility"]["trajectory"][2]["probability"] += 1e-6

    rewrite(op.outputs[0], perturb)
    failure = oracle.verdict(record(op, rc))
    assert failure is not None and "trajectory[2]" in failure["reason"]


def test_oracle_rejects_wrong_exit_code(trial_session):
    op = first_op(trial_session, "fi")
    run_cli(op.argv)
    failure = oracle.verdict(record(op, 4))
    assert failure is not None and failure["class"] == "refused"


def test_oracle_rejects_wrong_histogram(tmp_path):
    wl = workloads.build("monte-carlo", 3, tmp_path / "inputs", tmp_path / "out")
    op = wl.ops[0]
    rc = run_cli(op.argv)
    assert oracle.verdict(record(op, rc)) is None

    def move_one(report):
        counts = report["counts"]
        keys = [k for k in counts if k.isdigit()]
        counts[keys[0]] -= 1
        counts[keys[1]] += 1

    rewrite(op.outputs[0], move_one)
    failure = oracle.verdict(record(op, rc))
    assert failure is not None and "histogram" in failure["reason"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(tmp_path, name):
    def csvs(seed, where):
        workloads.build(name, seed, tmp_path / where, tmp_path / where / "out")
        return {p.name: p.read_bytes() for p in sorted((tmp_path / where).glob("*.csv"))}

    first, again, other = csvs(1, "a"), csvs(1, "b"), csvs(2, "c")
    assert first and first == again
    assert all(first[name] != other[name] for name in first)
