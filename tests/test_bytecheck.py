"""tools/bytecheck.py compare on synthetic records: what it prints and what it returns."""

import hashlib
import importlib.util
from pathlib import Path

import pytest


def _load_bytecheck():
    path = Path(__file__).resolve().parent.parent / "tools" / "bytecheck.py"
    spec = importlib.util.spec_from_file_location("bytecheck", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bytecheck = _load_bytecheck()


def _record(kept: Path, op: str, stdout: bytes, stderr: bytes = b"", code: int = 0) -> dict:
    """A `run` record of one op whose emitted streams are kept under `kept`."""
    kept.mkdir(parents=True)
    (kept / "stdout").write_bytes(stdout)
    (kept / "stderr").write_bytes(stderr)
    return {"workload": "trial-session", "op": op, "exit": code,
            "stdout": hashlib.sha256(stdout).hexdigest(), "stderr": hashlib.sha256(stderr).hexdigest(),
            "files": {}, "kept": str(kept)}


@pytest.fixture
def records(tmp_path):
    """Two ops of tree `a` or `b`, the second with the given stdout (the first prints `{"n": 3}`)."""
    def build(tree: str, second_stdout: bytes, second_op: str = "fragsurv fi b.csv") -> list[dict]:
        return [_record(tmp_path / tree / "0", "fragsurv fi a.csv", b'{"n": 3}\n'),
                _record(tmp_path / tree / "1", second_op, second_stdout)]
    return build


def test_identical_records_return_0(records, capsys):
    assert bytecheck.compare(records("a", b'{"fi": 1.0}\n'), records("b", b'{"fi": 1.0}\n')) == 0
    assert "2 of 2 ops byte-identical" in capsys.readouterr().out


def test_a_moved_float_is_reported_as_floats_only(records, capsys):
    assert bytecheck.compare(records("a", b'{"fi": 1.0}\n'), records("b", b'{"fi": 1.5}\n')) == 1
    out = capsys.readouterr().out
    assert "trial-session: fragsurv fi b.csv: floats only: 1 floats moved, max |delta| 0.5" in out
    assert "1 of 2 ops byte-identical" in out
    assert "1 of 2 ops differ in float values only (max |delta| 0.5, max rel 0.333); 0 differ otherwise" in out


def test_a_renamed_key_differs_otherwise(records, capsys):
    assert bytecheck.compare(records("a", b'{"fi": 1.0}\n'), records("b", b'{"index": 1.0}\n')) == 1
    out = capsys.readouterr().out
    assert "trial-session: fragsurv fi b.csv: no float moved; stdout: keys ['fi'] -> ['index']" in out
    assert "0 of 2 ops differ in float values only (max |delta| 0, max rel 0); 1 differ otherwise" in out


def test_different_op_lists_return_1(records, capsys):
    b = records("b", b'{"fi": 1.0}\n', "fragsurv fi c.csv")
    assert bytecheck.compare(records("a", b'{"fi": 1.0}\n'), b) == 1
    assert capsys.readouterr().out == "op lists differ\n"
