import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path
from statistics import NormalDist
from xml.dom import minidom

import pytest
from scipy.special import gammainc as scipy_gammainc

from fragsurv import cli, fragility, km
from fragsurv.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NOT_APPLICABLE,
    EXIT_NUMERICAL_ERROR,
    EXIT_OK,
    IngestError,
    ingest_csv,
    main,
    write_csv,
)
from fragsurv.commands import reproduce
from fragsurv.commands.reproduce import CASE_STUDIES, reconstruct_case_dataset, run_reproduce_paper
from fragsurv.km import km_estimate, km_to_plot_points
from fragsurv.sim import SimSpec, simulate_trial
from fragsurv.specfun import BracketError, ConvergenceError
from fragsurv.survival import LN2, AnalysisConfig, GammaParams

from oracles import mp_temme_lower


DATA = Path(__file__).parent / "data"
HELP = DATA / "help"
_TOP_LATTICE_SEED = 17685126244420568887  # its first uniform() is 1 - 2^-53, so its first time is the smallest


@pytest.fixture
def demo_csv(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text("time,status\n2,1\n3,0\n1,1\n8,0\n4,1\n", encoding="utf-8")
    return str(path)


class TestIngestCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n2,1\n3,0\n", encoding="utf-8")
        data, _ = ingest_csv(path)
        assert (data.times, data.events) == ((2.0, 3.0), b"\x01\x00")

    def test_header_case_insensitive_and_crlf(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"Time,Status\r\n2.5,1\r\n3,0\r\n")
        data, _ = ingest_csv(path)
        assert data.n == 2
        assert data.times[0] == 2.5

    def test_negative_time_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n-1,1\n", encoding="utf-8")
        with pytest.raises(IngestError, match="row 2"):
            ingest_csv(path)

    def test_unparsable_time_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n2,1\nabc,0\n", encoding="utf-8")
        with pytest.raises(IngestError, match="row 3.*column 1"):
            ingest_csv(path)
        # the row number is the file line where the row ends, past a quoted cell spanning lines 2 and 3
        path.write_text('time,status\n"2\n",1\n3,0\nabc,0\n', encoding="utf-8")
        with pytest.raises(IngestError, match="row 5: column 1: invalid time 'abc'"):
            ingest_csv(path)

    def test_bad_status_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n2,2\n", encoding="utf-8")
        with pytest.raises(IngestError, match="row 2.*column 2"):
            ingest_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,s\n2,1\n", encoding="utf-8")
        with pytest.raises(IngestError, match="row 1"):
            ingest_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IngestError, match="empty"):
            ingest_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n", encoding="utf-8")
        with pytest.raises(IngestError, match="no data rows"):
            ingest_csv(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"time,status\n\xff,1\n")
        with pytest.raises(IngestError, match="not UTF-8"):
            ingest_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError):
            ingest_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize("time", ["nan", "inf", "0"])
    def test_non_positive_or_non_finite_time_names_row(self, tmp_path, time):
        path = tmp_path / "d.csv"
        path.write_text(f"time,status\n2,1\n{time},0\n", encoding="utf-8")
        with pytest.raises(IngestError, match="row 3: column 1: time must be positive and finite"):
            ingest_csv(path)

    def test_three_columns_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n2,1,7\n", encoding="utf-8")
        with pytest.raises(IngestError, match="row 2: expected 2 columns, got 3"):
            ingest_csv(path)

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n2,1\n\n3,0\n\n", encoding="utf-8")
        assert ingest_csv(path)[0].n == 2
        path.write_text("time,status\n2,1\n\n3,x\n", encoding="utf-8")
        with pytest.raises(IngestError, match="row 4: column 2"):
            ingest_csv(path)

    @pytest.mark.parametrize("brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_lf_and_crlf_end_a_row(self, tmp_path, brk):
        # any other line-break character is cell text: trailing, str.strip drops it; inside, it joins two rows
        path = tmp_path / "d.csv"
        path.write_text(f"time,status\n2,1{brk}\n3,0\nabc,1\n", encoding="utf-8")
        with pytest.raises(IngestError, match="row 4: column 1: invalid time 'abc'"):
            ingest_csv(path)
        path.write_text(f"time,status\n2,1{brk}3,0\n", encoding="utf-8")
        with pytest.raises(IngestError, match="row 2: expected 2 columns, got 3"):
            ingest_csv(path)

    @pytest.mark.parametrize("command", ["fi", "analyze"])
    def test_a_lone_cr_inside_a_row_is_a_row_numbered_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "cr.csv"
        # the second file has a quoted cell spanning lines 2 and 3, so the lone CR is on line 5
        cases = [(b"time,status\r\n2,1\r\n3,0\r4,1\r\n", 3), (b'time,status\n"2\n",1\n3,0\na\rb,0\n', 5)]
        for data, line in cases:
            path.write_bytes(data)
            assert main([command, str(path), "--t0", "1"]) == EXIT_INPUT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"fragsurv: input-error: {path}: row {line}: new-line character seen in unquoted field\n")

    def test_an_oversized_cell_is_a_row_numbered_input_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,status\n2,1\n" + "1" * 200_000 + ",0\n", encoding="utf-8")
        with pytest.raises(IngestError, match=r"row 3: field larger than field limit"):
            ingest_csv(path)


    @pytest.mark.parametrize("command", ["fi", "analyze"])
    def test_overflowing_total_follow_up_is_input_error(self, tmp_path, capsys, command):
        # each row is valid; only their sum overflows
        path = tmp_path / "big.csv"
        path.write_text("time,status\n1e308,1\n1e308,0\n", encoding="utf-8")
        assert main([command, str(path), "--t0", "1"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fragsurv: input-error: {path}: total follow-up time overflows\n"

    @pytest.mark.parametrize("command", ["fi", "analyze"])
    def test_prior_rate_that_overflows_the_posterior_is_input_error(self, tmp_path, capsys, command):
        # the rows sum to 1e308; the prior rate takes the posterior rate to inf
        path = tmp_path / "pr.csv"
        path.write_text("time,status\n5e307,1\n5e307,0\n", encoding="utf-8")
        assert main([command, str(path), "--t0", "1", "--prior-rate", "1e308"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fragsurv: input-error: --prior-rate 1e+308 plus the total follow-up time overflows\n"

    def test_dataset_checks_run_before_the_km_estimate_and_the_search(self, tmp_path, monkeypatch, capsys):
        def must_not_run(*args):
            raise AssertionError("ran before the dataset checks")

        monkeypatch.setattr(km, "km_estimate", must_not_run)
        monkeypatch.setattr(fragility, "fragility_index", must_not_run)
        path = tmp_path / "pr.csv"
        path.write_text("time,status\n5e307,1\n5e307,0\n", encoding="utf-8")
        argv = ["fi", str(path), "--t0", "1", "--with-km", "--prior-rate", "1e308"]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fragsurv: input-error: --prior-rate 1e+308 plus the total follow-up time overflows\n"

    @pytest.mark.parametrize("command", ["fi", "analyze"])
    def test_prior_shape_that_reaches_2_to_the_53_is_input_error(self, demo_csv, capsys, command):
        # five subjects: the shape after every flip reaches 2**53 from a prior shape of 2**53 - 5 on
        assert main([command, demo_csv, "--t0", "1", "--prior-shape", "9007199254740987"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "fragsurv: input-error: --prior-shape 9007199254740987.0 plus 5 subjects reaches 2**53\n"
        )
        code = main([command, demo_csv, "--t0", "1", "--prior-shape", "9007199254740986"])
        assert code == (EXIT_OK if command == "analyze" else EXIT_NOT_APPLICABLE)
        assert json.loads(capsys.readouterr().out)["initial_probability"] == 0.0

    def test_prior_shape_of_1e14_gives_the_reference_probability(self, demo_csv, capsys):
        # demo.csv has 3 events and 18 months of follow-up; the prior rate puts x at a - 4.5 sqrt(a), where the
        # series would need O(sqrt(a)), about 1e8, terms
        a = 1e14 + 3
        rate = (a - 4.5 * math.sqrt(a)) / LN2 - 18.0
        assert main(["analyze", demo_csv, "--t0", "1", "--prior-shape", "1e14", "--prior-rate", repr(rate)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["posterior"]["shape"] == a
        x = report["posterior"]["rate"] * LN2 / 1.0
        assert abs((x - a) / math.sqrt(a) + 4.5) <= 1e-6
        expected = mp_temme_lower(a, x)
        assert abs(expected - NormalDist().cdf(-4.5)) <= 1e-9
        assert abs(report["initial_probability"] - expected) <= 1e-16

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("argv", [["analyze", "--t0", "2"], ["sensitivity", "--t0", "2", "--grid", "p0=0.5"]],
                             ids=["analyze", "sensitivity"])
    def test_sha256_is_of_the_bytes_read_from_a_fifo(self, tmp_path, capsys, argv):
        # The first writer sends the rows and later ones nothing, so a second read sees an empty file.
        data = b"time,status\n2,1\n3,0\n1,1\n8,0\n4,1\n"
        fifo = tmp_path / "rows.csv"
        os.mkfifo(fifo)
        done = threading.Event()

        def write():
            payload = data
            while not done.is_set():
                with open(fifo, "wb") as handle:  # blocks until a reader opens the FIFO
                    handle.write(payload)
                payload = b""

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            code = main([argv[0], str(fifo), *argv[1:]])
        finally:
            done.set()
            deadline = time.monotonic() + 10
            while writer.is_alive() and time.monotonic() < deadline:
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))  # releases a writer blocked in open
                writer.join(0.01)
        assert not writer.is_alive()
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["input"]["sha256"] == hashlib.sha256(data).hexdigest()

    def test_roundtrip_simulated_dataset(self, tmp_path):
        data = simulate_trial(SimSpec(n=40, event_rate=0.3, censor_rate=0.1, seed=123))
        path = tmp_path / "sim.csv"
        write_csv(data, path)
        again, _ = ingest_csv(path)
        assert again == data


class TestIngestParsers:
    """The bulk column path and the csv.reader row parser read every text alike."""

    @staticmethod
    def _body(seed: int, n: int) -> list[str]:
        rng = random.Random(seed)
        return [f"{rng.expovariate(0.1)!r},{rng.randint(0, 1)}" for _ in range(n)]

    @staticmethod
    def _variants(rows: list[str]) -> dict[str, bytes]:
        lf = "time,status\n" + "\n".join(rows) + "\n"
        return {
            "lf": lf.encode(),
            "crlf": lf.replace("\n", "\r\n").encode(),
            "bom": b"\xef\xbb\xbf" + lf.encode(),
            "no final newline": lf[:-1].encode(),
            "upper-case header": ("TIME,Status\n" + lf[12:]).encode(),
            "integers and exponents": (lf + "2,1\n1e3,0\n").encode(),
            "trailing blank lines": (lf + "\n\n").encode(),
            "quoted cells": (lf + '"2",1\n"3","0"\n').encode(),
            "spaces": (lf + " 2 , 1\n3\t,0 \n").encode(),
            "other line breaks in cells": (lf + "2\x1c,1\n\u20283,0\n").encode(),
        }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equal_datasets_totals_and_digests(self, tmp_path, seed):
        for name, data in self._variants(self._body(seed, 400)).items():
            path = tmp_path / "d.csv"
            path.write_bytes(data)
            text = data.decode("utf-8-sig")
            dataset, sha256 = ingest_csv(path, "weeks")
            rows = cli._parse_rows(path, text, "weeks")
            assert dataset == rows, name
            assert dataset.total_time.hex() == rows.total_time.hex(), name
            assert sha256 == hashlib.sha256(data).hexdigest(), name
            if name in ("lf", "crlf", "bom", "no final newline", "upper-case header", "integers and exponents"):
                assert cli._bulk_columns(text, "weeks") == rows, name

    @pytest.mark.parametrize("cell", ["0x1p3", "abc", "", "nan", "inf", "-1", "0", "1e999", "2,1", '"2',
                                      "1_0", "\u0661\u0662", "\uff11"])
    def test_the_row_parser_reports_every_bad_time(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        text = "time,status\n" + "\n".join(self._body(4, 50) + [f"{cell},1"]) + "\n"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IngestError) as bulk:
            ingest_csv(path)
        with pytest.raises(IngestError) as rows:
            cli._parse_rows(path, text, "months")
        assert str(bulk.value) == str(rows.value)
        assert "row 52: " in str(bulk.value)

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", " 1_0 "])
    def test_python_only_number_syntax_is_an_input_error(self, tmp_path, capsys, cell):
        # float() reads 1_0 as 10 and Arabic-Indic digits as 12; the bulk path leaves such text to _parse_rows
        text = f"time,status\n2,1\n{cell},0\n"
        assert cli._bulk_columns(text, "months") is None
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["analyze", str(path), "--t0", "2"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fragsurv: input-error: {path}: row 3: column 1: invalid time {cell.strip()!r}\n"

    def test_the_constructor_checks_the_bulk_columns(self):
        # no per-row check in the bulk path: the dataset's constructor rejects these times
        for body in ["nan,1\n", "inf,0\n", "0,1\n", "-2,0\n"]:
            assert cli._bulk_columns("time,status\n2,1\n" + body, "months") is None
        # a total that overflows is ingest_csv's to reject, whichever parser ran
        assert math.isinf(cli._bulk_columns("time,status\n1e308,1\n1e308,0\n", "months").total_time)
        assert cli._bulk_columns("5\n1,1,1", "months") is None
        assert cli._bulk_columns("time,status\n5\n1,1,1\n", "months") is None

    @pytest.mark.parametrize("text,message", [
        # an empty status beside a two-character one: as many status characters as lines
        ("time,status\n5,\n3,11\n", "row 2: column 2: status must be 0 or 1, got ''"),
        # a row with no comma beside one with two: as many commas as lines
        ("time,status\n1.5\n1,2.5,1\n", "row 2: expected 2 columns, got 1"),
    ])
    def test_the_bulk_path_checks_each_line_shape(self, tmp_path, text, message):
        assert cli._bulk_columns(text, "months") is None
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(IngestError) as excinfo:
            ingest_csv(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize("slice_chars", [1, 2, 23, 1000])
    def test_every_slice_size_gives_the_same_dataset(self, monkeypatch, slice_chars):
        rows = self._body(5, 300)
        texts = ["time,status\n" + "\n".join(rows) + "\n", "Time,Status\r\n" + "\r\n".join(rows)]
        whole = [cli._bulk_columns(text, "weeks") for text in texts]
        monkeypatch.setattr(cli, "_SLICE_CHARS", slice_chars)
        for text, one_slice in zip(texts, whole):
            sliced = cli._bulk_columns(text, "weeks")
            assert sliced == one_slice == cli._parse_rows(Path("d.csv"), text, "weeks")
            assert sliced.total_time.hex() == one_slice.total_time.hex()
        # a time that float() rejects in the last slice still leaves the text to the row parser
        assert cli._bulk_columns(texts[0] + "0x1p3,1\n", "weeks") is None

    @pytest.mark.parametrize("n", [200_000, 400_000])
    def test_a_large_csv_is_converted_one_slice_at_a_time(self, tmp_path, n):
        # Beyond the dataset it returns and three copies of the file (its bytes, the text and the body),
        # ingest holds the cell strings of one slice, about 8 MB at any size; splitting the whole body
        # into 2n cell strings took 18 MB at 2e5 rows, and twice that at 4e5.
        path = tmp_path / "big.csv"
        path.write_text("time,status\n" + "".join(f"{1 + i / 7!r},{i % 2}\n" for i in range(n)), encoding="utf-8")
        tracemalloc.start()
        try:
            dataset, _ = ingest_csv(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dataset.n == n and dataset.num_events == n // 2
        assert peak - held - 3 * path.stat().st_size < 10_000_000

    def test_an_overflowing_total_is_checked_once_after_either_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "big.csv"
        path.write_text('time,status\n"1e308",1\n1e308,0\n', encoding="utf-8")  # a quoted cell: the row parser
        with pytest.raises(IngestError, match="total follow-up time overflows$"):
            ingest_csv(path)

        def no_row_parse(*args):
            raise AssertionError("a well-formed CSV is parsed by the bulk path alone")

        monkeypatch.setattr(cli, "_parse_rows", no_row_parse)
        path.write_text("time,status\n1e308,1\n1e308,0\n", encoding="utf-8")
        with pytest.raises(IngestError, match="total follow-up time overflows$"):
            ingest_csv(path)


class TestFiCommand:
    def test_exit_ok_and_report_shape(self, demo_csv, capsys):
        code = main(["fi", demo_csv, "--t0", "2"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["input"]["n"] == 5
        assert report["posterior"] == {"shape": 3.5, "rate": 18.5}
        assert report["fragility"]["applicable"] is True
        assert report["fragility"]["fi"] == 2
        assert report["fragility"]["fq"] == {"numerator": 2, "denominator": 5, "value": 0.4}
        trajectory = report["fragility"]["trajectory"]
        assert trajectory[0]["k"] == 0
        assert trajectory[0]["probability"] == report["initial_probability"]

    def test_byte_identical_reports(self, demo_csv, capsys):
        main(["fi", demo_csv, "--t0", "2"])
        first = capsys.readouterr().out
        main(["fi", demo_csv, "--t0", "2"])
        second = capsys.readouterr().out
        assert first == second

    def test_not_applicable_exit_code_and_message(self, demo_csv, capsys):
        code = main(["fi", demo_csv, "--t0", "2", "--p0", "0.999"])
        captured = capsys.readouterr()
        assert code == EXIT_NOT_APPLICABLE
        assert captured.err == "fragsurv: not-fragile-applicable: initial probability 0.9234655226617513 <= p0 0.999\n"
        report = json.loads(captured.out)
        assert report["fragility"] == {"applicable": False}

    def test_input_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,status\n-1,1\n", encoding="utf-8")
        code = main(["fi", str(bad), "--t0", "2"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert "input-error" in captured.err

    def test_invalid_flag_value_is_input_error(self, demo_csv, capsys):
        code = main(["fi", demo_csv, "--t0", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err == "fragsurv: input-error: t0 must be finite and > 0, got -1.0\n"

    def test_internal_value_error_is_not_an_input_error(self, demo_csv, monkeypatch, capsys):
        def broken_km(data):
            raise ValueError("broken")

        monkeypatch.setattr(km, "km_estimate", broken_km)
        assert main(["fi", demo_csv, "--t0", "2", "--with-km"]) == EXIT_NUMERICAL_ERROR
        assert capsys.readouterr().err == "fragsurv: internal-error: broken\n"

    def test_unknown_flag_maps_to_input_error(self, demo_csv, capsys):
        code = main(["fi", demo_csv, "--t0", "2", "--bogus"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert "input-error" in captured.err

    def test_text_format_carries_identical_numbers(self, demo_csv, capsys):
        main(["fi", demo_csv, "--t0", "2"])
        report = json.loads(capsys.readouterr().out)
        main(["fi", demo_csv, "--t0", "2", "--format", "text"])
        text = capsys.readouterr().out
        lines = dict(line.split(": ", 1) for line in text.strip().splitlines())
        assert float(lines["initial_probability"]) == report["initial_probability"]
        assert int(lines["fragility.fi"]) == report["fragility"]["fi"]
        assert float(lines["posterior.rate"]) == report["posterior"]["rate"]

    def test_out_flag_writes_file(self, demo_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["fi", demo_csv, "--t0", "2", "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["fragility"]["fi"] == 2

    def test_t0_that_overflows_x_is_not_attained(self, demo_csv, capsys):
        # rate * ln 2 / t0 overflows to inf, where P(a, inf) = 1
        code = main(["fi", demo_csv, "--t0", "1e-320"])
        captured = capsys.readouterr()
        assert code == EXIT_OK and captured.err == ""
        report = json.loads(captured.out)
        assert report["initial_probability"] == 1.0
        assert report["fragility"]["attained"] is False
        assert [step["probability"] for step in report["fragility"]["trajectory"]] == [1.0, 1.0, 1.0]

    def test_with_km_embeds_curve(self, demo_csv, capsys):
        main(["fi", demo_csv, "--t0", "2", "--with-km"])
        report = json.loads(capsys.readouterr().out)
        assert report["km"] is not None
        assert report["km"]["censor_marks"] == [3.0, 8.0]

    @pytest.mark.parametrize("n,exact", [(300, True), (301, False)])
    def test_survival_exact_only_up_to_300_subjects(self, tmp_path, capsys, n, exact):
        path = tmp_path / "km.csv"
        rows = "".join(f"{1 + i % 97},{int(i % 3 != 0)}\n" for i in range(n))
        path.write_text("time,status\n" + rows, encoding="utf-8")
        assert main(["analyze", str(path), "--t0", "30", "--with-km"]) == EXIT_OK
        steps = json.loads(capsys.readouterr().out)["km"]["steps"]
        keys = ["time", "survival"] + ["survival_exact"] * exact + ["at_risk", "events"]
        assert len(steps) == 97
        assert all(list(step) == keys for step in steps)


class TestAnalyzeCommand:
    def test_no_fragility_block(self, demo_csv, capsys):
        code = main(["analyze", demo_csv, "--t0", "2"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["fragility"] is None
        assert 0.0 < report["initial_probability"] < 1.0

    def test_low_probability_still_exits_ok(self, demo_csv, capsys):
        code = main(["analyze", demo_csv, "--t0", "50"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["initial_probability"] < 0.7

    def test_large_event_count_below_the_posterior_mode(self, tmp_path, capsys):
        # 3500 events put the posterior shape at 3500.5; at x = a - sqrt(a)
        # the incomplete-gamma series needs more than 300 terms
        times = [1.0 + i % 7 for i in range(5000)]
        path = tmp_path / "cohort.csv"
        rows = [f"{t!r},{1 if i < 3500 else 0}" for i, t in enumerate(times)]
        path.write_text("time,status\n" + "\n".join(rows) + "\n", encoding="utf-8")
        shape, rate = 0.5 + 3500, 0.5 + sum(times)
        x = shape - math.sqrt(shape)
        t0 = repr(rate * math.log(2.0) / x)

        assert main(["analyze", str(path), "--t0", t0]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["posterior"] == {"shape": shape, "rate": rate}
        assert abs(report["initial_probability"] - scipy_gammainc(shape, x)) <= 2e-10

        assert main(["fi", str(path), "--t0", t0]) == EXIT_NOT_APPLICABLE
        captured = capsys.readouterr()
        assert "not-fragile-applicable" in captured.err
        assert json.loads(captured.out)["fragility"] == {"applicable": False}

    def test_t0_that_overflows_x_gives_probability_one(self, demo_csv, capsys):
        assert main(["analyze", demo_csv, "--t0", "1e-320"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["initial_probability"] == 1.0

    @pytest.mark.parametrize("command", ["analyze", "fi"])
    def test_posterior_computed_once_per_report(self, demo_csv, monkeypatch, capsys, command):
        calls = []
        update = cli.posterior_update
        monkeypatch.setattr(cli, "posterior_update", lambda prior, data: calls.append(1) or update(prior, data))
        assert main([command, demo_csv, "--t0", "2"]) == EXIT_OK
        assert len(calls) == 1


class TestKmCommand:
    def test_svg_structure_matches_plot_points(self, demo_csv, tmp_path, capsys):
        points_path = tmp_path / "points.json"
        code = main(["km", demo_csv, "--points-out", str(points_path)])
        assert code == EXIT_OK
        svg_text = capsys.readouterr().out
        root = ET.fromstring(svg_text)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.get("version") == "1.1"

        data, _ = ingest_csv(demo_csv)
        expected_points, expected_ticks = km_to_plot_points(km_estimate(data))
        payload = json.loads(points_path.read_text())
        assert [(p["time"], p["survival"]) for p in payload["points"]] == expected_points
        assert [(t["time"], t["survival"]) for t in payload["censor_ticks"]] == expected_ticks

        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = root.findall(".//svg:polyline", ns)
        assert len(polylines) == 1
        coords = polylines[0].get("points").split()
        assert len(coords) == len(expected_points)
        ticks = [e for e in root.findall(".//svg:line", ns) if e.get("class") == "censor-tick"]
        assert len(ticks) == len(expected_ticks)
        texts = [e.text for e in root.findall(".//svg:text", ns)]
        assert "Time (months)" in texts
        assert "Survival probability" in texts

    def test_time_unit_flag_reaches_axis_label(self, demo_csv, capsys):
        main(["km", demo_csv, "--time-unit", "weeks"])
        assert "Time (weeks)" in capsys.readouterr().out

    def test_axis_label_is_escaped_in_the_svg_only(self, demo_csv, capsys):
        unit = "a<b & c"
        assert main(["km", demo_csv, "--time-unit", unit]) == EXIT_OK
        svg = minidom.parseString(capsys.readouterr().out)
        assert f"Time ({unit})" in [e.firstChild.data for e in svg.getElementsByTagName("text")]
        assert main(["analyze", demo_csv, "--t0", "2", "--time-unit", unit]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["input"]["time_unit"] == unit
        assert main(["analyze", demo_csv, "--t0", "2", "--time-unit", unit, "--format", "text"]) == EXIT_OK
        assert f"input.time_unit: {unit}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("unit", ["\t", "<&>", "\u00e9", "\ud7ff\ue000\ufffd", "\U0001f600\U0010ffff"])
    def test_labels_within_xml_chars_are_accepted(self, demo_csv, capsys, unit):
        assert main(["km", demo_csv, "--time-unit", unit]) == EXIT_OK
        svg = minidom.parseString(capsys.readouterr().out.encode("utf-8"))
        assert f"Time ({unit})" in [e.firstChild.data for e in svg.getElementsByTagName("text")]

    @pytest.mark.parametrize("unit", ["a\x01b", "\x0b", "\udcff", "\ufffe", "\uffff"])
    @pytest.mark.parametrize("argv", [["km"], ["analyze", "--t0", "2"], ["fi", "--t0", "2", "--format", "text"],
                                      ["sensitivity", "--t0", "2", "--grid", "p0=0.5"]], ids=lambda a: a[0])
    def test_labels_outside_xml_chars_are_input_errors(self, demo_csv, tmp_path, capsys, argv, unit):
        out = tmp_path / "out"
        assert main([argv[0], demo_csv, *argv[1:], "--time-unit", unit, "--out", str(out)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = unit.strip("ab")
        assert captured.err.endswith(
            f"fragsurv: input-error: argument --time-unit: character {bad!r} is not allowed in XML 1.0 text\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("unit", ["weeks\nfragility.fi: 99", "a\rb", "a\x85b", "a\u2028b", "a\u2029b", "\r\n"])
    @pytest.mark.parametrize("argv", [["km"], ["analyze", "--t0", "2", "--format", "text"],
                                      ["fi", "--t0", "2", "--format", "text"],
                                      ["sensitivity", "--t0", "2", "--grid", "p0=0.5"]], ids=lambda a: a[0])
    def test_labels_that_break_a_line_are_input_errors(self, demo_csv, tmp_path, capsys, argv, unit):
        # XML 1.0 allows these, but in a text report the rest of the label would read as a report line
        out = tmp_path / "out"
        assert main([argv[0], demo_csv, *argv[1:], "--time-unit", unit, "--out", str(out)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = next(c for c in unit if c in "\n\r\x85\u2028\u2029")
        assert captured.err.endswith(
            f"fragsurv: input-error: argument --time-unit: character {bad!r} would break a line of a text report\n"
        )
        assert not out.exists()

    def test_a_path_that_breaks_a_line_forges_no_report_line(self, demo_csv, tmp_path, capsys):
        # a path cannot be refused, so the text report quotes it as JSON does
        path = tmp_path / "d\nfragility.fi: 99.csv"
        path.write_bytes(Path(demo_csv).read_bytes())
        assert main(["analyze", str(path), "--t0", "2", "--format", "text"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("fragility.")] == []
        assert f"input.path: {json.dumps(str(path))}" in lines

    def test_every_line_boundary_of_splitlines_is_refused(self):
        boundaries = [chr(i) for i in range(0x110000) if len(f"a{chr(i)}b".splitlines()) > 1]
        assert boundaries == list("\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029")
        for char in boundaries:
            with pytest.raises(argparse.ArgumentTypeError):
                cli._time_unit(f"a{char}b")

    def test_every_code_point_is_judged_by_the_xml_char_production(self):
        # Char ::= #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] | [#x10000-#x10FFFF]
        def xml_char(i: int) -> bool:
            return i in (0x9, 0xA, 0xD) or 0x20 <= i <= 0xD7FF or 0xE000 <= i <= 0xFFFD or 0x10000 <= i <= 0x10FFFF

        expected, refused = {}, {}
        for i in range(0x110000):
            char = chr(i)
            if not xml_char(i):
                expected[i] = f"character {char!r} is not allowed in XML 1.0 text"
            elif len(f"a{char}b".splitlines()) > 1:
                expected[i] = f"character {char!r} would break a line of a text report"
            try:
                assert cli._time_unit(f"a{char}b") == f"a{char}b"
            except argparse.ArgumentTypeError as exc:
                refused[i] = str(exc)
        # 29 C0 controls, 2048 surrogates, U+FFFE and U+FFFF; then LF, CR, NEL, LS and PS
        assert sum(not xml_char(i) for i in expected) == 2079 and len(expected) == 2084
        assert refused == expected

    @pytest.mark.parametrize("label,bad", [("a\x00b\x01", "\x00"), ("\ud800\x1f", "\ud800"), ("ok\uffff\ufffe", "\uffff"),
                                           ("a\nb\x08", "\x08"), ("\u2028\udfff", "\udfff"), ("\r\n\x0b", "\x0b")])
    def test_the_xml_message_names_the_first_excluded_character_before_any_line_break(self, label, bad):
        with pytest.raises(argparse.ArgumentTypeError) as exc:
            cli._time_unit(label)
        assert str(exc.value) == f"character {bad!r} is not allowed in XML 1.0 text"

    def test_all_censored_flat_polyline(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("time,status\n1,0\n4,0\n", encoding="utf-8")
        main(["km", str(path)])
        root = ET.fromstring(capsys.readouterr().out)
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polyline = root.find(".//svg:polyline", ns)
        pairs = [tuple(map(float, xy.split(","))) for xy in polyline.get("points").split()]
        assert len(pairs) == 2
        assert pairs[0][1] == pairs[1][1]  # horizontal at S=1

    def test_empty_input_no_svg_written(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "curve.svg"
        code = main(["km", str(empty), "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert not out.exists()


class TestSensitivityCommand:
    def test_grid_report(self, demo_csv, capsys):
        code = main(["sensitivity", demo_csv, "--t0", "2", "--grid", "p0=0.6,0.7,0.8"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["axes"] == {"p0": [0.6, 0.7, 0.8]}
        assert len(report["cells"]) == 3
        # not-attained (fi null) means FI > censored count, above any attained value
        fis = [
            c["fi"] if c["fi"] is not None else float("inf")
            for c in report["cells"]
            if c["status"] == "ok"
        ]
        assert fis == sorted(fis, reverse=True)

    def test_multi_axis_order(self, demo_csv, capsys):
        main(["sensitivity", demo_csv, "--t0", "2", "--grid", "p0=0.6,0.8;t0=1,2"])
        report = json.loads(capsys.readouterr().out)
        assert [c["params"] for c in report["cells"]] == [
            {"t0": 1.0, "p0": 0.6},
            {"t0": 1.0, "p0": 0.8},
            {"t0": 2.0, "p0": 0.6},
            {"t0": 2.0, "p0": 0.8},
        ]

    def test_bad_grid_is_input_error(self, demo_csv, capsys):
        assert main(["sensitivity", demo_csv, "--t0", "2", "--grid", "nope=1"]) == EXIT_INPUT_ERROR
        assert "input-error" in capsys.readouterr().err

    @pytest.mark.parametrize("grid,message", [
        ("nope=1", "unknown axis 'nope'; expected one of prior_shape, prior_rate, t0, p0"),
        ("p0=", "axis 'p0' has no values"),
        (";", "no axes given"),
        ("p0", "expected name=v1,v2,... in 'p0'"),
        ("p0=0.6,x", "invalid number in 'p0=0.6,x'"),
        ("p0=0.6;p0=0.7,0.8", "axis 'p0' given twice"),
        ("p0=nan", "non-finite number in 'p0=nan'"),
        ("p0=0.6;t0=inf,2", "non-finite number in 't0=inf,2'"),
        ("prior_rate=1e400", "non-finite number in 'prior_rate=1e400'"),
    ], ids=["unknown", "empty", "none", "no-equals", "not-a-number", "repeated", "nan", "inf", "overflow"])
    def test_grid_error_message(self, demo_csv, capsys, grid, message):
        assert main(["sensitivity", demo_csv, "--t0", "2", "--grid", grid]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"fragsurv: input-error: --grid: {message}\n"

    def test_prior_rate_that_overflows_the_posterior_is_a_cell_error(self, tmp_path, capsys):
        path = tmp_path / "pr.csv"
        path.write_text("time,status\n5e307,1\n5e307,0\n", encoding="utf-8")
        argv = ["sensitivity", str(path), "--t0", "1", "--prior-rate", "1e308", "--grid", "p0=0.5"]
        assert main(argv) == EXIT_OK
        (cell,) = json.loads(capsys.readouterr().out)["cells"]
        error = "Gamma rate must be finite and > 0, got inf"
        assert cell == {"params": {"p0": 0.5}, "status": "error", "error": error}


    def test_prior_shape_of_2_to_the_53_is_a_cell_error(self, demo_csv, capsys):
        argv = ["sensitivity", demo_csv, "--t0", "2", "--grid", "prior_shape=9007199254740989,1e308"]
        assert main(argv) == EXIT_OK
        cells = json.loads(capsys.readouterr().out)["cells"]
        # demo.csv has 3 events: 2**53 - 3 + 3 reaches 2**53
        assert [cell["error"] for cell in cells] == [
            "reg_lower_inc_gamma requires 2**-1022 <= a < 2**53, got 9007199254740992.0",
            "reg_lower_inc_gamma requires 2**-1022 <= a < 2**53, got 1e+308",
        ]

    def test_a_flip_shape_of_2_to_the_53_is_a_cell_error(self, monkeypatch, capsys):
        # censored.csv has no events and two censored rows: from P(0) at 2**53 - 1 the first flip's shape
        # is 2**53, and from 2**53 - 2 the second's; each cell fails there with fragility_index's error
        monkeypatch.chdir(DATA.parent.parent)
        grid = "prior_shape=9007199254740991,9007199254740990;t0=9.234575219833763e-17"
        argv = ["sensitivity", "tests/data/censored.csv", "--t0", "1", "--grid", grid, "--format", "text"]
        assert main(argv) == EXIT_OK
        error = "reg_lower_inc_gamma requires 2**-1022 <= a < 2**53, got 9007199254740992.0"
        assert capsys.readouterr().out == (
            "tool.name: fragsurv\n"
            "tool.version: 0.1.0\n"
            "input.path: tests/data/censored.csv\n"
            "input.sha256: 26aa89ed57d15f2e0ed34c5ed2d9f6b34cd73268bb2e52a37bde8dd418d3c5c0\n"
            "base_config.prior_shape: 0.5\n"
            "base_config.prior_rate: 0.5\n"
            "base_config.t0: 1.0\n"
            "base_config.p0: 0.7\n"
            "axes.prior_shape.0: 9007199254740991.0\n"
            "axes.prior_shape.1: 9007199254740990.0\n"
            "axes.t0.0: 9.234575219833763e-17\n"
            "cells.0.params.prior_shape: 9007199254740991.0\n"
            "cells.0.params.t0: 9.234575219833763e-17\n"
            "cells.0.status: error\n"
            f"cells.0.error: {error}\n"
            "cells.1.params.prior_shape: 9007199254740990.0\n"
            "cells.1.params.t0: 9.234575219833763e-17\n"
            "cells.1.status: error\n"
            f"cells.1.error: {error}\n"
        )
        dataset, _ = ingest_csv("tests/data/censored.csv")
        for prior_shape in (2.0**53 - 1, 2.0**53 - 2):
            config = AnalysisConfig(t0=9.234575219833763e-17, prior=GammaParams(prior_shape, 0.5))
            with pytest.raises(ValueError) as excinfo:
                fragility.fragility_index(dataset, config)
            assert str(excinfo.value) == error


class TestSimulateCommand:
    def test_writes_roundtrippable_csv(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--n", "25", "--rate", "0.3", "--censor-rate", "0.1", "--seed", "9", "--out", str(out)])
        assert code == EXIT_OK
        data, _ = ingest_csv(out)
        assert data == simulate_trial(SimSpec(n=25, event_rate=0.3, censor_rate=0.1, seed=9))

    def test_stdout_csv_identical_across_runs(self, capsys):
        main(["simulate", "--n", "10", "--rate", "0.5", "--seed", "4"])
        first = capsys.readouterr().out
        main(["simulate", "--n", "10", "--rate", "0.5", "--seed", "4"])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("n", [1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1, 2 * cli._CHUNK_ROWS + 5])
    def test_stdout_csv_equals_the_out_file(self, tmp_path, capsys, n):
        argv = ["simulate", "--n", str(n), "--rate", "0.3", "--censor-time", "4", "--seed", "2"]
        out = tmp_path / "sim.csv"
        main(argv + ["--out", str(out)])
        main(argv)
        dataset = simulate_trial(SimSpec(n=n, event_rate=0.3, censor_time=4.0, seed=2))
        expected = "time,status\n" + "".join(f"{t!r},{e}\n" for t, e in zip(dataset.times, dataset.events))
        assert capsys.readouterr().out == expected
        assert out.read_bytes() == expected.encode("utf-8")

    def test_histogram_mode(self, capsys):
        code = main(
            ["simulate", "--n", "15", "--rate", "0.2", "--censor-rate", "0.2", "--seed", "9",
             "--replications", "30", "--t0", "3"]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert sum(report["counts"].values()) == 30

    def test_prior_shape_of_2_to_the_53_counts_as_error(self, capsys):
        argv = ["simulate", "--n", "5", "--rate", "1", "--replications", "3", "--t0", "2", "--prior-shape", "1.7e308"]
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["counts"] == {"error": 3}

    def test_negative_replications_is_input_error(self, capsys):
        assert main(["simulate", "--n", "5", "--rate", "1", "--replications", "-3"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fragsurv: input-error: --replications must be >= 0, got -3\n"

    def test_histogram_requires_t0(self, capsys):
        code = main(["simulate", "--n", "15", "--rate", "0.2", "--replications", "5"])
        assert code == EXIT_INPUT_ERROR
        assert "input-error" in capsys.readouterr().err

    def test_rejects_conflicting_censoring(self, capsys):
        code = main(["simulate", "--n", "5", "--rate", "0.2", "--censor-time", "1", "--censor-rate", "1"])
        assert code == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == (
            "fragsurv: input-error: specify at most one of censor_time and censor_rate\n"
        )

    @pytest.mark.parametrize("flag", ["--rate", "--censor-rate"])
    def test_rate_whose_draws_overflow_is_input_error(self, capsys, flag):
        argv = ["simulate", "--n", "5", "--rate", "1"] + [flag, "1e-320"]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fragsurv: input-error: ")
        assert "rate 1e-320 is too small" in captured.err

    @pytest.mark.parametrize("rates", [["--rate", "1e308"], ["--rate", "1", "--censor-rate", "1e308"]])
    def test_rate_whose_smallest_draw_rounds_to_0_is_input_error(self, capsys, rates):
        argv = ["simulate", "--n", "3", *rates, "--seed", str(_TOP_LATTICE_SEED)]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        name = "censor_rate" if "--censor-rate" in rates else "event_rate"
        assert captured.err.startswith(f"fragsurv: input-error: {name} 1e+308 is too large: ")

    def test_the_largest_accepted_rate_writes_the_least_positive_double(self, capsys):
        # 4.4942328371557893e+307 is the double just below 2^1022
        argv = ["simulate", "--n", "3", "--rate", "4.4942328371557893e+307", "--seed", str(_TOP_LATTICE_SEED)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.split("\n")[1] == "5e-324,1"


class TestReproducePaper:
    def test_bundle_contents_and_mismatch_reporting(self, capsys):
        code = main(["reproduce-paper"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL_ERROR
        bundle = json.loads(captured.out)
        assert [c["case"] for c in bundle["cases"]] == [
            "lung-cancer",
            "pembrolizumab-hcc",
            "palbociclib-breast",
        ]
        for case in bundle["cases"]:
            # calibration reproduces every reported probability
            assert case["initial_probability_matches"] is True
            assert abs(
                case["computed_initial_probability"] - case["reported_initial_probability"]
            ) <= 1e-6
            # the strict below-p0 crossing sits one step past the published index
            assert case["computed_fi"] == case["published_fi"] + 1
            assert case["fi_matches_published"] is False
            assert "reproduction-mismatch" in captured.err
            assert case["case"] in captured.err
        assert bundle["all_match"] is False

    def test_reconstructed_datasets_match_published_counts(self):
        for case in CASE_STUDIES:
            data = reconstruct_case_dataset(case)
            assert data.n == case.n
            assert data.num_events == case.events
            assert data.num_censored == case.censored

    def test_reconstructed_case_through_csv_pipeline(self, tmp_path, capsys):
        # lung-cancer case written to CSV and pushed through `fi` end to end
        case = CASE_STUDIES[0]
        path = tmp_path / "case1.csv"
        write_csv(reconstruct_case_dataset(case), path)
        code = main(["fi", str(path), "--t0", "7"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert abs(report["initial_probability"] - 0.935) <= 1e-3
        assert report["posterior"]["shape"] == 22.5
        # strict below-p0 crossing: one step past the published index of 5
        assert report["fragility"]["fi"] == 6

    def test_an_initial_probability_off_the_published_one_is_a_mismatch(self, capsys, monkeypatch):
        calibrate = reproduce.calibrate
        monkeypatch.setattr(reproduce, "calibrate", lambda *args: 1.1 * calibrate(*args))
        assert main(["reproduce-paper"]) == EXIT_NUMERICAL_ERROR
        captured = capsys.readouterr()
        assert [c["initial_probability_matches"] for c in json.loads(captured.out)["cases"]] == [False] * 3
        assert "fragsurv: reproduction-mismatch: lung-cancer: calibrated initial probability " in captured.err
        assert "differs from published 0.935\n" in captured.err

    def test_trajectories_strictly_decreasing(self):
        bundle, _ = run_reproduce_paper()
        for case in bundle["cases"]:
            probs = [step["probability"] for step in case["trajectory"]]
            assert all(a > b for a, b in zip(probs, probs[1:]))


class TestRenderJson:
    """Every JSON report, rendered or written by a command, is json.dumps(indent=2) of the report with
    each row table expanded into its list of rows."""

    UNIT = 'w}, "k\\s\u00e9'
    PATH = 'dir/a "b\\c}, "d\u00e9 \u2028{.csv'

    @staticmethod
    def _expected(report: dict) -> str:
        return json.dumps(report, indent=2, default=list) + "\n"  # `list` expands a RowTable into its rows

    def _assert_written_as_json_dumps(self, report: dict, tmp_path) -> None:
        expected = self._expected(report)
        assert "".join(cli._render(report, "json")) == expected
        out = tmp_path / "report.json"
        cli._emit(cli._render(report, "json"), str(out))
        assert out.read_bytes() == expected.encode("utf-8")

    def _report(self, dataset):
        from fragsurv.fragility import fragility_index
        from fragsurv.survival import posterior_update

        config = AnalysisConfig(t0=8.0)
        posterior = posterior_update(config.prior, dataset)
        try:
            result = fragility_index(dataset, config)
            prob, fragility = result.initial_prob, cli._fragility_json(result)
        except cli.NotFragileApplicableError as exc:
            prob, fragility = exc.initial_prob, {"applicable": False}
        return cli._report(input={"path": self.PATH, "time_unit": dataset.time_unit},
                           posterior={"shape": posterior.shape, "rate": posterior.rate},
                           initial_probability=prob, fragility=fragility, km=cli._km_json(dataset))

    def test_equals_json_dumps_at_300_and_301_subjects(self, tmp_path):
        reports = []
        for n in (300, 301):
            trial = simulate_trial(SimSpec(n=n, event_rate=0.08, censor_rate=0.04, seed=n))
            for events in (trial.events, b"\x01" * n):  # the second has no censor marks and no index
                reports.append(self._report(cli.SurvivalDataset(trial.times, events, self.UNIT)))
        assert [len(r["km"]["censor_marks"]) > 0 for r in reports] == [True, False, True, False]
        assert [r["fragility"]["applicable"] for r in reports] == [True, False, True, False]
        assert ["survival_exact" in r["km"]["steps"].keys for r in reports] == [True, True, False, False]
        for report in reports:
            self._assert_written_as_json_dumps(report, tmp_path)

    # (subjects, KM steps, rows per chunk): no row, one row, one full chunk and one row more, on both sides
    # of the 300-subject limit of the exact KM product; the last case also has one chunk and one more
    # row of censor marks.
    @pytest.mark.parametrize("n,steps,chunk", [
        *((n, steps, 7) for n in (300, 301) for steps in (0, 1, 7, 8)),
        *((n, steps, cli._CHUNK_ROWS) for n in (300, 301) for steps in (0, 1)),
        (cli._CHUNK_ROWS, cli._CHUNK_ROWS, cli._CHUNK_ROWS),
        (2 * cli._CHUNK_ROWS + 2, cli._CHUNK_ROWS + 1, cli._CHUNK_ROWS),
    ])
    def test_row_counts_at_the_chunk_boundaries(self, tmp_path, monkeypatch, n, steps, chunk):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        times = [0.5 + i / 3 for i in range(n)]  # distinct, so the first `steps` events are one step each
        report = self._report(cli.SurvivalDataset(times, b"\x01" * steps + b"\x00" * (n - steps), self.UNIT))
        assert len(report["km"]["steps"]) == steps
        assert len(report["km"]["censor_marks"]) == n - steps
        self._assert_written_as_json_dumps(report, tmp_path)

    def test_every_command_report_equals_json_dumps(self, tmp_path, capsys):
        points = tmp_path / "points.json"
        assert main(["km", str(DATA / "cohort.csv"), "--points-out", str(points)]) == EXIT_OK
        capsys.readouterr()
        text = points.read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2) + "\n" == text
        argvs = [["fi", str(DATA / "cohort.csv"), "--t0", "8", "--with-km"],
                 ["analyze", str(DATA / "demo.csv"), "--t0", "2"],
                 ["sensitivity", str(DATA / "demo.csv"), "--t0", "2", "--grid", "p0=0.3,0.7;prior_shape=0.5,-1"],
                 ["simulate", "--n", "50", "--rate", "0.1", "--censor-rate", "0.05", "--replications", "40",
                  "--t0", "5"],
                 ["reproduce-paper"]]
        for argv in argvs:
            out = tmp_path / "report.json"
            main(argv + ["--out", str(out)])
            main(argv)
            text = capsys.readouterr().out
            assert json.dumps(json.loads(text), indent=2) + "\n" == text
            assert out.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("n", [24_000, 72_000])
    def test_a_large_report_is_written_one_chunk_at_a_time(self, tmp_path, n):
        # the traced peak while writing stays under one bound at every size, below the size of the
        # report (about 1 MB on Python 3.11; a report built as one string peaks at twice its size)
        times = [1.0 + i / 7 for i in range(n)]
        report = {"km": cli._km_json(cli.SurvivalDataset(times, b"\x01\x01\x00" * (n // 3) + b"\x01" * (n % 3)))}
        out = tmp_path / "km.json"
        tracemalloc.start()
        try:
            cli._emit(cli._render(report, "json"), str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.stat().st_size >= 2_000_000
        assert peak < 1_500_000


class TestRenderText:
    """Every text report, rendered or written by a command, is one `path: value` line per scalar, in the
    order of the flat walk below, with each value written as json writes it but a string unquoted."""

    PATH, UNIT = TestRenderJson.PATH, TestRenderJson.UNIT

    @staticmethod
    def _expected(report: dict) -> str:
        lines = []

        def walk(prefix, value):
            for key, sub in value.items() if isinstance(value, dict) else enumerate(value):
                if isinstance(sub, (dict, list, tuple, cli.RowTable)):
                    walk(f"{prefix}{key}.", sub)  # a RowTable iterates as its rows
                else:  # a string unquoted, unless a line boundary would split it
                    plain = isinstance(sub, str) and len(f"a{sub}b".splitlines()) == 1
                    lines.append(f"{prefix}{key}: {sub if plain else json.dumps(sub)}")

        walk("", report)
        return "\n".join(lines) + "\n"

    def _assert_written_as_the_walk(self, report: dict, tmp_path) -> None:
        expected = self._expected(report)
        assert "".join(cli._render(report, "text")) == expected
        out = tmp_path / "report.txt"
        cli._emit(cli._render(report, "text"), str(out))
        assert out.read_bytes() == expected.encode("utf-8")

    def test_each_leaf_is_written_as_its_json(self, tmp_path):
        # a tuple is numbered like the list that JSON writes, and each scalar is spelled as JSON spells it
        report = {"a": (1, 2.5), "b": None, "c": True, "d": 7, "e": 0.1, "f": 'x "y" \u00e9',
                  "g": {"h": [False, (), {"i": (3,)}]}}
        text = "".join(cli._render(report, "text"))
        assert text == self._expected(json.loads("".join(cli._render(report, "json"))))
        assert text.startswith("a.0: 1\na.1: 2.5\nb: null\nc: true\nd: 7\ne: 0.1\nf: x \"y\" \u00e9\n")
        self._assert_written_as_the_walk(report, tmp_path)

    @pytest.mark.parametrize("chunk", [7, cli._CHUNK_ROWS])
    def test_at_300_and_301_subjects(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        for n in (300, 301):
            trial = simulate_trial(SimSpec(n=n, event_rate=0.08, censor_rate=0.04, seed=n))
            for events in (trial.events, b"\x01" * n):
                dataset = cli.SurvivalDataset(trial.times, events, self.UNIT)
                self._assert_written_as_the_walk(TestRenderJson._report(self, dataset), tmp_path)

    @pytest.mark.parametrize("chunk", [7, cli._CHUNK_ROWS])
    def test_every_command_report_is_the_walk_of_its_json(self, tmp_path, capsys, monkeypatch, chunk):
        # json.loads gives back every scalar that the text shows: floats round-trip through repr
        monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk)
        argvs = [["fi", str(DATA / "cohort.csv"), "--t0", "8", "--with-km"],
                 ["fi", str(DATA / "demo.csv"), "--t0", "2", "--with-km", "--time-unit", "100% of %d"],
                 ["analyze", str(DATA / "demo.csv"), "--t0", "2"],
                 ["sensitivity", str(DATA / "demo.csv"), "--t0", "2", "--grid", "p0=0.3,0.7;prior_shape=0.5,-1"],
                 ["simulate", "--n", "50", "--rate", "0.1", "--censor-rate", "0.05", "--replications", "40",
                  "--t0", "5"],
                 ["reproduce-paper"]]
        for argv in argvs:
            main(argv)
            report = json.loads(capsys.readouterr().out)
            out = tmp_path / "report.txt"
            main(argv + ["--format", "text", "--out", str(out)])
            main(argv + ["--format", "text"])
            text = capsys.readouterr().out
            assert text == self._expected(report), argv
            assert out.read_text(encoding="utf-8") == text

    @pytest.mark.parametrize("n", [24_000, 72_000])
    def test_a_large_report_is_written_one_chunk_at_a_time(self, tmp_path, n):
        times = [1.0 + i / 7 for i in range(n)]
        report = {"km": cli._km_json(cli.SurvivalDataset(times, b"\x01\x01\x00" * (n // 3) + b"\x01" * (n % 3)))}
        out = tmp_path / "km.txt"
        tracemalloc.start()
        try:
            cli._emit(cli._render(report, "text"), str(out))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.stat().st_size >= 2_000_000
        assert peak < 1_500_000


# Golden histogram file: the `fragsurv simulate` arguments that wrote it. At n = 1500 with
# --censor-time one replication takes 1500 draws, more than one block of `sim._uniforms`.
_SIMULATE_HISTOGRAMS = {
    "simulate_replications_n50.json": "--n 50 --rate 0.1 --censor-rate 0.05 --t0 5 --replications 250 --seed 11",
    "simulate_replications_n1500.json": "--n 1500 --rate 0.1 --censor-time 8 --t0 6.8 --replications 9 --seed 12",
}

# Censoring flags: sha256 of the stdout of `fragsurv simulate --n 5000 --rate 0.1 --seed 5 <flags>`.
_SIMULATE_CSV_SHA256 = {
    "--censor-rate 0.05": "4a3fd8c5fb69b8557a3fd891b6e413cc13fdc849bdc895e4ef6a3384f06faef7",
    "--censor-time 8": "af2bf688bbb22ec5bf0ad1a2d1285524a4844f966507fd472c9fa90567cdae6a",
    "": "7860b067df8f43c7c3c29cff0355d0a5394673c5107727e4bddeab07882ae6ad",
}


class TestGoldenOutput:
    """Exact stdout recorded in tests/data; refactors must not move a byte.

    Recorded in tests/data with `fragsurv fi demo.csv --t0 2 --with-km`,
    `fragsurv fi cohort.csv --t0 8 --with-km`,
    `fragsurv km cohort.csv --points-out km_cohort_points.json > km_cohort.svg`,
    `fragsurv sensitivity demo.csv --t0 2 --grid 'p0=0.3,0.7,0.99;prior_shape=0.5,-1'`,
    `fragsurv reproduce-paper`, and the two `fragsurv simulate --replications`
    runs of `_SIMULATE_HISTOGRAMS`. cohort.csv is
    `fragsurv simulate --n 320 --rate 0.08 --censor-rate 0.04 --seed 3`.
    """

    def test_fi_with_km_on_the_demo_csv(self, monkeypatch, capsys):
        monkeypatch.chdir(DATA)
        assert main(["fi", "demo.csv", "--t0", "2", "--with-km"]) == EXIT_OK
        assert capsys.readouterr().out == (DATA / "fi_with_km.json").read_text(encoding="utf-8")

    def test_fi_with_km_above_the_exact_km_limit(self, monkeypatch, capsys):
        # 320 rows: the float KM product (no survival_exact), censor marks and a 15-step trajectory
        monkeypatch.chdir(DATA)
        assert main(["fi", "cohort.csv", "--t0", "8", "--with-km"]) == EXIT_OK
        assert capsys.readouterr().out == (DATA / "fi_with_km_cohort.json").read_text(encoding="utf-8")

    def test_km_svg_and_points_above_the_exact_km_limit(self, monkeypatch, capsys, tmp_path):
        # 320 rows: the float KM product drawn as a staircase with censor ticks
        monkeypatch.chdir(DATA)
        points = tmp_path / "points.json"
        assert main(["km", "cohort.csv", "--points-out", str(points)]) == EXIT_OK
        assert capsys.readouterr().out == (DATA / "km_cohort.svg").read_text(encoding="utf-8")
        assert points.read_bytes() == (DATA / "km_cohort_points.json").read_bytes()

    def test_sensitivity_on_the_demo_csv(self, monkeypatch, capsys):
        # one cell each: not attained, ok, not applicable, and errors from a bad prior shape
        monkeypatch.chdir(DATA)
        grid = "p0=0.3,0.7,0.99;prior_shape=0.5,-1"
        assert main(["sensitivity", "demo.csv", "--t0", "2", "--grid", grid]) == EXIT_OK
        assert capsys.readouterr().out == (DATA / "sensitivity.json").read_text(encoding="utf-8")

    def test_reproduce_paper(self, capsys):
        assert main(["reproduce-paper"]) == EXIT_NUMERICAL_ERROR
        assert capsys.readouterr().out == (DATA / "reproduce_paper.json").read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(_SIMULATE_HISTOGRAMS))
    def test_simulate_replications_histogram(self, name, capsys):
        assert main(["simulate", *_SIMULATE_HISTOGRAMS[name].split()]) == EXIT_OK
        assert capsys.readouterr().out == (DATA / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("censoring", sorted(_SIMULATE_CSV_SHA256))
    def test_simulate_csv_digest(self, censoring, capsys):
        argv = ["simulate", "--n", "5000", "--rate", "0.1", "--seed", "5", *censoring.split()]
        assert main(argv) == EXIT_OK
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
        assert digest == _SIMULATE_CSV_SHA256[censoring]


def _pinned(name: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr pinned in tests/data/help/<name>.txt.

    Written by `tools/bytecheck.py pin-help`: `exit N`, then `stdout B` and
    B bytes, then `stderr B` and B bytes.
    """
    head, _, rest = (HELP / f"{name}.txt").read_bytes().partition(b"\n")
    code = int(head.removeprefix(b"exit "))
    streams = []
    for label in (b"stdout ", b"stderr "):
        head, _, rest = rest.partition(b"\n")
        size = int(head.removeprefix(label))
        streams.append(rest[:size].decode())
        rest = rest[size:]
    assert rest == b""
    return code, streams[0], streams[1]


# The command argvs this module runs through main, with placeholder paths.
COMMAND_ARGVS = [
    ["fi", "d.csv", "--t0", "2"],
    ["fi", "d.csv", "--t0", "2", "--p0", "0.99"],
    ["fi", "d.csv", "--t0", "-1"],
    ["fi", "d.csv", "--t0", "2", "--with-km"],
    ["fi", "d.csv", "--t0", "2", "--bogus"],
    ["fi", "d.csv", "--t0", "2", "--format", "text"],
    ["fi", "d.csv", "--t0", "2", "--out", "report.json"],
    ["fi", "d.csv", "--t0", "1e-320"],
    ["fi", "d.csv", "--t0", "1", "--prior-rate", "1e308"],
    ["fi", "d.csv", "--t0", "7"],
    ["analyze", "d.csv", "--t0", "1"],
    ["analyze", "d.csv", "--t0", "2"],
    ["analyze", "d.csv", "--t0", "1", "--prior-rate", "1e308"],
    ["analyze", "d.csv", "--t0", "30", "--with-km"],
    ["analyze", "d.csv", "--t0", "50"],
    ["analyze", "d.csv", "--t0", "2", "--time-unit", "a<b & c", "--format", "text"],
    ["km", "d.csv", "--points-out", "points.json"],
    ["km", "d.csv", "--time-unit", "weeks"],
    ["km", "d.csv"],
    ["km", "d.csv", "--out", "curve.svg"],
    ["km", "d.csv", "--time-unit", "a<b & c"],
    ["km", "d.csv", "--time-unit", "a\x01b"],
    ["sensitivity", "d.csv", "--t0", "2", "--grid", "p0=0.6,0.7,0.8"],
    ["sensitivity", "d.csv", "--t0", "2", "--grid", "p0=0.6,0.8;t0=1,2"],
    ["sensitivity", "d.csv", "--t0", "2", "--grid", "p0=0.6;p0=0.7,0.8"],
    ["sensitivity", "d.csv", "--t0", "2", "--grid", "nope=1"],
    ["sensitivity", "d.csv", "--t0", "2", "--grid", "p0=0.3,0.7,0.99;prior_shape=0.5,-1"],
    ["sensitivity", "d.csv", "--t0", "1", "--prior-rate", "1e308", "--grid", "p0=0.5"],
    ["simulate", "--n", "25", "--rate", "0.3", "--censor-rate", "0.1", "--seed", "9", "--out", "sim.csv"],
    ["simulate", "--n", "10", "--rate", "0.5", "--seed", "4"],
    ["simulate", "--n", "30", "--rate", "0.3", "--censor-time", "4", "--seed", "2"],
    ["simulate", "--n", "15", "--rate", "0.2", "--censor-rate", "0.2", "--seed", "9",
     "--replications", "30", "--t0", "3"],
    ["simulate", "--n", "15", "--rate", "0.2", "--replications", "5"],
    ["simulate", "--n", "5", "--rate", "1", "--replications", "-3"],
    ["simulate", "--n", "5", "--rate", "0.2", "--censor-time", "1", "--censor-rate", "1"],
    ["simulate", "--n", "5", "--rate", "1", "--rate", "1e-320"],
    ["simulate", "--n", "5", "--rate", "1", "--censor-rate", "1e-320"],
    ["reproduce-paper"],
]


class TestArgumentParsing:
    """main builds only the invoked command's parser; what it prints must not change."""

    @pytest.mark.skipif(sys.version_info >= (3, 13),
                        reason="argparse wraps help and usage differently from Python 3.13 on")
    @pytest.mark.parametrize("case", json.loads((HELP / "cases.json").read_text()), ids=lambda c: c["name"])
    def test_help_usage_and_version_bytes(self, case, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = _pinned(case["name"])
        assert main(case["argv"]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err)

    @pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=" ".join)
    def test_one_command_parser_parses_as_the_full_parser(self, argv, capsys):
        def parse(parser):
            try:
                result = parser.parse_args(argv)
            except SystemExit as exc:
                result = exc.code
            return result, capsys.readouterr()

        assert parse(cli.build_parser(argv[0])) == parse(cli.build_parser())

    @pytest.mark.parametrize("command", ["analyze", "fi", "km", "sensitivity", "simulate", "reproduce-paper"])
    def test_one_command_parser_holds_that_command_alone(self, command):
        (sub,) = [a for a in cli.build_parser(command)._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == [command]

    def test_main_builds_a_command_parser_once_per_process(self, tmp_path, monkeypatch):
        help_text, add_arguments, module = cli._COMMANDS["fi"]
        assert add_arguments is cli._add_report_args
        calls = []

        def counting(parser):
            calls.append(parser.prog)
            add_arguments(parser)

        monkeypatch.setitem(cli._COMMANDS, "fi", (help_text, counting, module))
        cli._parser.cache_clear()
        try:
            for i in range(3):
                argv = ["fi", str(DATA / "demo.csv"), "--t0", "2", "--out", str(tmp_path / f"{i}.json")]
                assert main(argv) == EXIT_OK
        finally:
            cli._parser.cache_clear()  # drop the parser built through `counting`
        assert calls == ["fragsurv fi"]
        assert len({(tmp_path / f"{i}.json").read_bytes() for i in range(3)}) == 1

    @pytest.mark.parametrize("argv", [
        ["fi", "d.csv", "--t0", "3"],
        ["analyze", "d.csv", "--t0", "3"],
        ["sensitivity", "d.csv", "--t0", "3", "--grid", "p0=0.5"],
        ["simulate", "--n", "5", "--rate", "0.1", "--t0", "3"],
    ], ids=lambda argv: argv[0])
    def test_flags_without_prior_or_p0_give_the_config_defaults(self, argv):
        config = cli._analysis_config(cli.build_parser(argv[0]).parse_args(argv))
        assert config == AnalysisConfig(t0=3.0)
        assert repr(config) == repr(AnalysisConfig(t0=3.0))

    def test_build_parser_returns_a_new_parser_each_call(self):
        first, second = cli.build_parser("fi"), cli.build_parser("fi")
        assert first is not second and first.format_help() == second.format_help()

    def test_a_reused_parser_prints_what_a_fresh_one_prints(self, monkeypatch, capsys):
        # one process, in which each parser is reused, against a fresh process per call
        pinned = {tuple(case["argv"]): case["name"] for case in json.loads((HELP / "cases.json").read_text())}
        steps = [(80, ["fi", "demo.csv"]), (80, ["fi", "--help"]), (80, ["fi", str(DATA / "demo.csv"), "--t0", "2"]),
                 (80, ["--version"]), (120, ["--help"]), (80, ["fi", "demo.csv"])]
        for columns, argv in steps:
            monkeypatch.setenv("COLUMNS", str(columns))
            fresh = subprocess.run([sys.executable, "-m", "fragsurv", *argv], capture_output=True, text=True)
            code = main(argv)
            assert (code, *capsys.readouterr()) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            if tuple(argv) in pinned and columns == 80 and sys.version_info < (3, 13):
                assert (code, fresh.stdout, fresh.stderr) == _pinned(pinned[tuple(argv)])


class TestExitCodes:
    """Any flag value ends in a documented exit code, never in a traceback."""

    ARGVS = {
        "analyze": ["analyze", str(DATA / "demo.csv"), "--t0", "2"],
        "fi": ["fi", str(DATA / "demo.csv"), "--t0", "2"],
        "sensitivity": ["sensitivity", str(DATA / "demo.csv"), "--t0", "2", "--grid", "p0=0.5,0.9"],
        "simulate": ["simulate", "--n", "20", "--rate", "0.3", "--censor-rate", "0.2", "--seed", "3",
                     "--replications", "5", "--t0", "2"],
        "fi-no-events": ["fi", str(DATA / "censored.csv"), "--t0", "2"],
        "analyze-no-events": ["analyze", str(DATA / "censored.csv"), "--t0", "2"],
    }

    @pytest.mark.parametrize("flag", ["--prior-shape", "--prior-rate", "--t0", "--p0"])
    @pytest.mark.parametrize("command", list(ARGVS))
    def test_extreme_flag_values(self, capsys, command, flag):
        codes = {}
        for value in ["5e-324", "1e-300", "1e300", "1e308", "1.7e308", "inf", "nan", "0", "-1"]:
            try:
                codes[value] = main(self.ARGVS[command] + [flag, value])
            except Exception as exc:  # the failure this test looks for
                codes[value] = repr(exc)
            capsys.readouterr()
        assert {v: c for v, c in codes.items() if c not in (0, 2, 3, 4)} == {}
        if command.endswith("no-events") and flag == "--prior-shape":
            # a shape below 2**-1022 stays the posterior shape without events: outside the kernel's domain
            assert codes["5e-324"] == EXIT_INPUT_ERROR

    def test_a_convergence_error_is_a_numerical_error(self, demo_csv, capsys, monkeypatch):
        def failing(*args):
            raise ConvergenceError("continued fraction did not converge", 7)

        monkeypatch.setattr(fragility, "fragility_index", failing)
        assert main(["fi", demo_csv, "--t0", "2"]) == EXIT_NUMERICAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "fragsurv: numerical-error: continued fraction did not converge (after 7 iterations)\n")

    def test_a_bracket_error_is_a_numerical_error(self, capsys, monkeypatch):
        def failing(*args):
            raise BracketError("no sign change")

        monkeypatch.setattr(reproduce, "calibrate", failing)
        assert main(["reproduce-paper"]) == EXIT_NUMERICAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fragsurv: numerical-error: no sign change\n"


class TestOutFiles:
    """Every value that can fail is computed before an output file is opened."""

    @pytest.mark.parametrize("argv", [
        ["fi", "{bad}", "--t0", "2", "--with-km"],
        ["fi", "{demo}", "--t0", "2", "--prior-shape", "-1"],
        ["analyze", "{demo}", "--t0", "2", "--prior-shape", "9007199254740991", "--format", "text"],
        ["sensitivity", "{demo}", "--t0", "2", "--grid", "p0=0.5;t0=nan"],
        ["sensitivity", "{demo}", "--t0", "2", "--grid", "q0=0.5"],
        ["km", "{bad}", "--points-out", "{points}"],
        ["simulate", "--n", "5", "--rate", "1e308"],
        ["simulate", "--n", "5", "--rate", "1", "--replications", "3"],
    ])
    def test_an_input_error_leaves_existing_out_files_untouched(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,status\n2,1\n1_0,0\n", encoding="utf-8")
        out, points = tmp_path / "out", tmp_path / "points.json"
        for path in (out, points):
            path.write_bytes(b"an earlier report\n")
        fields = {"bad": bad, "demo": DATA / "demo.csv", "points": points}
        assert main([arg.format(**fields) for arg in argv] + ["--out", str(out)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("fragsurv: input-error: ")
        assert out.read_bytes() == points.read_bytes() == b"an earlier report\n"


class TestEndToEnd:
    def test_module_invocation(self, demo_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "fragsurv", "fi", demo_csv, "--t0", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["fragility"]["fi"] == 2

    @pytest.mark.parametrize("module", ["fragsurv", "fragsurv.cli"])
    def test_module_invocation_maps_a_command_modules_input_error(self, demo_csv, module):
        # the handler's module raises fragsurv.cli.IngestError, which `python -m fragsurv.cli` must catch too
        proc = subprocess.run([sys.executable, "-m", module, "sensitivity", demo_csv, "--t0", "2", "--grid", "x=1"],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (EXIT_INPUT_ERROR, "")
        assert proc.stderr == ("fragsurv: input-error: --grid: unknown axis 'x'; "
                               "expected one of prior_shape, prior_rate, t0, p0\n")

    _DEMO = str(DATA / "demo.csv")
    _NOT_LOADED = ["csv", "dataclasses", "inspect"]
    _OPENSSL = ["_hashlib", "hashlib"]  # only a command that reads a CSV takes its digest
    _FRACTIONS = ["fractions", "decimal"]  # only a reported FQ or an exact Kaplan-Meier estimate needs them

    @staticmethod
    def _run_without_site(*args: str) -> subprocess.CompletedProcess:
        # python -S with this tree's src on the path: no site hook can import a module before the program does
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True, env=env)

    @pytest.mark.parametrize("argv,code,present,absent", [
        (["analyze", _DEMO, "--t0", "2"], EXIT_OK, [],
         ["fragsurv.fragility", "fragsurv.km", "fragsurv.sim", *_FRACTIONS, *_NOT_LOADED]),
        (["fi", _DEMO, "--t0", "2"], EXIT_OK, ["fragsurv.fragility"], ["fragsurv.km", "fragsurv.sim", *_NOT_LOADED]),
        (["fi", _DEMO, "--t0", "2", "--with-km"], EXIT_OK, ["fragsurv.fragility", "fragsurv.km"],
         ["fragsurv.sim", *_NOT_LOADED]),
        (["sensitivity", _DEMO, "--t0", "2", "--grid", "t0=1,2"], EXIT_OK, ["fragsurv.fragility"],
         ["fragsurv.km", "fragsurv.sim", *_NOT_LOADED]),
        (["km", _DEMO], EXIT_OK, ["fragsurv.km"], ["fragsurv.fragility", "fragsurv.sim", *_NOT_LOADED]),
        (["simulate", "--n", "20", "--rate", "0.5"], EXIT_OK, ["fragsurv.sim"],
         ["fragsurv.km", *_OPENSSL, *_FRACTIONS, *_NOT_LOADED]),
        (["simulate", "--n", "20", "--rate", "0.5", "--replications", "5", "--t0", "2"], EXIT_OK,
         ["fragsurv.sim", "fragsurv.fragility"], ["fragsurv.km", *_OPENSSL, *_FRACTIONS, *_NOT_LOADED]),
        (["reproduce-paper"], EXIT_NUMERICAL_ERROR, ["fragsurv.fragility"],
         ["fragsurv.km", "fragsurv.sim", *_OPENSSL, *_NOT_LOADED]),
        (["--help"], EXIT_OK, [], ["fragsurv.km", "fragsurv.sim", *_OPENSSL, *_FRACTIONS, *_NOT_LOADED]),
        (["--version"], EXIT_OK, [], ["fragsurv.km", "fragsurv.sim", *_OPENSSL, *_FRACTIONS, *_NOT_LOADED]),
    ], ids=["analyze", "fi", "fi-with-km", "sensitivity", "km", "simulate-csv", "simulate-replications",
            "reproduce-paper", "help", "version"])
    def test_a_command_imports_only_what_it_runs(self, tmp_path, argv, code, present, absent):
        # in a fresh interpreter, which has imported none of these before main runs
        script = ("import json, sys\nfrom fragsurv.cli import main\ncode = main(sys.argv[1:])\n"
                  "print(json.dumps([code, sorted(sys.modules)]))\n")
        out = tmp_path / "out"
        command = argv[0] in cli._COMMANDS  # help and the version print to stdout, before the record
        proc = self._run_without_site("-c", script, *argv, *(["--out", str(out)] if command else []))
        assert proc.returncode == 0, proc.stderr
        *printed, record = proc.stdout.splitlines()
        assert json.loads(record)[0] == code
        assert out.read_text(encoding="utf-8") if command else printed
        if argv[0] in ("analyze", "fi", "sensitivity"):
            sha256 = hashlib.sha256((DATA / "demo.csv").read_bytes()).hexdigest()
            assert json.loads(out.read_text(encoding="utf-8"))["input"]["sha256"] == sha256
        loaded = set(json.loads(record)[1])
        assert {"fragsurv.cli", "fragsurv.survival", "fragsurv.specfun", *present} <= loaded
        assert sorted(set(absent) & loaded) == []

    def test_fi_imports_no_typing(self, tmp_path):
        # without site, which may import typing itself, the search loads it through no import of its own
        script = "import sys\nfrom fragsurv.cli import main\nmain(sys.argv[1:])\nprint('typing' in sys.modules)\n"
        out = tmp_path / "out"
        proc = self._run_without_site("-c", script, "fi", self._DEMO, "--t0", "2", "--out", str(out))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
        assert json.loads(out.read_text(encoding="utf-8"))["fragility"]["fi"] is not None

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "fragsurv" in capsys.readouterr().out

    def test_missing_subcommand_is_input_error(self, capsys):
        assert main([]) == EXIT_INPUT_ERROR
