"""Command-line front end: CSV in, JSON/text reports and SVG curves out.

Subcommands: analyze, fi, km, sensitivity, simulate, reproduce-paper. This module parses every
command's arguments and runs analyze and fi; each other command's handler is in its own module under
`fragsurv.commands`, imported only when that command runs.
Exit codes: 0 success (including a not-attained index), 2 fragility index
not applicable, 3 input error, 4 numerical or internal failure, or
reproduction mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice
from pathlib import Path

from . import __version__
from .specfun import MAX_SHAPE, MIN_SHAPE, BracketError, ConvergenceError
from .survival import (
    AnalysisConfig,
    GammaParams,
    NotFragileApplicableError,
    SurvivalDataset,
    posterior_prob_median_exceeds,
    posterior_update,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # for annotations only: analyze imports neither
    from fractions import Fraction

    from .fragility import FragilityResult

EXIT_OK = 0
EXIT_NOT_APPLICABLE = 2
EXIT_INPUT_ERROR = 3
EXIT_NUMERICAL_ERROR = 4

_PROG = "fragsurv"


class IngestError(ValueError):
    """Bad input: a CSV that does not parse into a survival dataset, or an invalid flag value."""


def ingest_csv(path: str | Path, time_unit: str = "months") -> tuple[SurvivalDataset, str]:
    """Read a `time,status` CSV (UTF-8, LF or CRLF) into a dataset and the sha256 of its bytes.

    Read once, so a pipe or FIFO gets the digest of the bytes it delivered. A row
    ends at LF, and one CR before it is dropped; any other line-break character
    is cell text. The header must be exactly `time,status` (case-insensitive).
    Every data row must carry a positive finite time and a status of 0 or 1; the
    first offending row is reported by number. The total time must not overflow.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8: {exc}") from None
    dataset = _bulk_columns(text, time_unit) or _parse_rows(path, text, time_unit)
    if math.isinf(dataset.total_time):
        raise IngestError(f"{path}: total follow-up time overflows")
    import hashlib  # only a command that reads a CSV loads OpenSSL

    return dataset, hashlib.sha256(data).hexdigest()


# Characters of CSV body that _bulk_columns converts at once: their cell strings take about 8 MB.
_SLICE_CHARS = 1 << 20
# A comma that is not followed by a status and the end of its line.
_BAD_COMMA = re.compile(",(?![01]\n)")


def _bulk_columns(text: str, time_unit: str) -> SurvivalDataset | None:
    """The dataset of a CSV whose every data line is `<time>,0` or `<time>,1`, cut with string
    operations; None for any other text or any rejected dataset, which _parse_rows then reports."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    start = text.find("\n") + 1
    # No character outside ASCII lower-cases into `time,status`, so past the header these test the body alone.
    # float() also reads digits of other scripts and `_` between digits; _parse_rows rejects those times
    if not start or text[:start - 1].lower() != "time,status" or not text.isascii() or "_" in text:
        return None
    if not text.endswith("\n"):
        text += "\n"
    # Every comma is followed by a status and a line break, so no line holds two; below, as many
    # cells as two per line leaves no line without one.
    if _BAD_COMMA.search(text, start):
        return None
    times, events, status_bytes = [], bytearray(), bytes.maketrans(b"01", b"\x00\x01")
    try:
        while start < len(text):  # a slice of whole lines: up to the first line break past _SLICE_CHARS
            end = text.find("\n", start + _SLICE_CHARS - 1) + 1 or len(text)
            cells = text[start:end - 1].replace(",", "\n").split("\n")  # time, status, time, status, ...
            if len(cells) != 2 * text.count("\n", start, end):
                return None
            times += map(float, cells[::2])
            events += "".join(cells[1::2]).encode().translate(status_bytes)
            start = end
        return SurvivalDataset(times, events, time_unit)
    except ValueError:
        return None


def _parse_rows(path: Path, text: str, time_unit: str) -> SurvivalDataset:
    """The dataset of any CSV text, one csv.reader row at a time, or the IngestError naming the first bad row."""
    import csv  # only a CSV that _bulk_columns leaves loads it

    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()  # the line break that ends the last row
    reader = csv.reader(line[:-1] if line.endswith("\r") else line for line in lines)
    times, events = [], bytearray()

    def bad_row(message: str) -> IngestError:  # numbered by the file line where the row ends
        return IngestError(f"{path}: row {reader.line_num}: {message}")

    try:
        header = next(reader, None)
        if header is not None and [cell.strip().lower() for cell in header] != ["time", "status"]:
            raise bad_row(f"header must be 'time,status', got {','.join(header)!r}")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # ignore blank lines
            if len(row) != 2:
                raise bad_row(f"expected 2 columns, got {len(row)}")
            time_text, status_text = row[0].strip(), row[1].strip()
            try:
                if not time_text.isascii() or "_" in time_text:  # float() would read `١٢` or `1_0`
                    raise ValueError
                time = float(time_text)
            except ValueError:
                raise bad_row(f"column 1: invalid time {time_text!r}") from None
            if not (math.isfinite(time) and time > 0):
                raise bad_row(f"column 1: time must be positive and finite, got {time_text!r}")
            if status_text not in ("0", "1"):
                raise bad_row(f"column 2: status must be 0 or 1, got {status_text!r}")
            times.append(time)
            events.append(status_text == "1")
    except csv.Error as exc:  # a CR inside an unquoted cell, a cell over the field size limit
        # the part of the message after " - " suggests how to open a file, which does not apply here
        raise bad_row(str(exc).partition(" - ")[0]) from None

    if reader.line_num == 0:
        raise IngestError(f"{path}: file is empty")
    if not times:
        raise IngestError(f"{path}: no data rows")
    return SurvivalDataset(times, events, time_unit)


def write_csv(dataset: SurvivalDataset, path: str | Path | None) -> None:
    """Write a dataset back out in the same `time,status` format ingest_csv reads, to `path` or stdout."""
    _emit(chain(("time,status\n",), _format_rows("%r,%d\n", zip(dataset.times, dataset.events))), path)


# ---------------------------------------------------------------------------
# Reports


def _fraction_json(fq: Fraction | None):
    if fq is None:
        return None
    return {"numerator": fq.numerator, "denominator": fq.denominator, "value": float(fq)}


def _config_json(config: AnalysisConfig) -> dict:
    return {
        "prior_shape": config.prior.shape,
        "prior_rate": config.prior.rate,
        "t0": config.t0,
        "p0": config.p0,
    }


def _fragility_json(result: FragilityResult) -> dict:
    return {
        "applicable": True,
        "fi": result.fi,
        "fi_text": result.fi_text,
        "attained": result.attained,
        "censored_count": result.censored_count,
        "fq": _fraction_json(result.fq),
        "trajectory": RowTable.of_tuples(("k", "probability"), result.trajectory),
    }


def _km_json(dataset: SurvivalDataset) -> dict:
    from fractions import Fraction

    from .km import km_estimate  # only --with-km loads the estimator and fractions

    curve = km_estimate(dataset)
    if curve.survival and isinstance(curve.survival[0], Fraction):  # the exact product, to 300 subjects
        steps = RowTable(("time", "survival", "survival_exact", "at_risk", "events"), curve.times,
                         list(map(float, curve.survival)),
                         [f"{s.numerator}/{s.denominator}" for s in curve.survival], curve.at_risk, curve.events)
    else:
        steps = RowTable(("time", "survival", "at_risk", "events"),
                         curve.times, curve.survival, curve.at_risk, curve.events)
    return {"steps": steps, "censor_marks": RowTable(None, curve.censor_marks)}


def _report(**fields) -> dict:
    """A report: the `tool` header, then the fields in the order given."""
    return {"tool": {"name": _PROG, "version": __version__}, **fields}


# Rows formatted into one string at a time: a chunk of KM steps is about 0.3 MB.
_CHUNK_ROWS = 2048
# The line boundaries of str.splitlines: a text-report string that holds one is written quoted.
_LINE_BREAK = re.compile("[\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")


class RowTable:
    """A JSON list kept as columns, which the report writer formats a chunk of rows at a time.

    With `keys`, row i is the object {keys[j]: columns[j][i]}; with keys None, it is
    columns[0][i]. Cells are ints, finite floats, or strings that JSON writes as they
    are (such as the "num/den" of an exact survival value). Iterating gives the rows.
    """

    def __init__(self, keys: tuple[str, ...] | None, *columns: Sequence):
        self.keys, self.columns = keys, columns

    @classmethod
    def of_tuples(cls, keys: tuple[str, ...], rows: Sequence[tuple]) -> RowTable:
        return cls(keys, *(list(zip(*rows)) or [()] * len(keys)))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self) -> Iterator:
        if self.keys is None:
            return iter(self.columns[0])
        return (dict(zip(self.keys, row)) for row in zip(*self.columns))


def _json_chunks(value, newline: str) -> Iterator[str]:
    """`value`, whose dicts have string keys, in pieces as json.dumps(indent=2) writes it at the depth
    whose line breaks are `newline`."""
    inner = newline + "  "
    if isinstance(value, RowTable) and len(value):
        yield "["
        yield from _format_rows(_row_template(value, inner), zip(*value.columns), ",")
        yield newline + "]"
    elif isinstance(value, dict) and value:
        opener = "{" + inner
        for key, item in value.items():
            yield opener + json.dumps(key) + ": "
            yield from _json_chunks(item, inner)
            opener = "," + inner
        yield newline + "}"
    elif isinstance(value, (list, tuple)) and value:
        opener = "[" + inner
        for item in value:
            yield opener
            yield from _json_chunks(item, inner)
            opener = "," + inner
        yield newline + "]"
    else:
        yield "[]" if isinstance(value, RowTable) else _scalar(value)


def _scalar(value) -> str:
    """A report scalar as json writes it: the one spelling of a leaf for the JSON and the text report."""
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)  # what json writes, without building an encoder per number
    return json.dumps(value)


def _row_template(table: RowTable, newline: str) -> str:
    """The %-template of one row of a non-empty table, at the depth whose line breaks are `newline`."""
    cells = ['"%s"' if isinstance(column[0], str) else "%r" for column in table.columns]
    if table.keys is None:
        return newline + cells[0]
    inner = newline + "  "
    fields = ("," + inner).join(json.dumps(key) + ": " + cell for key, cell in zip(table.keys, cells))
    return newline + "{" + inner + fields + newline + "}"


def _format_rows(template: str, rows: Iterable[tuple], separator: str = "") -> Iterator[str]:
    """`separator.join(template % row for row in rows)`, made one chunk of _CHUNK_ROWS rows at a time."""
    rows = iter(rows)
    lead = ""
    while chunk := separator.join(map(template.__mod__, islice(rows, _CHUNK_ROWS))):
        yield lead
        yield chunk
        lead = separator


def _text_chunks(value: dict | list | tuple | RowTable, prefix: str) -> Iterator[str]:
    """The text report in pieces: `<prefix><key path>: <scalar>` for each scalar under `value`, each
    RowTable formatted a chunk of rows at a time. A scalar is written as the JSON report writes it, but
    a string unquoted unless it holds a line break; a list or tuple numbers its items from 0. The layout
    is not a stable interface."""
    if isinstance(value, RowTable):
        if len(value):
            rows = range(len(value))  # each row number, once before each of the row's cells
            yield from _format_rows(_text_row_template(value, prefix),
                                    zip(*(part for column in value.columns for part in (rows, column))))
        return
    for key, sub in value.items() if isinstance(value, dict) else enumerate(value):
        if isinstance(sub, (dict, list, tuple, RowTable)):
            yield from _text_chunks(sub, f"{prefix}{key}.")
        else:
            plain = isinstance(sub, str) and not _LINE_BREAK.search(sub)
            yield f"{prefix}{key}: {sub if plain else _scalar(sub)}\n"


def _text_row_template(table: RowTable, prefix: str) -> str:
    """The %-template of the lines of one row of a non-empty table, which takes the row number before each cell."""
    prefix = prefix.replace("%", "%%")
    cells = ["%s" if isinstance(column[0], str) else "%r" for column in table.columns]
    if table.keys is None:
        return f"{prefix}%d: {cells[0]}\n"
    return "".join(f"{prefix}%d.{key.replace('%', '%%')}: {cell}\n" for key, cell in zip(table.keys, cells))


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


class _ArgumentParser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; remap to the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{_PROG}: input-error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser, require_t0: bool = True) -> None:
    defaults = AnalysisConfig(1.0)
    parser.add_argument("--prior-shape", type=float, default=defaults.prior.shape,
                        help="Gamma prior shape (default %(default)s)")
    parser.add_argument("--prior-rate", type=float, default=defaults.prior.rate,
                        help="Gamma prior rate (default %(default)s)")
    parser.add_argument("--t0", type=float, required=require_t0,
                        help="median survival threshold, in the dataset's time unit "
                        + ("(required)" if require_t0 else "(required with --replications)"))
    parser.add_argument("--p0", type=float, default=defaults.p0, help="confidence level (default %(default)s)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json", help="report format")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _time_unit(label: str) -> str:
    """The --time-unit label, if XML 1.0 allows each of its characters, so the SVG and UTF-8 output hold it,
    and none breaks a line, so a text report keeps one line per value."""
    # XML 1.0 excludes the C0 controls but tab, LF and CR, the surrogates, U+FFFE and U+FFFF. A loop tests
    # them, as a regex of the allowed ranges takes milliseconds to compile in every process that parses a CSV.
    for char in label:
        if char < " " and char not in "\t\n\r" or "\ud800" <= char <= "\udfff" or char in "\ufffe\uffff":
            raise argparse.ArgumentTypeError(f"character {char!r} is not allowed in XML 1.0 text")
    bad = _LINE_BREAK.search(label)
    if bad:
        raise argparse.ArgumentTypeError(f"character {bad.group()!r} would break a line of a text report")
    return label


def _add_csv_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("csv", help="input CSV with header time,status")
    parser.add_argument("--time-unit", type=_time_unit, default="months", help="time unit label (default months)")


def _add_report_args(parser: argparse.ArgumentParser) -> None:
    _add_csv_flags(parser)
    _add_config_flags(parser)
    parser.add_argument("--with-km", action="store_true", help="embed the Kaplan-Meier summary")
    _add_output_flags(parser)


def _add_km_args(parser: argparse.ArgumentParser) -> None:
    _add_csv_flags(parser)
    parser.add_argument("--out", help="write the SVG to this file instead of stdout")
    parser.add_argument("--points-out", help="also write the staircase points as JSON")


def _add_sensitivity_args(parser: argparse.ArgumentParser) -> None:
    from .fragility import SENSITIVITY_AXES

    _add_csv_flags(parser)
    _add_config_flags(parser)
    parser.add_argument("--grid", required=True, help="axes as 'name=v1,v2,...;name=...' with names among "
                        + ", ".join(SENSITIVITY_AXES))
    _add_output_flags(parser)


def _add_simulate_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="number of subjects")
    parser.add_argument("--rate", type=float, required=True, help="true event rate")
    parser.add_argument("--censor-time", type=float, help="administrative censoring cutoff")
    parser.add_argument("--censor-rate", type=float, help="independent exponential censoring rate")
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    parser.add_argument("--replications", type=int, default=0, help="if > 0, run this many replications "
                        "through the fragility search and emit a histogram (requires --t0)")
    _add_config_flags(parser, require_t0=False)
    _add_output_flags(parser)


def _analysis_config(args) -> AnalysisConfig:
    try:
        return AnalysisConfig(t0=args.t0, p0=args.p0, prior=GammaParams(args.prior_shape, args.prior_rate))
    except ValueError as exc:
        raise IngestError(str(exc)) from None


def _emit(chunks: Iterable[str], out: str | Path | None) -> None:
    """Write the chunks to the file `out`, opened once, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as file:
            file.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _render(report: dict, fmt: str) -> Iterable[str]:
    """The bytes of a report in pieces for _emit to write as they are made: for JSON, json.dumps(report,
    indent=2) and a newline, each RowTable written as the list of its rows; else the text report."""
    return chain(_json_chunks(report, "\n"), "\n") if fmt == "json" else _text_chunks(report, "")


def _cmd_report(args) -> int:
    """analyze, and fi, which adds the fragility search."""
    dataset, sha256 = ingest_csv(args.csv, args.time_unit)
    config = _analysis_config(args)
    prior = config.prior  # its posterior after any flips must stay in the kernel's domain
    if math.isinf(prior.rate + dataset.total_time):
        raise IngestError(f"--prior-rate {prior.rate!r} plus the total follow-up time overflows")
    if prior.shape + dataset.n >= MAX_SHAPE:
        raise IngestError(f"--prior-shape {prior.shape!r} plus {dataset.n} subjects reaches 2**53")
    if prior.shape + dataset.num_events < MIN_SHAPE:
        raise IngestError(f"--prior-shape {prior.shape!r} with no events is below 2**-1022")
    km = _km_json(dataset) if args.with_km else None
    posterior = posterior_update(prior, dataset)
    fragility = not_applicable = None
    if args.command == "analyze":
        initial_prob = posterior_prob_median_exceeds(posterior, config.t0)
    else:
        from .fragility import fragility_index  # only fi loads the search, and fractions with it

        try:
            result = fragility_index(dataset, config)
            initial_prob, fragility = result.initial_prob, _fragility_json(result)
        except NotFragileApplicableError as exc:
            initial_prob, fragility, not_applicable = exc.initial_prob, {"applicable": False}, exc
    report = _report(
        input={"path": str(args.csv), "sha256": sha256, "n": dataset.n, "events": dataset.num_events,
               "censored": dataset.num_censored, "total_time": dataset.total_time, "time_unit": dataset.time_unit},
        config=_config_json(config),
        posterior={"shape": posterior.shape, "rate": posterior.rate},
        initial_probability=initial_prob,
        fragility=fragility,
        km=km,
    )
    _emit(_render(report, args.format), args.out)
    if not_applicable is not None:
        raise not_applicable
    return EXIT_OK


# name: (help, function adding its arguments, module of fragsurv.commands whose `run` handles it, or None
# for _cmd_report here), in the order of the top-level help
_COMMANDS = {
    "analyze": ("posterior and exceedance probability, no fragility search", _add_report_args, None),
    "fi": ("full fragility-index report", _add_report_args, None),
    "km": ("Kaplan-Meier staircase as SVG", _add_km_args, "km"),
    "sensitivity": ("fragility index over a parameter grid", _add_sensitivity_args, "sensitivity"),
    "simulate": ("generate a synthetic trial, or a fragility histogram", _add_simulate_args, "simulate"),
    "reproduce-paper": ("re-run the three bundled case studies against published values",
                        _add_output_flags, "reproduce"),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, given a command name, of that one alone.

    The top-level usage names no command, so both print the same bytes for an argv starting with it.
    """
    parser = _ArgumentParser(
        prog=_PROG,
        description="Bayesian fragility index for single-arm time-to-event trials "
        "(exponential model, conjugate Gamma prior).",
    )
    parser.add_argument("--version", action="version", version=f"{_PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, add_arguments, _) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


# build_parser's parsers, one per command and one full, built once a process: parsing keeps no state in
# a parser, and the help formatter reads COLUMNS and the output stream when it prints.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Help, the version and top-level errors need the full parser; a command only its own.
    parser = _parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    module = _COMMANDS[args.command][2]
    if module is None:
        handler = _cmd_report
    else:
        from importlib import import_module

        handler = import_module(f"{__package__}.commands.{module}").run
    try:
        return handler(args)
    except (IngestError, OSError) as exc:
        sys.stderr.write(f"{_PROG}: input-error: {exc}\n")
        return EXIT_INPUT_ERROR
    except NotFragileApplicableError as exc:
        sys.stderr.write(f"{_PROG}: not-fragile-applicable: initial probability {exc.initial_prob!r} "
                         f"<= p0 {exc.p0!r}\n")
        return EXIT_NOT_APPLICABLE
    except (ConvergenceError, BracketError) as exc:
        sys.stderr.write(f"{_PROG}: numerical-error: {exc}\n")
        return EXIT_NUMERICAL_ERROR
    except ValueError as exc:
        sys.stderr.write(f"{_PROG}: internal-error: {exc}\n")
        return EXIT_NUMERICAL_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    # Run the package's module, not this copy: the command modules raise its IngestError.
    from fragsurv.cli import entrypoint

    entrypoint()
