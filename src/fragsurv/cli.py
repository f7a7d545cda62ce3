"""Command-line front end: CSV in, JSON/text reports and SVG curves out.

Subcommands: analyze, fi, km, sensitivity, simulate, reproduce-paper.
Exit codes: 0 success (including a not-attained index), 2 fragility index
not applicable, 3 input error, 4 numerical or internal failure, or
reproduction mismatch.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path

from . import __version__
from .fragility import (
    FragilityResult,
    NotFragileApplicableError,
    SENSITIVITY_AXES,
    calibrate,
    fragility_index,
    fragility_quotient,
    sensitivity_scan,
)
from .km import km_estimate, km_to_plot_points
from .sim import SimSpec, fi_distribution, simulate_trial
from .specfun import MAX_SHAPE, MIN_SHAPE, BracketError, ConvergenceError
from .survival import (
    AnalysisConfig,
    GammaParams,
    SurvivalDataset,
    posterior_prob_median_exceeds,
    posterior_update,
)

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
    return dataset, hashlib.sha256(data).hexdigest()


def _bulk_columns(text: str, time_unit: str) -> SurvivalDataset | None:
    """The dataset of a CSV whose every data line is `<time>,0` or `<time>,1`, cut with string
    operations; None for any other text or any rejected dataset, which _parse_rows then reports."""
    header, _, body = text.replace("\r\n", "\n").partition("\n")
    # float() also reads digits of other scripts and `_` between digits; _parse_rows rejects those times
    if header.lower() != "time,status" or "\r" in body or not body.isascii() or "_" in body:
        return None
    if not body.endswith("\n"):
        body += "\n"
    # One comma per line, and each line ends in ",0" or ",1": every line is one time cell and a status.
    lines = body.count("\n")
    if not (body.count(",") == lines == body.count(",0\n") + body.count(",1\n")):
        return None
    cells = body[:-1].replace(",", "\n").split("\n")  # time, status, time, status, ...
    try:
        times = list(map(float, cells[::2]))
        events = "".join(cells[1::2]).encode().translate(bytes.maketrans(b"01", b"\x00\x01"))
        return SurvivalDataset(times, events, time_unit)
    except ValueError:
        return None


def _parse_rows(path: Path, text: str, time_unit: str) -> SurvivalDataset:
    """The dataset of any CSV text, one csv.reader row at a time, or the IngestError naming the first bad row."""
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


def write_csv(dataset: SurvivalDataset, path: str | Path) -> None:
    """Write a dataset back out in the same `time,status` format ingest_csv reads."""
    _emit(_csv_chunks(dataset), path)


def _csv_chunks(dataset: SurvivalDataset) -> Iterator[str]:
    yield "time,status\n"
    yield from _format_rows("%r,%d\n", zip(dataset.times, dataset.events))


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


def build_report(
    dataset: SurvivalDataset,
    config: AnalysisConfig,
    path: str | Path,
    sha256: str,
    posterior: GammaParams,
    initial_prob: float,
    fragility: dict | None,
    km: dict | None = None,
) -> dict:
    return _report(
        input={
            "path": str(path),
            "sha256": sha256,
            "n": dataset.n,
            "events": dataset.num_events,
            "censored": dataset.num_censored,
            "total_time": dataset.total_time,
            "time_unit": dataset.time_unit,
        },
        config=_config_json(config),
        posterior={"shape": posterior.shape, "rate": posterior.rate},
        initial_probability=initial_prob,
        fragility=fragility,
        km=km,
    )


# Rows formatted into one string at a time: a chunk of KM steps is about 0.3 MB.
_CHUNK_ROWS = 2048


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


def render_json(report: dict) -> str:
    """`json.dumps(report, indent=2)` and a newline, each RowTable written as the list of its rows."""
    return "".join(_json_report(report))


def _json_report(report: dict) -> Iterator[str]:
    """render_json's text in pieces, for _emit to write as they are made."""
    yield from _json_chunks(report, "\n")
    yield "\n"


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
    elif type(value) is int or type(value) is float and math.isfinite(value):
        yield repr(value)  # what json writes, without building an encoder per number
    else:
        yield "[]" if isinstance(value, RowTable) else json.dumps(value)


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


def render_text(report: dict) -> str:
    """Human-oriented flat rendering; numbers are repr-exact but layout is unstable."""
    lines: list[str] = []

    def walk(prefix: str, value: dict | list | RowTable) -> None:
        for key, sub in value.items() if isinstance(value, dict) else enumerate(value):
            if isinstance(sub, (dict, list, RowTable)):
                walk(f"{prefix}{key}.", sub)
            else:
                lines.append(f"{prefix}{key}: {_text_scalar(sub)}")

    walk("", report)
    return "\n".join(lines) + "\n"


def _text_scalar(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ---------------------------------------------------------------------------
# SVG staircase rendering

_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 20.0
_MARGIN_BOTTOM = 55.0


def render_km_svg(
    points: list[tuple[float, float]],
    censor_ticks: list[tuple[float, float]],
    time_unit: str,
) -> str:
    """SVG 1.1 document with the staircase polyline and censor tick marks.

    Data coordinates map linearly onto the plot area:
    x_px = left + (t / t_max) * plot_width, y_px = top + (1 - s) * plot_height.
    """
    from html import escape  # imported here: it loads html.entities, which only km needs

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    t_max = max(x for x, _ in points)

    def px(t: float) -> float:
        return _MARGIN_LEFT + (t / t_max) * plot_w

    def py(s: float) -> float:
        return _MARGIN_TOP + (1.0 - s) * plot_h

    e: list[str] = []
    e.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">'
    )
    x0, y0 = px(0.0), py(0.0)
    y1 = py(1.0)
    e.append(f'<line x1="{x0:.3f}" y1="{y0:.3f}" x2="{px(t_max):.3f}" y2="{y0:.3f}" stroke="black"/>')
    e.append(f'<line x1="{x0:.3f}" y1="{y0:.3f}" x2="{x0:.3f}" y2="{y1:.3f}" stroke="black"/>')

    for i in range(5):
        t = t_max * i / 4.0
        x = px(t)
        e.append(f'<line x1="{x:.3f}" y1="{y0:.3f}" x2="{x:.3f}" y2="{y0 + 5:.3f}" stroke="black"/>')
        e.append(
            f'<text x="{x:.3f}" y="{y0 + 18:.3f}" font-size="11" text-anchor="middle">{t:.6g}</text>'
        )
        s = i / 4.0
        y = py(s)
        e.append(f'<line x1="{x0 - 5:.3f}" y1="{y:.3f}" x2="{x0:.3f}" y2="{y:.3f}" stroke="black"/>')
        e.append(
            f'<text x="{x0 - 8:.3f}" y="{y + 4:.3f}" font-size="11" text-anchor="end">{s:.2f}</text>'
        )

    e.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.3f}" y="{_SVG_HEIGHT - 12:.3f}" '
        f'font-size="13" text-anchor="middle">Time ({escape(time_unit, quote=False)})</text>'
    )
    e.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.3f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.3f})">Survival probability</text>'
    )

    path = " ".join(f"{px(x):.3f},{py(y):.3f}" for x, y in points)
    e.append(f'<polyline class="km-curve" fill="none" stroke="#1f5fa8" stroke-width="1.5" points="{path}"/>')
    for t, s in censor_ticks:
        x, y = px(t), py(s)
        e.append(
            f'<line class="censor-tick" x1="{x:.3f}" y1="{y - 4:.3f}" x2="{x:.3f}" y2="{y + 4:.3f}" '
            f'stroke="#1f5fa8" stroke-width="1.5"/>'
        )
    e.append("</svg>")
    return "\n".join(e) + "\n"


# ---------------------------------------------------------------------------
# Bundled case studies (reproduce-paper)


@dataclass(frozen=True)
class CaseStudy:
    key: str
    label: str
    n: int
    events: int
    t0: float
    reported_initial_prob: float
    published_fi: int

    @property
    def censored(self) -> int:
        return self.n - self.events


CASE_STUDIES = (
    CaseStudy("lung-cancer", "Advanced lung cancer, overall survival", 30, 22, 7.0, 0.935, 5),
    CaseStudy("pembrolizumab-hcc", "Pembrolizumab in hepatocellular carcinoma, progression-free survival",
              28, 20, 3.5, 0.958, 6),
    CaseStudy("palbociclib-breast", "Palbociclib in metastatic breast cancer, progression-free survival",
              51, 31, 15.0, 0.948, 6),
)

_CASE_PRIOR = GammaParams(0.5, 0.5)
_CASE_P0 = 0.7
_CASE_PROB_TOL = 1e-6


def reconstruct_case_dataset(case: CaseStudy) -> SurvivalDataset:
    """Dataset matching a case study's published summary statistics.

    Only the event count and the total follow-up time enter the posterior,
    so the individual times can be set uniformly: the posterior rate is
    back-solved from the published initial probability and split evenly.
    """
    posterior_rate = calibrate(_CASE_PRIOR.shape + case.events, case.reported_initial_prob, case.t0)
    per_subject = (posterior_rate - _CASE_PRIOR.rate) / case.n
    return SurvivalDataset([per_subject] * case.n, [1] * case.events + [0] * case.censored)


def run_reproduce_paper() -> tuple[dict, list[str]]:
    """Re-run the three bundled case studies against their published values.

    Returns the report bundle plus a list of mismatch descriptions (empty
    when every computed value agrees with the published one).
    """
    mismatches: list[str] = []
    cases = []
    for case in CASE_STUDIES:
        dataset = reconstruct_case_dataset(case)
        config = AnalysisConfig(t0=case.t0, p0=_CASE_P0, prior=_CASE_PRIOR)
        result = fragility_index(dataset, config)
        fragility = _fragility_json(result)
        prob_ok = abs(result.initial_prob - case.reported_initial_prob) <= _CASE_PROB_TOL
        fi_ok = result.fi == case.published_fi
        if not prob_ok:
            mismatches.append(
                f"{case.key}: calibrated initial probability {result.initial_prob!r} "
                f"differs from published {case.reported_initial_prob!r}"
            )
        if not fi_ok:
            mismatches.append(
                f"{case.key}: computed FI {result.fi_text}, published {case.published_fi}"
            )
        cases.append(
            {
                "case": case.key,
                "label": case.label,
                "n": case.n,
                "events": case.events,
                "censored": case.censored,
                "t0": case.t0,
                "p0": _CASE_P0,
                "prior_shape": _CASE_PRIOR.shape,
                "prior_rate": _CASE_PRIOR.rate,
                "reported_initial_probability": case.reported_initial_prob,
                "computed_initial_probability": result.initial_prob,
                "initial_probability_matches": prob_ok,
                "published_fi": case.published_fi,
                "computed_fi": result.fi,
                "fi_matches_published": fi_ok,
                "fq": fragility["fq"],
                "trajectory": fragility["trajectory"],
            }
        )
    return _report(cases=cases, all_match=not mismatches), mismatches


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


class _ArgumentParser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; remap to the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{_PROG}: input-error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser, require_t0: bool = True) -> None:
    parser.add_argument("--prior-shape", type=float, default=0.5, help="Gamma prior shape (default 0.5)")
    parser.add_argument("--prior-rate", type=float, default=0.5, help="Gamma prior rate (default 0.5)")
    parser.add_argument("--t0", type=float, required=require_t0,
                        help="median survival threshold, in the dataset's time unit (required)")
    parser.add_argument("--p0", type=float, default=0.7, help="confidence level (default 0.7)")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json", help="report format")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _time_unit(label: str) -> str:
    """The --time-unit label, if XML 1.0 allows each of its characters, so the SVG and UTF-8 output hold it."""
    bad = re.search("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]", label)
    if bad:
        raise argparse.ArgumentTypeError(f"character {bad.group()!r} is not allowed in XML 1.0 text")
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


def _analysis_config(args, dataset: SurvivalDataset | None = None) -> AnalysisConfig:
    """The config of the flags; given a dataset, its posterior after any flips must stay in the kernel's domain."""
    try:
        config = AnalysisConfig(t0=args.t0, p0=args.p0, prior=GammaParams(args.prior_shape, args.prior_rate))
    except ValueError as exc:
        raise IngestError(str(exc)) from None
    if dataset is not None and math.isinf(config.prior.rate + dataset.total_time):
        raise IngestError(f"--prior-rate {config.prior.rate!r} plus the total follow-up time overflows")
    if dataset is not None and config.prior.shape + dataset.n >= MAX_SHAPE:
        raise IngestError(f"--prior-shape {config.prior.shape!r} plus {dataset.n} subjects reaches 2**53")
    if dataset is not None and config.prior.shape + dataset.num_events < MIN_SHAPE:
        raise IngestError(f"--prior-shape {config.prior.shape!r} with no events is below 2**-1022")
    return config


def _emit(chunks: Iterable[str], out: str | Path | None) -> None:
    """Write the chunks to the file `out`, opened once, or to stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as file:
            file.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _render(report: dict, fmt: str) -> Iterable[str]:
    return _json_report(report) if fmt == "json" else [render_text(report)]


def _cmd_report(args) -> int:
    """analyze, and fi, which adds the fragility search."""
    dataset, sha256 = ingest_csv(args.csv, args.time_unit)
    config = _analysis_config(args, dataset)
    km = _km_json(dataset) if args.with_km else None
    posterior = posterior_update(config.prior, dataset)
    fragility = not_applicable = None
    if args.command == "analyze":
        initial_prob = posterior_prob_median_exceeds(posterior, config.t0)
    else:
        try:
            result = fragility_index(dataset, config)
            initial_prob, fragility = result.initial_prob, _fragility_json(result)
        except NotFragileApplicableError as exc:
            initial_prob, fragility, not_applicable = exc.initial_prob, {"applicable": False}, exc
    report = build_report(dataset, config, args.csv, sha256, posterior, initial_prob, fragility, km)
    _emit(_render(report, args.format), args.out)
    if not_applicable is None:
        return EXIT_OK
    sys.stderr.write(
        f"{_PROG}: not-fragile-applicable: initial probability {not_applicable.initial_prob!r} "
        f"<= p0 {not_applicable.p0!r}\n"
    )
    return EXIT_NOT_APPLICABLE


def _cmd_km(args) -> int:
    dataset, _ = ingest_csv(args.csv, args.time_unit)
    curve = km_estimate(dataset)
    points, ticks = km_to_plot_points(curve)
    svg = render_km_svg(points, ticks, dataset.time_unit)
    _emit([svg], args.out)
    if args.points_out:
        payload = {
            "points": RowTable.of_tuples(("time", "survival"), points),
            "censor_ticks": RowTable.of_tuples(("time", "survival"), ticks),
        }
        _emit(_json_report(payload), args.points_out)
    return EXIT_OK


def _parse_grid(spec: str) -> dict[str, list[float]]:
    """'name=v1,v2,...;name=...' as a dict of finite values; sensitivity_scan checks the names and ranges."""
    axes: dict[str, list[float]] = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise IngestError(f"--grid: expected name=v1,v2,... in {chunk!r}")
        name, _, values_text = chunk.partition("=")
        name = name.strip()
        if name in axes:
            raise IngestError(f"--grid: axis {name!r} given twice")
        try:
            values = [float(v) for v in values_text.split(",") if v.strip()]
        except ValueError:
            raise IngestError(f"--grid: invalid number in {chunk!r}") from None
        if not all(map(math.isfinite, values)):
            raise IngestError(f"--grid: non-finite number in {chunk!r}")
        axes[name] = values
    return axes


def _cmd_sensitivity(args) -> int:
    dataset, sha256 = ingest_csv(args.csv, args.time_unit)
    base = _analysis_config(args)
    axes = _parse_grid(args.grid)
    try:
        grid = sensitivity_scan(dataset, base, axes)
    except ValueError as exc:
        raise IngestError(f"--grid: {exc}") from None
    cells = []
    for cell in grid.cells:
        entry: dict = {"params": cell.params, "status": cell.status}
        if cell.status == "error":
            entry["error"] = cell.error
        else:
            entry["initial_probability"] = cell.initial_prob
        if cell.status == "ok":
            entry["fi"] = cell.fi
            entry["fi_text"] = str(cell.fi) if cell.fi is not None else f"> {dataset.num_censored}"
            entry["fq"] = _fraction_json(None if cell.fi is None else fragility_quotient(cell.fi, dataset.n))
        cells.append(entry)
    report = _report(
        input={"path": str(args.csv), "sha256": sha256},
        base_config=_config_json(base),
        axes={name: list(values) for name, values in grid.axes.items()},
        cells=cells,
    )
    _emit(_render(report, args.format), args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    try:
        spec = SimSpec(
            n=args.n,
            event_rate=args.rate,
            censor_time=args.censor_time,
            censor_rate=args.censor_rate,
            seed=args.seed,
        )
    except ValueError as exc:
        raise IngestError(str(exc)) from None
    if args.replications < 0:
        raise IngestError(f"--replications must be >= 0, got {args.replications}")
    if args.replications > 0:
        if args.t0 is None:
            raise IngestError("--replications requires --t0")
        config = _analysis_config(args)
        counts = fi_distribution(spec, config, args.replications)
        ordered = {str(k): counts[k] for k in sorted(k for k in counts if isinstance(k, int))}
        ordered.update((m, counts[m]) for m in ("not_attained", "not_applicable", "error") if m in counts)
        report = _report(
            spec=asdict(spec), config=_config_json(config), replications=args.replications, counts=ordered
        )
        _emit(_render(report, args.format), args.out)
        return EXIT_OK

    dataset = simulate_trial(spec)
    if args.out:
        write_csv(dataset, args.out)
    else:
        _emit(_csv_chunks(dataset), None)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    bundle, mismatches = run_reproduce_paper()
    _emit(_render(bundle, args.format), args.out)
    for mismatch in mismatches:
        sys.stderr.write(f"{_PROG}: reproduction-mismatch: {mismatch}\n")
    return EXIT_NUMERICAL_ERROR if mismatches else EXIT_OK


# name: (help, function adding its arguments, handler), in the order of the top-level help
_COMMANDS = {
    "analyze": ("posterior and exceedance probability, no fragility search", _add_report_args, _cmd_report),
    "fi": ("full fragility-index report", _add_report_args, _cmd_report),
    "km": ("Kaplan-Meier staircase as SVG", _add_km_args, _cmd_km),
    "sensitivity": ("fragility index over a parameter grid", _add_sensitivity_args, _cmd_sensitivity),
    "simulate": ("generate a synthetic trial, or a fragility histogram", _add_simulate_args, _cmd_simulate),
    "reproduce-paper": ("re-run the three bundled case studies against published values",
                        _add_output_flags, _cmd_reproduce),
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


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Help, the version and top-level errors need the full parser; a command only its own.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _, _, handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except (IngestError, OSError) as exc:
        sys.stderr.write(f"{_PROG}: input-error: {exc}\n")
        return EXIT_INPUT_ERROR
    except NotFragileApplicableError as exc:
        sys.stderr.write(f"{_PROG}: not-fragile-applicable: {exc}\n")
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
    entrypoint()
