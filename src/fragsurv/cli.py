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
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .fragility import (
    FragilityResult,
    NotFragileApplicableError,
    SENSITIVITY_AXES,
    calibrate,
    fragility_index,
    sensitivity_scan,
)
from .km import km_estimate, km_to_plot_points
from .sim import SimSpec, fi_distribution, simulate_trial
from .specfun import BracketError, ConvergenceError
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


def ingest_csv(path: str | Path, time_unit: str = "months") -> SurvivalDataset:
    """Read a `time,status` CSV (UTF-8, LF or CRLF) into a dataset.

    The header must be exactly `time,status` (case-insensitive). Every data
    row must carry a positive finite time and a status of 0 or 1; the first
    offending row is reported by number. The total time must not overflow.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8: {exc}") from None

    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise IngestError(f"{path}: file is empty")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["time", "status"]:
        raise IngestError(f"{path}: row 1: header must be 'time,status', got {','.join(rows[0])!r}")

    times, events = [], bytearray()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) != 2:
            raise IngestError(f"{path}: row {lineno}: expected 2 columns, got {len(row)}")
        time_text, status_text = row[0].strip(), row[1].strip()
        try:
            time = float(time_text)
        except ValueError:
            raise IngestError(f"{path}: row {lineno}: column 1: invalid time {time_text!r}") from None
        if not (math.isfinite(time) and time > 0):
            raise IngestError(f"{path}: row {lineno}: column 1: time must be positive and finite, got {time_text!r}")
        if status_text not in ("0", "1"):
            raise IngestError(f"{path}: row {lineno}: column 2: status must be 0 or 1, got {status_text!r}")
        times.append(time)
        events.append(status_text == "1")

    if not times:
        raise IngestError(f"{path}: no data rows")
    dataset = SurvivalDataset.from_columns(times, events, time_unit)
    if math.isinf(dataset.total_time):
        raise IngestError(f"{path}: total follow-up time overflows")
    return dataset


def write_csv(dataset: SurvivalDataset, path: str | Path) -> None:
    """Write a dataset back out in the same `time,status` format ingest_csv reads."""
    Path(path).write_text(_csv_text(dataset), encoding="utf-8")


def _csv_text(dataset: SurvivalDataset) -> str:
    return "time,status\n" + "".join(f"{t!r},{e}\n" for t, e in zip(dataset.times, dataset.events))


# ---------------------------------------------------------------------------
# Reports


def _digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
        "trajectory": [{"k": k, "probability": p} for k, p in result.trajectory],
    }


def _km_json(dataset: SurvivalDataset) -> dict:
    curve = km_estimate(dataset)
    return {
        "steps": [
            {
                "time": s.time,
                "survival": float(s.survival),
                **({"survival_exact": f"{s.survival.numerator}/{s.survival.denominator}"}
                   if isinstance(s.survival, Fraction) else {}),
                "at_risk": s.at_risk,
                "events": s.events,
            }
            for s in curve.steps
        ],
        "censor_marks": list(curve.censor_marks),
    }


def build_report(
    dataset: SurvivalDataset,
    config: AnalysisConfig,
    path: str | Path,
    posterior: GammaParams,
    initial_prob: float,
    fragility: dict | None,
    km: dict | None = None,
) -> dict:
    return {
        "tool": {"name": _PROG, "version": __version__},
        "input": {
            "path": str(path),
            "sha256": _digest(path),
            "n": dataset.n,
            "events": dataset.num_events,
            "censored": dataset.num_censored,
            "total_time": dataset.total_time,
            "time_unit": dataset.time_unit,
        },
        "config": _config_json(config),
        "posterior": {"shape": posterior.shape, "rate": posterior.rate},
        "initial_probability": initial_prob,
        "fragility": fragility,
        "km": km,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def render_text(report: dict) -> str:
    """Human-oriented flat rendering; numbers are repr-exact but layout is unstable."""
    lines: list[str] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            items = value.items()
        elif isinstance(value, list):
            items = enumerate(value)
        else:
            lines.append(f"{prefix.rstrip('.')}: {_text_scalar(value)}")
            return
        for key, sub in items:
            if isinstance(sub, (dict, list)):
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
    x1, y1 = px(t_max), py(1.0)
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


def reconstruct_case_dataset(case: CaseStudy, prior: GammaParams = _CASE_PRIOR) -> SurvivalDataset:
    """Dataset matching a case study's published summary statistics.

    Only the event count and the total follow-up time enter the posterior,
    so the individual times can be set uniformly: the posterior rate is
    back-solved from the published initial probability and split evenly.
    """
    posterior_rate = calibrate(prior.shape + case.events, case.reported_initial_prob, case.t0)
    per_subject = (posterior_rate - prior.rate) / case.n
    return SurvivalDataset.from_columns([per_subject] * case.n, [1] * case.events + [0] * case.censored)


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
    bundle = {
        "tool": {"name": _PROG, "version": __version__},
        "cases": cases,
        "all_match": not mismatches,
    }
    return bundle, mismatches


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


def _add_csv_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("csv", help="input CSV with header time,status")
    parser.add_argument("--time-unit", default="months", help="time unit label (default months)")


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
    """The config of the flags; given a dataset, its posterior rate must not overflow either."""
    try:
        config = AnalysisConfig(t0=args.t0, p0=args.p0, prior=GammaParams(args.prior_shape, args.prior_rate))
    except ValueError as exc:
        raise IngestError(str(exc)) from None
    if dataset is not None and math.isinf(config.prior.rate + dataset.total_time):
        raise IngestError(f"--prior-rate {config.prior.rate!r} plus the total follow-up time overflows")
    return config


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render(report: dict, fmt: str) -> str:
    return render_json(report) if fmt == "json" else render_text(report)


def _cmd_analyze(args) -> int:
    dataset = ingest_csv(args.csv, args.time_unit)
    config = _analysis_config(args, dataset)
    km = _km_json(dataset) if args.with_km else None
    posterior = posterior_update(config.prior, dataset)
    initial_prob = posterior_prob_median_exceeds(posterior, config.t0)
    report = build_report(dataset, config, args.csv, posterior, initial_prob, fragility=None, km=km)
    _emit(_render(report, args.format), args.out)
    return EXIT_OK


def _cmd_fi(args) -> int:
    dataset = ingest_csv(args.csv, args.time_unit)
    config = _analysis_config(args, dataset)
    km = _km_json(dataset) if args.with_km else None
    not_applicable = None
    try:
        result = fragility_index(dataset, config)
        initial_prob, fragility = result.initial_prob, _fragility_json(result)
    except NotFragileApplicableError as exc:
        initial_prob, fragility, not_applicable = exc.initial_prob, {"applicable": False}, exc
    posterior = posterior_update(config.prior, dataset)
    report = build_report(dataset, config, args.csv, posterior, initial_prob, fragility=fragility, km=km)
    _emit(_render(report, args.format), args.out)
    if not_applicable is None:
        return EXIT_OK
    sys.stderr.write(
        f"{_PROG}: not-fragile-applicable: initial probability {not_applicable.initial_prob!r} "
        f"<= p0 {not_applicable.p0!r}\n"
    )
    return EXIT_NOT_APPLICABLE


def _cmd_km(args) -> int:
    dataset = ingest_csv(args.csv, args.time_unit)
    curve = km_estimate(dataset)
    points, ticks = km_to_plot_points(curve)
    svg = render_km_svg(points, ticks, dataset.time_unit)
    _emit(svg, args.out)
    if args.points_out:
        payload = {
            "points": [{"time": x, "survival": y} for x, y in points],
            "censor_ticks": [{"time": x, "survival": y} for x, y in ticks],
        }
        Path(args.points_out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


def _parse_grid(spec: str) -> dict[str, list[float]]:
    """'name=v1,v2,...;name=...' as a dict; sensitivity_scan checks the names and values."""
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
            axes[name] = [float(v) for v in values_text.split(",") if v.strip()]
        except ValueError:
            raise IngestError(f"--grid: invalid number in {chunk!r}") from None
    return axes


def _cmd_sensitivity(args) -> int:
    dataset = ingest_csv(args.csv, args.time_unit)
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
            entry["fq"] = _fraction_json(None if cell.fi is None else Fraction(cell.fi, dataset.n))
        cells.append(entry)
    report = {
        "tool": {"name": _PROG, "version": __version__},
        "input": {"path": str(args.csv), "sha256": _digest(args.csv)},
        "base_config": _config_json(base),
        "axes": {name: list(values) for name, values in grid.axes.items()},
        "cells": cells,
    }
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
        report = {
            "tool": {"name": _PROG, "version": __version__},
            "spec": asdict(spec),
            "config": _config_json(config),
            "replications": args.replications,
            "counts": ordered,
        }
        _emit(_render(report, args.format), args.out)
        return EXIT_OK

    dataset = simulate_trial(spec)
    if args.out:
        write_csv(dataset, args.out)
    else:
        sys.stdout.write(_csv_text(dataset))
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    bundle, mismatches = run_reproduce_paper()
    _emit(_render(bundle, args.format), args.out)
    for mismatch in mismatches:
        sys.stderr.write(f"{_PROG}: reproduction-mismatch: {mismatch}\n")
    return EXIT_NUMERICAL_ERROR if mismatches else EXIT_OK


# name: (help, function adding its arguments, handler), in the order of the top-level help
_COMMANDS = {
    "analyze": ("posterior and exceedance probability, no fragility search", _add_report_args, _cmd_analyze),
    "fi": ("full fragility-index report", _add_report_args, _cmd_fi),
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
