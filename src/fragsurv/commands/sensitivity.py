"""`fragsurv sensitivity`: the fragility index over a grid of analysis settings."""

from __future__ import annotations

import math

from .. import cli
from ..fragility import fragility_quotient, reported_fi, sensitivity_scan


def run(args) -> int:
    dataset, sha256 = cli.ingest_csv(args.csv, args.time_unit)
    base = cli._analysis_config(args)
    axes = _parse_grid(args.grid)
    try:
        grid = sensitivity_scan(dataset, base, axes)
    except ValueError as exc:
        raise cli.IngestError(f"--grid: {exc}") from None
    cells = []
    for cell in grid.cells:
        entry: dict = {"params": cell.params, "status": cell.status}
        if cell.status == "error":
            entry["error"] = cell.error
        else:
            entry["initial_probability"] = cell.initial_prob
        if cell.status == "ok":
            entry["fi"] = cell.fi
            entry["fi_text"] = reported_fi(cell.fi, dataset.num_censored)
            entry["fq"] = cli._fraction_json(None if cell.fi is None else fragility_quotient(cell.fi, dataset.n))
        cells.append(entry)
    report = cli._report(
        input={"path": str(args.csv), "sha256": sha256},
        base_config=cli._config_json(base),
        axes=grid.axes,
        cells=cells,
    )
    cli._emit(cli._render(report, args.format), args.out)
    return cli.EXIT_OK


def _parse_grid(spec: str) -> dict[str, list[float]]:
    """'name=v1,v2,...;name=...' as a dict of finite values; sensitivity_scan checks the names and ranges."""
    axes: dict[str, list[float]] = {}
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise cli.IngestError(f"--grid: expected name=v1,v2,... in {chunk!r}")
        name, _, values_text = chunk.partition("=")
        name = name.strip()
        if name in axes:
            raise cli.IngestError(f"--grid: axis {name!r} given twice")
        try:
            values = [float(v) for v in values_text.split(",") if v.strip()]
        except ValueError:
            raise cli.IngestError(f"--grid: invalid number in {chunk!r}") from None
        if not all(map(math.isfinite, values)):
            raise cli.IngestError(f"--grid: non-finite number in {chunk!r}")
        axes[name] = values
    return axes
