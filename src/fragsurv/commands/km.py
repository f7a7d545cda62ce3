"""`fragsurv km`: the Kaplan-Meier staircase as an SVG document, and its points as JSON."""

from __future__ import annotations

from html import escape

from .. import cli
from ..km import km_estimate, km_to_plot_points

_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 20.0
_MARGIN_TOP = 20.0
_MARGIN_BOTTOM = 55.0


def run(args) -> int:
    dataset, _ = cli.ingest_csv(args.csv, args.time_unit)
    curve = km_estimate(dataset)
    points, ticks = km_to_plot_points(curve)
    svg = render_km_svg(points, ticks, dataset.time_unit)
    cli._emit([svg], args.out)
    if args.points_out:
        payload = {
            "points": cli.RowTable.of_tuples(("time", "survival"), points),
            "censor_ticks": cli.RowTable.of_tuples(("time", "survival"), ticks),
        }
        cli._emit(cli._render(payload, "json"), args.points_out)
    return cli.EXIT_OK


def render_km_svg(
    points: list[tuple[float, float]],
    censor_ticks: list[tuple[float, float]],
    time_unit: str,
) -> str:
    """SVG 1.1 document with the staircase polyline and censor tick marks.

    Data coordinates map linearly onto the plot area:
    x_px = left + (t / t_max) * plot_width, y_px = top + (1 - s) * plot_height.
    """
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
