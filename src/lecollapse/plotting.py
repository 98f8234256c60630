"""Deterministic SVG plots from the simulator's CSV payloads.

Four plot kinds cover the artifact's outputs: field profiles over
position, front trajectories over time, channel-probability walks over
time, and the solved density against a Monte Carlo histogram. The SVG is
assembled by hand from a CSV payload's header and rows with fixed layout
and fixed number formatting, so a given payload always yields the same
bytes; no drawing library, no fonts to rasterize, nothing to install.

Series are drawn as ``<path>`` elements; an empty payload still draws the
frame and ticks but no paths. In a p-trajectory, a channel's series stops
at its first exact 0 or 1 sample: after absorption the walk is over and
the flat tail would only hide when the channel died.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PlotSchemaError", "PLOT_KINDS", "emit_plot"]

PLOT_KINDS = (
    "field-profile",
    "front-trajectory",
    "p-trajectory",
    "histogram-vs-density",
)

_WIDTH, _HEIGHT = 640, 400
_X0, _Y0, _X1, _Y1 = 64.0, 16.0, 624.0, 356.0  # plot rectangle
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


class PlotSchemaError(ValueError):
    """The CSV payload does not carry the columns the plot kind needs."""


def _column(header, data, name, kind):
    if name not in header:
        raise PlotSchemaError(f"{kind} needs column {name!r}")
    return data[:, header.index(name)]


def _series_for(kind, header, data):
    """List of (label, xs, ys) in drawing order, plus the axis titles."""
    if kind == "field-profile":
        x = _column(header, data, "position", kind)
        names = [c for c in header if c != "position"]
        if not names:
            raise PlotSchemaError(
                "field-profile needs at least one field column "
                "besides 'position'"
            )
        series = [(n, x, _column(header, data, n, kind)) for n in names]
        return series, "position", ", ".join(names)
    if kind == "front-trajectory":
        t = _column(header, data, "time", kind)
        x = _column(header, data, "position", kind)
        return [("position", t, x)], "time", "position"
    if kind == "p-trajectory":
        t = _column(header, data, "time", kind)
        names = [c for c in header
                 if c.startswith("p_") and c[2:].isdigit()]
        if not names:
            raise PlotSchemaError(
                "p-trajectory needs channel columns p_1, p_2, ..."
            )
        series = []
        for n in names:
            v = _column(header, data, n, kind)
            # absorbed: the series ends at its first 0 or 1 after the start
            hit = np.flatnonzero((v[1:] == 0.0) | (v[1:] == 1.0))
            end = hit[0] + 2 if hit.size else v.size
            series.append((n, t[:end], v[:end]))
        return series, "time", ", ".join(names)
    if kind == "histogram-vs-density":
        if "p_2" in header:
            raise PlotSchemaError(
                "histogram-vs-density draws two channels only; "
                "a p_2 column needs the simplex, not this plot"
            )
        x = _column(header, data, "p_1", kind)
        series = [("density", x, _column(header, data, "density", kind))]
        if "histogram" in header:
            series.append(
                ("histogram", x, _column(header, data, "histogram", kind))
            )
        return series, "p_1", "probability density"
    raise ValueError(f"unknown plot kind {kind!r}: choose from {PLOT_KINDS}")


def _data_range(values: np.ndarray) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    if not finite.size:
        return 0.0, 1.0
    lo, hi = float(finite.min()), float(finite.max())
    if hi <= lo:  # a constant: widen by 0.5, or by one ulp where that is more
        pad = max(0.5, float(np.spacing(abs(lo))))
        return lo - pad, hi + pad
    return lo, hi


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.4g}"


def emit_plot(header, rows, kind: str) -> str:
    """Render a CSV payload as a self-contained SVG document.

    ``header`` names the columns and ``rows`` holds the numeric rows, one
    value per column, as passed to ``runner.format_csv``; ``kind`` selects
    the column schema. Pixel coordinates are worked out per series as
    arrays, then formatted point by point.
    Missing columns raise PlotSchemaError naming the column. The output is
    byte-deterministic for fixed input.
    """
    data = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    series, x_title, y_title = _series_for(kind, header, data)

    x_lo, x_hi = _data_range(np.concatenate([xs for _, xs, _ in series]))
    y_lo, y_hi = _data_range(np.concatenate([ys for _, _, ys in series]))

    def px(x: np.ndarray) -> np.ndarray:
        return _X0 + (x - x_lo) / (x_hi - x_lo) * (_X1 - _X0)

    def py(y: np.ndarray) -> np.ndarray:
        return _Y1 - (y - y_lo) / (y_hi - y_lo) * (_Y1 - _Y0)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<title>{kind}</title>",
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" '
        f'fill="#ffffff"/>',
        f'<rect x="{_fmt(_X0)}" y="{_fmt(_Y0)}" '
        f'width="{_fmt(_X1 - _X0)}" height="{_fmt(_Y1 - _Y0)}" '
        f'fill="none" stroke="#404040" stroke-width="1"/>',
    ]

    for i in range(5):
        frac = i / 4.0
        xv = x_lo + frac * (x_hi - x_lo)
        xp = _X0 + frac * (_X1 - _X0)
        out.append(
            f'<line x1="{_fmt(xp)}" y1="{_fmt(_Y1)}" x2="{_fmt(xp)}" '
            f'y2="{_fmt(_Y1 + 5)}" stroke="#404040" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(xp)}" y="{_fmt(_Y1 + 18)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle" '
            f'fill="#202020">{_tick_label(xv)}</text>'
        )
        yv = y_lo + frac * (y_hi - y_lo)
        yp = _Y1 - frac * (_Y1 - _Y0)
        out.append(
            f'<line x1="{_fmt(_X0 - 5)}" y1="{_fmt(yp)}" x2="{_fmt(_X0)}" '
            f'y2="{_fmt(yp)}" stroke="#404040" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(_X0 - 8)}" y="{_fmt(yp + 4)}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end" '
            f'fill="#202020">{_tick_label(yv)}</text>'
        )

    mid_x = 0.5 * (_X0 + _X1)
    out.append(
        f'<text x="{_fmt(mid_x)}" y="{_fmt(_HEIGHT - 10)}" font-size="12" '
        f'font-family="sans-serif" text-anchor="middle" '
        f'fill="#202020">{x_title}</text>'
    )
    mid_y = 0.5 * (_Y0 + _Y1)
    out.append(
        f'<text x="14" y="{_fmt(mid_y)}" font-size="12" '
        f'font-family="sans-serif" text-anchor="middle" fill="#202020" '
        f'transform="rotate(-90 14 {_fmt(mid_y)})">{y_title}</text>'
    )

    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        drawn = np.isfinite(xs) & np.isfinite(ys)  # a gap breaks the stroke
        # a point continues the stroke if the point before it was drawn
        pen_down = np.concatenate(([False], drawn))[:-1][drawn]
        path = " ".join(map("{}{:.2f},{:.2f}".format,
                            np.where(pen_down, "L", "M").tolist(),
                            px(xs[drawn]).tolist(), py(ys[drawn]).tolist()))
        if path:
            out.append(
                f'<path d="{path}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        if len(series) > 1:
            ly = _Y0 + 14 + 14 * i
            out.append(
                f'<text x="{_fmt(_X1 - 8)}" y="{_fmt(ly)}" font-size="11" '
                f'font-family="sans-serif" text-anchor="end" '
                f'fill="{color}">{label}</text>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
