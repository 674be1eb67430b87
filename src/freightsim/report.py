"""Result emission: deterministic CSV tables and SVG scatter charts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, repeat
from typing import IO

import numpy as np

from .evolution import ResultSet
from .modes import ModeId


def write_records_csv(results: ResultSet, sink: IO[str]) -> None:
    """Write the trip table as CSV, one fraction column per mode in registry
    order, rows in (year, replicate) order, LF line endings.  Floats are
    written with 17 significant digits, so they read back exactly; each
    year's rows go to ``sink`` in one write."""
    ids = results.registry.ids()
    header = ["scenario", "year", "replicate", "trip_cost_usd", "n_legs"]
    header += [f"frac_{m}" for m in ids]
    sink.write(",".join(header) + "\n")
    row = "%s,%d,%d,%.17g,%d" + ",%.17g" * len(ids) + "\n"
    name = results.config.name
    for t, (costs, legs, frac) in enumerate(zip(
            results.cost, results.n_legs, results.frac)):
        year = results.config.start_year + t
        sink.write("".join(map(row.__mod__, zip(
            repeat(name), repeat(year), count(), costs.tolist(),
            legs.tolist(), *frac.T.tolist()))))


# Color ramp anchors: purple at fraction 0, teal-green at 0.5, yellow at 1.
_RAMP = ((0.0, (0x44, 0x01, 0x54)),
         (0.5, (0x21, 0x91, 0x8C)),
         (1.0, (0xFD, 0xE7, 0x25)))


def ramp_color(fraction: float) -> str:
    """Hex fill color for a distance fraction, clamped to [0, 1]."""
    f = min(1.0, max(0.0, fraction))
    for (f0, c0), (f1, c1) in zip(_RAMP, _RAMP[1:]):
        if f <= f1:
            t = (f - f0) / (f1 - f0)
            rgb = tuple(round(a + t * (b - a)) for a, b in zip(c0, c1))
            return "#{:02X}{:02X}{:02X}".format(*rgb)
    return "#{:02X}{:02X}{:02X}".format(*_RAMP[-1][1])


_RAMP_F = np.array([f for f, _ in _RAMP])
_RAMP_RGB = np.array([c for _, c in _RAMP], dtype=float)


def _ramp_rgb(fractions: np.ndarray) -> np.ndarray:
    """``ramp_color`` over an array, as 0xRRGGBB ints: the same clamp (NaN
    to 0, as ``max(0.0, nan)`` gives), segment and arithmetic per element,
    and ``np.rint`` rounds half to even as ``round`` does."""
    f = np.fmin(np.fmax(fractions, 0.0), 1.0)
    seg = np.searchsorted(_RAMP_F[1:], f)  # the first f1 >= f
    f0, f1 = _RAMP_F[seg], _RAMP_F[seg + 1]
    c0, c1 = _RAMP_RGB[seg], _RAMP_RGB[seg + 1]
    t = ((f - f0) / (f1 - f0))[:, None]
    r, g, b = np.rint(c0 + t * (c1 - c0)).astype(np.int64).T
    return r << 16 | g << 8 | b


def cost_axis_value(cost_usd: float) -> float:
    """Vertical data coordinate of a trip cost: log10 of the cost in $M."""
    return math.log10(cost_usd / 1e6)


def cost_axis_values(costs_usd: np.ndarray) -> np.ndarray:
    """``cost_axis_value`` of every entry of a 2-D float array, bit for
    bit: numpy's division rounds as Python's does.  A row at a time, so no
    more than a row's Python floats are held at once."""
    return np.array([np.fromiter(map(math.log10, row.tolist()), float,
                                 row.size) for row in costs_usd / 1e6])


# Scatter chart layout, in SVG user units.
_WIDTH = 960
_HEIGHT = 600
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 30
_MARGIN_BOTTOM = 50
_POINT_RADIUS = 3.0


@dataclass(frozen=True)
class PlotSpec:
    """Scatter chart: points colored by one mode's distance fraction."""

    focus_mode: ModeId


def _year_tick_step(span: int) -> int:
    for step in (1, 2, 5, 10):
        if span / step <= 12:
            return step
    return 20


def render_scatter_svg(results: ResultSet, plot: PlotSpec, sink: IO[str]) -> None:
    """Render one circle per trip at (year, log10(cost in $M)), filled from
    the color ramp at the trip's focus-mode distance fraction.

    The output is deterministic for a given input.
    """
    if not results.cost.size:
        raise ValueError("cannot plot an empty result set")
    if plot.focus_mode not in results.registry:
        raise ValueError(f"focus mode {plot.focus_mode!r} not in scenario")

    y_vals = cost_axis_values(results.cost)
    y_lo = math.floor(y_vals.min())
    y_hi = math.ceil(y_vals.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1
    x_lo = results.config.start_year
    x_hi = results.config.end_year
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1, x_hi + 1

    px0, px1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
    py0, py1 = _HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP

    def sx(year: float) -> float:
        return px0 + (year - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(v):
        """Pixel row of a data value; a float or an array, elementwise the
        same arithmetic."""
        return py0 + (v - y_lo) / (y_hi - y_lo) * (py1 - py0)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">')
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')

    # Decade grid: one horizontal line per integer log10 value.
    for v in range(y_lo, y_hi + 1):
        y = sy(v)
        out.append(f'<line x1="{px0}" y1="{y:.2f}" x2="{px1}" y2="{y:.2f}" '
                   f'stroke="#DDDDDD" stroke-width="1"/>')
        out.append(f'<text x="{px0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="12">{v}</text>')

    step = _year_tick_step(x_hi - x_lo)
    year = x_lo
    while year <= x_hi:
        x = sx(year)
        out.append(f'<line x1="{x:.2f}" y1="{py0}" x2="{x:.2f}" y2="{py0 + 5}" '
                   f'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{py0 + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{year}</text>')
        year += step

    # Axes.
    out.append(f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" '
               f'stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" '
               f'stroke="black" stroke-width="1"/>')
    out.append(f'<text x="{(px0 + px1) / 2:.2f}" y="{_HEIGHT - 10}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="13">'
               f'Year</text>')
    out.append(f'<text x="16" y="{(py0 + py1) / 2:.2f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 16 {(py0 + py1) / 2:.2f})">'
               f'Trip cost (log10 $M)</text>')
    out.append(f'<text x="{(px0 + px1) / 2:.2f}" y="{_MARGIN_TOP - 10}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="13">'
               f'Distance fraction on {plot.focus_mode}</text>')
    sink.write("\n".join(out) + "\n")

    focus = results.frac[..., results.registry.ids().index(plot.focus_mode)]
    # One write per year: cy and the fill computed over the year's trips.
    for t, (ys, fracs) in enumerate(zip(y_vals, focus)):
        circle = (f'<circle cx="{sx(results.config.start_year + t):.2f}" '
                  f'cy="%.2f" r="{_POINT_RADIUS:g}" fill="#%06X" '
                  f'fill-opacity="0.6"/>\n')
        sink.write("".join(map(circle.__mod__, zip(
            sy(ys).tolist(), _ramp_rgb(fracs).tolist()))))
    sink.write("</svg>\n")
