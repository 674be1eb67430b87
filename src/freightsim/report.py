"""Result emission: deterministic CSV tables and SVG scatter charts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .evolution import ResultSet
from .modes import ModeId
from .numtext import (ALL, HEX2, PAD, SLOT_WORDS, WORD, format_f2, format_g17,
                      four_digits)


def _padded(text: bytes, width: int = 0) -> bytes:
    """``text`` padded with ``PAD`` to at least ``width`` bytes and to a
    whole number of words: constant text of the uint8 row matrices whose
    PAD bytes are dropped on writing."""
    return text.ljust(-(-max(len(text), width) // 8) * 8, bytes([PAD]))


# The CSV writer's rows per block; a slot holding "0"; and the bound on the
# bits of the doubles in [0, 10**4), written by four_digits when integral.
_BLOCK_ROWS = 128
_ZERO_SLOT = np.array([ord("0") | ALL << 8 & ALL, ALL, ALL, ALL],
                      dtype=np.uint64)
_SMALL = np.array(1e4).view(np.uint64)
# A number kernel call costs about the same whatever its size, so the
# writers call the kernels once per run of whole years, not once a year: a
# CSV run holds at most _CSV_RUN kernel values (and rows), an SVG run at
# most _SVG_RUN trips.  A year larger than the bound is a run of its own.
# A CSV run holds its years' masks and integers until the kernel has run, so
# its bound is the smaller.
_CSV_RUN = 6144
_SVG_RUN = 8192


def _compact(rows: np.ndarray) -> str:
    """The text of a block of row bytes, its ``PAD`` bytes dropped."""
    return str(rows.tobytes().translate(None, bytes([PAD])), "utf-8")


def _csv_years(results: ResultSet, heads: list[bytes]):
    """Per year, its size in a run (its kernel values, and at least its
    rows, so a run's masks are bounded too) and what its rows need: the
    head, the masks of its non-zero integers below 10**4 and of the values
    the float kernel writes, and those integers and values, in slot order
    (cost, n_legs, then the fractions)."""
    values = np.empty(results.cost.shape[1:] + (results.frac.shape[-1] + 2,))
    for head, costs, legs, frac in zip(
            heads, results.cost, results.n_legs, results.frac):
        values[:, 0] = costs
        values[:, 1] = legs
        values[:, 2:] = frac
        bits = values.view(np.uint64)
        small = bits < _SMALL  # neither -0.0 nor nan
        small &= values == np.trunc(values)
        kernel = ~small
        small &= bits != 0
        floats = values[kernel]
        yield (max(floats.size, len(values)),
               (head, small, kernel, values[small].astype(np.uint64), floats))


def _runs(sized, bound: int):
    """Lists of consecutive items of ``sized``, a sequence of (size, item)
    pairs, whose sizes add up to at most ``bound``; an item larger than
    ``bound`` is a list of its own."""
    run, total = [], 0
    for size, item in sized:
        if run and total + size > bound:
            yield run
            run, total = [], 0
        run.append(item)
        total += size
    if run:
        yield run


def write_records_csv(results: ResultSet, sink: IO[str]) -> None:
    """Write the trip table as CSV, one fraction column per mode in registry
    order, rows in (year, replicate) order, LF line endings.  Numbers are
    written as ``"%.17g"`` writes them, so they read back exactly; rows go
    to ``sink`` in writes of at most ``_BLOCK_ROWS``, none across years."""
    ids = results.registry.ids()
    header = ["scenario", "year", "replicate", "trip_cost_usd", "n_legs"]
    header += [f"frac_{m}" for m in ids]
    sink.write(",".join(header) + "\n")
    years, trips = results.cost.shape
    if not trips:
        return
    # A row is "name,year," then a slot and its separator for each of the
    # replicate, cost, n_legs and fractions.  Zeros are written directly and
    # other integers below 10**4 by four_digits; the float kernel runs once
    # per run of years on the rest (replicate numbers and leg counts are
    # below 2**53, so exact as doubles, and the kernel writes an integral
    # double below 1e17 as "%d" does).  Rows are put together and compacted
    # in blocks of at most _BLOCK_ROWS, so the buffers stay small.
    first = results.config.start_year
    heads = [f"{results.config.name},{year},".encode()
             for year in range(first, first + years)]
    width = len(_padded(max(heads, key=len)))
    replicates = format_g17(np.arange(trips, dtype=float))
    block = min(trips, _BLOCK_ROWS)
    rows = np.empty((block, width + (len(ids) + 3) * 8 * SLOT_WORDS),
                    np.uint8)
    slots = rows.view(WORD)[:, width // 8:].reshape(block, -1, SLOT_WORDS)
    separators = rows[:, width + 8 * SLOT_WORDS - 2::8 * SLOT_WORDS]
    for run in _runs(_csv_years(results, heads), _CSV_RUN):
        texts = format_g17(np.concatenate([floats for *_, floats in run]))
        ints = (four_digits(np.concatenate([small_ints
                                            for *_, small_ints, _ in run]))
                | 0xFFFFFFFF << 32)  # padding after the four digits
        done_ints = done_texts = 0
        for head, small, kernel, _, _ in run:
            rows[:, :width] = np.frombuffer(_padded(head, width), np.uint8)
            for start in range(0, trips, block):
                stop = min(start + block, trips)
                fields = slots[:stop - start, 1:]
                fields[...] = _ZERO_SLOT
                part = small[start:stop]
                count = np.count_nonzero(part)
                fields[part, 0] = ints[done_ints:done_ints + count]
                done_ints += count
                part = kernel[start:stop]
                count = np.count_nonzero(part)
                fields[part] = texts[done_texts:done_texts + count]
                done_texts += count
                slots[:stop - start, 0] = replicates[start:stop]
                separators[:stop - start] = ord(",")
                separators[:stop - start, -1] = ord("\n")
                sink.write(_compact(rows[:stop - start]))
        del run, texts, ints  # before the next run is gathered


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
    """``ramp_color`` over an array, as (red, green, blue) int rows: the
    same clamp (NaN to 0, as ``max(0.0, nan)`` gives), segment and
    arithmetic per element, and ``np.rint`` rounds half to even as
    ``round`` does.  A channel at a time, to keep few arrays alive."""
    f = np.fmin(np.fmax(fractions, 0.0), 1.0)
    seg = np.searchsorted(_RAMP_F[1:], f)  # the first f1 >= f
    f0 = _RAMP_F[seg]
    t = f - f0
    t /= _RAMP_F[seg + 1] - f0
    del f, f0
    rgb = np.empty(t.shape + (3,), np.int64)
    for channel, (c0, c1) in enumerate(zip(_RAMP_RGB[:-1].T,
                                           _RAMP_RGB[1:].T)):
        c0, c1 = c0[seg], c1[seg]
        c1 -= c0
        c1 *= t
        c1 += c0
        rgb[:, channel] = np.rint(c1, out=c1)
    return rgb


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
    # One row of bytes per trip, written a year at a time: cx is the year's
    # constant text, then come the word of cy, constant text, the word of
    # the fill (with the two bytes after it) and constant text.
    first = results.config.start_year
    heads = [f'<circle cx="{sx(year):.2f}" cy="'.encode()
             for year in range(first, first + len(y_vals))]
    width = len(_padded(max(heads, key=len)))
    middle = _padded(f'" r="{_POINT_RADIUS:g}" fill="#'.encode())
    tail = middle + bytes(8) + _padded(b'fill-opacity="0.6"/>\n')
    rows = np.empty((y_vals.shape[1], width + 8 + len(tail)), np.uint8)
    rows[:, width + 8:] = np.frombuffer(tail, np.uint8)
    words = rows.view(WORD)
    cy, fill = width // 8, (width + 8 + len(middle)) // 8
    quote_space = int.from_bytes(b'" ', "little") << 48
    step = max(1, _SVG_RUN // len(rows))  # years a run
    for y0 in range(0, len(y_vals), step):
        ys = y_vals[y0:y0 + step]
        cys = format_f2(sy(ys).ravel())
        rgb = _ramp_rgb(focus[y0:y0 + step].ravel())
        fills = np.full(len(rgb), quote_space, np.uint64)
        for channel in range(3):
            fills |= HEX2[rgb[:, channel]] << 16 * channel
        del rgb
        for head, cy_words, fill_words in zip(
                heads[y0:y0 + step], cys.reshape(ys.shape),
                fills.reshape(ys.shape)):
            rows[:, :width] = np.frombuffer(_padded(head, width), np.uint8)
            words[:, cy] = cy_words
            words[:, fill] = fill_words
            sink.write(_compact(rows))
    sink.write("</svg>\n")
