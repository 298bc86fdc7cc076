"""Dependency-free SVG rendering of the report figures.

Only what the reports need: grouped bar charts of per-group variance,
side-by-side boxplots, and the rank-spread scatter. The two grouped charts
share one frame, ``_grouped_chart``: the rank slots and their labels, both
axes, the title and the DT/HRG legend; each chart draws only its marks for
one grouping at one rank. Output is well-formed
standalone SVG 1.1, written element by element to a text sink (an open file
or an ``io.StringIO``), so no figure's text is held whole.
"""

from __future__ import annotations

from html import escape

import numpy as np

DT_COLOR = "#4878a8"
HRG_COLOR = "#c44e52"
TEXT_COLOR = "#222"
FACTOR_COLORS = {"los_days": "#4878a8", "total_cost": "#c44e52", "tbsa_pct": "#55a868"}


class SvgCanvas:
    """An SVG document written to ``out`` (anything with ``.write(str)``)
    element by element; ``close`` ends it."""

    def __init__(self, out, width: int, height: int):
        self.write = out.write
        self.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
        )

    def rect(self, x, y, w, h, fill, opacity=1.0):
        self.write(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
            f'fill="{fill}" fill-opacity="{opacity}"/>\n'
        )

    def line(self, x1, y1, x2, y2, stroke="#333", width=1.0):
        self.write(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{stroke}" stroke-width="{width}"/>\n'
        )

    def circles(self, xs, ys, r, fill, opacity=1.0):
        """One circle per (x, y) pair, written with one ``write``."""
        self.write("".join(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" '
            f'fill="{fill}" fill-opacity="{opacity}"/>\n'
            for x, y in zip(xs, ys)
        ))

    def text(self, x, y, content, size=11, anchor="start"):
        self.write(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="{size}" '
            f'font-family="sans-serif" text-anchor="{anchor}" fill="{TEXT_COLOR}">'
            f"{escape(str(content), quote=False)}</text>\n"
        )

    def close(self) -> None:
        self.write("</svg>\n")


_MARGIN = 50
#: Cases of the rank-spread scatter formatted and written at once.
_SPREAD_BLOCK = 1024


def _y_scale(max_value: float, height: int):
    top = max_value if max_value > 0 else 1.0

    def scale(v):
        return height - _MARGIN - (v / top) * (height - 2 * _MARGIN)

    return scale


def _grouped_chart(out, title: str, rank_width: int, height: int, top: float, draw,
                   groupings) -> None:
    """The grouped-chart frame, to ``out``: a slot per rank of either
    grouping (at least ``rank_width`` wide) labelled below, both axes,
    ``title`` and a legend swatch per grouping. ``groupings`` holds, for the
    tree groups then the HRG groups, (items by rank, the fraction of a slot
    at which ``draw(canvas, scale, x, slot, item, color)`` draws each, the
    legend entry's x offset, its label). The y scale runs from 0 to ``top``,
    or to 1.0 if ``top`` is not above 0."""
    ranks = sorted(set().union(*(items for items, *_ in groupings)))
    width = max(560, rank_width * len(ranks) + 2 * _MARGIN)
    canvas = SvgCanvas(out, width, height)
    scale = _y_scale(top, height)
    slot = (width - 2 * _MARGIN) / max(len(ranks), 1)
    colored = tuple(zip(groupings, (DT_COLOR, HRG_COLOR)))
    for i, r in enumerate(ranks):
        x0 = _MARGIN + i * slot
        for (items, offset, _, _), color in colored:
            if r in items:
                draw(canvas, scale, x0 + offset * slot, slot, items[r], color)
        canvas.text(x0 + slot / 2, height - _MARGIN + 16, r, anchor="middle")
    canvas.line(_MARGIN, height - _MARGIN, width - _MARGIN, height - _MARGIN)
    canvas.line(_MARGIN, _MARGIN, _MARGIN, height - _MARGIN)
    canvas.text(_MARGIN, _MARGIN - 24, title, size=14)
    for (_, _, x, label), color in colored:
        canvas.rect(_MARGIN + x, _MARGIN - 16, 10, 10, color)
        canvas.text(_MARGIN + x + 14, _MARGIN - 7, label)
    canvas.close()


def variance_bars_svg(dt_report, hrg_report, title: str, out) -> None:
    """Grouped bars to ``out``: per-rank variance for the tree groups vs the
    HRG groups, with the headline means in the legend."""
    height = 320
    top = max((gv.variance for report in (dt_report, hrg_report)
               for gv in report.per_group.values()), default=1.0)

    def draw_bar(canvas, scale, x, slot, gv, color):
        y = scale(gv.variance)
        canvas.rect(x, y, slot * 0.35, height - _MARGIN - y, color)

    _grouped_chart(out, title, 40, height, top, draw_bar, (
        (dt_report.per_group, 0.1, 0, f"DT (mean {dt_report.mean_variance:.2f})"),
        (hrg_report.per_group, 0.5, 180, f"HRG (mean {hrg_report.mean_variance:.2f})"),
    ))


def boxplots_svg(dt_stats, hrg_stats, title: str, out) -> None:
    """Side-by-side box-and-whisker per rank for the two groupings, to ``out``."""
    top = max((s.max for stats in (dt_stats, hrg_stats) for s in stats.values()), default=1.0)

    def draw_box(canvas, scale, x, slot, stats, color):
        box_w = slot * 0.3
        mid = x + box_w / 2
        canvas.line(mid, scale(stats.min), mid, scale(stats.q1), stroke=color)
        canvas.line(mid, scale(stats.q3), mid, scale(stats.max), stroke=color)
        canvas.rect(x, scale(stats.q3), box_w, scale(stats.q1) - scale(stats.q3), color, 0.45)
        canvas.line(x, scale(stats.median), x + box_w, scale(stats.median), stroke=color, width=2)

    _grouped_chart(out, title, 44, 360, top, draw_box, (
        (dt_stats, 0.12, 0, "DT groups"),
        (hrg_stats, 0.55, 120, "HRG groups"),
    ))


def rank_spread_svg(factor_ranks: dict[str, np.ndarray], final_ranks: np.ndarray, k: int,
                    out) -> None:
    """Scatter, to ``out``, of each case's per-factor rank against its final
    rank; the three factors are offset within each final-rank slot. The
    circles are formatted and written ``_SPREAD_BLOCK`` cases at a time."""
    width, height = 720, 420
    canvas = SvgCanvas(out, width, height)
    scale_y = _y_scale(float(k), height)
    slot = (width - 2 * _MARGIN) / k
    offsets = {f: (i + 1) / (len(factor_ranks) + 1) for i, f in enumerate(factor_ranks)}
    final_ranks = np.asarray(final_ranks)
    for factor, ranks in factor_ranks.items():
        color = FACTOR_COLORS.get(factor, "#777")
        for start in range(0, len(ranks), _SPREAD_BLOCK):
            cases = np.arange(start, min(start + _SPREAD_BLOCK, len(ranks)))
            jitter = (cases % 7 - 3) * slot * 0.015
            # the scalar arithmetic of one point at a time, over a block of points
            xs = _MARGIN + (final_ranks[cases] - 1) * slot + offsets[factor] * slot + jitter
            ys = scale_y(np.asarray(ranks[start:start + _SPREAD_BLOCK], dtype=np.float64))
            canvas.circles(xs.tolist(), ys.tolist(), 1.6, color, 0.35)
    for r in range(1, k + 1):
        canvas.text(_MARGIN + (r - 0.5) * slot, height - _MARGIN + 16, r, anchor="middle")
        canvas.text(_MARGIN - 8, scale_y(float(r)) + 4, r, anchor="end")
    canvas.line(_MARGIN, height - _MARGIN, width - _MARGIN, height - _MARGIN)
    canvas.line(_MARGIN, _MARGIN, _MARGIN, height - _MARGIN)
    canvas.text(width / 2, height - 12, "final group rank", anchor="middle")
    canvas.text(_MARGIN, _MARGIN - 24, "Per-factor rank by final group", size=14)
    x_legend = _MARGIN
    for factor, color in FACTOR_COLORS.items():
        if factor not in factor_ranks:
            continue
        canvas.circles([x_legend + 5], [_MARGIN - 11], 4, color)
        canvas.text(x_legend + 14, _MARGIN - 7, factor)
        x_legend += 150
    canvas.close()
