"""Dependency-free SVG rendering of the report figures.

Only what the reports need: grouped bar charts of per-group variance,
side-by-side boxplots, and the rank-spread scatter. Output is well-formed
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


def variance_bars_svg(dt_report, hrg_report, title: str, out) -> None:
    """Grouped bars to ``out``: per-rank variance for the tree groups vs the
    HRG groups, with the headline means in the legend."""
    ranks = sorted(set(dt_report.per_group) | set(hrg_report.per_group))
    width, height = max(560, 40 * len(ranks) + 2 * _MARGIN), 320
    canvas = SvgCanvas(out, width, height)

    def var_of(report, rank):
        gv = report.per_group.get(rank)
        return gv.variance if gv else 0.0

    values = [max(var_of(dt_report, r), var_of(hrg_report, r)) for r in ranks]
    scale = _y_scale(max(values) if values else 1.0, height)
    slot = (width - 2 * _MARGIN) / max(len(ranks), 1)
    bar = slot * 0.35
    for i, r in enumerate(ranks):
        x0 = _MARGIN + i * slot
        for offset, report, color in ((0.1, dt_report, DT_COLOR), (0.5, hrg_report, HRG_COLOR)):
            gv = report.per_group.get(r)
            if gv is None:
                continue
            y = scale(gv.variance)
            canvas.rect(x0 + offset * slot, y, bar, height - _MARGIN - y, color)
        canvas.text(x0 + slot / 2, height - _MARGIN + 16, r, anchor="middle")
    canvas.line(_MARGIN, height - _MARGIN, width - _MARGIN, height - _MARGIN)
    canvas.line(_MARGIN, _MARGIN, _MARGIN, height - _MARGIN)
    canvas.text(_MARGIN, _MARGIN - 24, title, size=14)
    canvas.rect(_MARGIN, _MARGIN - 16, 10, 10, DT_COLOR)
    canvas.text(_MARGIN + 14, _MARGIN - 7, f"DT (mean {dt_report.mean_variance:.2f})")
    canvas.rect(_MARGIN + 180, _MARGIN - 16, 10, 10, HRG_COLOR)
    canvas.text(_MARGIN + 194, _MARGIN - 7, f"HRG (mean {hrg_report.mean_variance:.2f})")
    canvas.close()


def boxplots_svg(dt_stats, hrg_stats, title: str, out) -> None:
    """Side-by-side box-and-whisker per rank for the two groupings, to ``out``."""
    ranks = sorted(set(dt_stats) | set(hrg_stats))
    width, height = max(560, 44 * len(ranks) + 2 * _MARGIN), 360
    canvas = SvgCanvas(out, width, height)
    top = max((s.max for s in list(dt_stats.values()) + list(hrg_stats.values())), default=1.0)
    scale = _y_scale(top, height)
    slot = (width - 2 * _MARGIN) / max(len(ranks), 1)
    box_w = slot * 0.3

    def draw_box(stats, x, color):
        mid = x + box_w / 2
        canvas.line(mid, scale(stats.min), mid, scale(stats.q1), stroke=color)
        canvas.line(mid, scale(stats.q3), mid, scale(stats.max), stroke=color)
        canvas.rect(x, scale(stats.q3), box_w, scale(stats.q1) - scale(stats.q3), color, 0.45)
        canvas.line(x, scale(stats.median), x + box_w, scale(stats.median), stroke=color, width=2)

    for i, r in enumerate(ranks):
        x0 = _MARGIN + i * slot
        if r in dt_stats:
            draw_box(dt_stats[r], x0 + slot * 0.12, DT_COLOR)
        if r in hrg_stats:
            draw_box(hrg_stats[r], x0 + slot * 0.55, HRG_COLOR)
        canvas.text(x0 + slot / 2, height - _MARGIN + 16, r, anchor="middle")
    canvas.line(_MARGIN, height - _MARGIN, width - _MARGIN, height - _MARGIN)
    canvas.line(_MARGIN, _MARGIN, _MARGIN, height - _MARGIN)
    canvas.text(_MARGIN, _MARGIN - 24, title, size=14)
    canvas.rect(_MARGIN, _MARGIN - 16, 10, 10, DT_COLOR)
    canvas.text(_MARGIN + 14, _MARGIN - 7, "DT groups")
    canvas.rect(_MARGIN + 120, _MARGIN - 16, 10, 10, HRG_COLOR)
    canvas.text(_MARGIN + 134, _MARGIN - 7, "HRG groups")
    canvas.close()


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
