import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from casemix import svgplot
from casemix.evaluate import boxplot_stats, intra_group_variance
from casemix.svgplot import boxplots_svg, rank_spread_svg, variance_bars_svg
from tests.helpers import Discard, traced_peak


def svg_text(figure, *args) -> str:
    """What ``figure(*args, out)`` writes to a text sink ``out``."""
    buf = io.StringIO()
    figure(*args, buf)
    return buf.getvalue()


def well_formed(svg_text: str) -> ET.Element:
    root = ET.fromstring(svg_text)
    assert root.tag.endswith("svg")
    return root


def sample_reports():
    rng = np.random.default_rng(1)
    values = rng.gamma(2, 8, size=300)
    dt = rng.integers(1, 6, size=300)
    hrg = rng.integers(1, 6, size=300)
    return values, dt, hrg


def spread_inputs(n: int, seed: int = 2):
    """Per-factor and final ranks in 1..13 for ``n`` cases."""
    rng = np.random.default_rng(seed)
    final = rng.integers(1, 14, size=n)
    return {f: rng.integers(1, 14, size=n) for f in ("los_days", "total_cost", "tbsa_pct")}, final


def test_variance_bars_well_formed():
    values, dt, hrg = sample_reports()
    svg = svg_text(
        variance_bars_svg, intra_group_variance(values, dt), intra_group_variance(values, hrg),
        "variance",
    )
    root = well_formed(svg)
    assert any(child.tag.endswith("rect") for child in root)


def test_boxplots_well_formed():
    values, dt, hrg = sample_reports()
    svg = svg_text(boxplots_svg, boxplot_stats(values, dt), boxplot_stats(values, hrg),
                   "box & whisker <>")
    root = well_formed(svg)
    texts = [c.text for c in root if c.tag.endswith("text")]
    assert any(t and "&" not in t.replace("&amp;", "") for t in texts)  # escaped output parses


def test_rank_spread_well_formed():
    factor_ranks, final = spread_inputs(150)
    root = well_formed(svg_text(rank_spread_svg, factor_ranks, final, 13))
    assert sum(1 for c in root if c.tag.endswith("circle")) > 100


@pytest.mark.parametrize("figure, report", [(variance_bars_svg, intra_group_variance),
                                            (boxplots_svg, boxplot_stats)])
def test_grouped_charts_with_no_ranks(figure, report):
    """An empty test split gives reports with no ranks: the chart is its
    frame alone, at the least width, with the two legend swatches."""
    root = well_formed(svg_text(figure, report([], []), report([], []), "empty split"))
    assert root.get("width") == "560"
    assert [child.tag.rpartition("}")[2] for child in root] == [
        "line", "line", "text", "rect", "text", "rect", "text"]


@pytest.mark.parametrize("figure, report", [(variance_bars_svg, intra_group_variance),
                                            (boxplots_svg, boxplot_stats)])
def test_grouped_charts_of_zeros_sit_on_the_axis(figure, report):
    """Reports whose every value is 0 fall back to a y scale up to 1.0, so
    every mark lies on the x axis."""
    zeros = report([0.0] * 4, [1, 1, 2, 2])
    root = well_formed(svg_text(figure, zeros, zeros, "all zero"))
    axis = f"{int(root.get('height')) - svgplot._MARGIN:.2f}"
    marks = [c for c in root if c.tag.endswith("rect")][:-2]  # the last two are the legend's
    assert len(marks) == 4
    assert all(c.get("y") == axis and c.get("height") == "0.00" for c in marks)


def test_deterministic_output():
    values, dt, hrg = sample_reports()
    reports = (intra_group_variance(values, dt), intra_group_variance(values, hrg), "t")
    assert svg_text(variance_bars_svg, *reports) == svg_text(variance_bars_svg, *reports)


def reference_spread_circles(factor_ranks, final, k: int) -> list[str]:
    """The scatter's circle elements, one point at a time in scalar
    arithmetic, factor by factor and case by case."""
    width, height, margin = 720, 420, svgplot._MARGIN
    slot = (width - 2 * margin) / k
    lines = []
    for j, (factor, ranks) in enumerate(factor_ranks.items()):
        offset = (j + 1) / (len(factor_ranks) + 1)
        for i, (f, r) in enumerate(zip(final.tolist(), ranks.tolist())):
            x = margin + (f - 1) * slot + offset * slot + (i % 7 - 3) * slot * 0.015
            y = height - margin - (float(r) / float(k)) * (height - 2 * margin)
            lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.60" '
                         f'fill="{svgplot.FACTOR_COLORS[factor]}" fill-opacity="0.35"/>')
    return lines


@pytest.mark.parametrize("n", [svgplot._SPREAD_BLOCK - 1, svgplot._SPREAD_BLOCK,
                               svgplot._SPREAD_BLOCK + 1, 2 * svgplot._SPREAD_BLOCK + 1])
def test_rank_spread_blocks_match_points(n):
    """Wherever the blocks fall, the scatter's circles are those a loop over
    single points writes, in the same order, right after the document's
    opening lines; the rest of the figure holds no scatter circle."""
    factor_ranks, final = spread_inputs(n, seed=n)
    text = svg_text(rank_spread_svg, factor_ranks, final, 13)
    well_formed(text)
    lines = text.splitlines()
    expected = reference_spread_circles(factor_ranks, final, 13)
    assert lines[1].startswith("<svg ")
    assert lines[2:2 + len(expected)] == expected
    assert not any('r="1.60"' in line for line in lines[2 + len(expected):])


def test_rank_spread_peak_memory_does_not_grow_with_cases():
    """The scatter is formatted a block of cases at a time, so ten times
    the cases peaks at about the same memory; formatting every point first
    would take about ten times as much."""
    def peak(n):
        factor_ranks, final = spread_inputs(n)
        return traced_peak(rank_spread_svg, factor_ranks, final, 13, Discard())

    assert peak(20000) <= 1.5 * peak(2000)
