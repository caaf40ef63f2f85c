"""Minimal standalone SVG bar charts.

Charts are built by direct string assembly: no plotting dependency, no
font metrics, no randomness, so the same data always yields the same
bytes. That keeps chart files diffable and lets tests compare them
exactly. Geometry is fixed-size with generous margins; all coordinates
are formatted to two decimals.
"""

from __future__ import annotations

from typing import Sequence

WIDTH = 640
HEIGHT = 420
MARGIN_LEFT = 70
MARGIN_RIGHT = 25
MARGIN_TOP = 50
MARGIN_BOTTOM = 65

BAR_FILL = "#4878a8"
AXIS_COLOR = "#333333"
GRID_COLOR = "#dddddd"
FONT = "font-family=\"Helvetica, Arial, sans-serif\""


def _escape(text: str) -> str:
    """XML-escape ``&``, ``<`` and ``>``, as ``xml.sax.saxutils.escape`` does."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _nice_step(max_value: float, target_ticks: int = 5) -> float:
    """A 1/2/5-series step so axis ticks land on round numbers."""
    if max_value <= 0:
        return 1.0
    raw = max_value / target_ticks
    magnitude = 10 ** int(f"{raw:e}".split("e")[1])
    for mult in (1, 2, 5, 10):
        if mult * magnitude >= raw:
            return mult * magnitude
    return 10 * magnitude


def render_bar_chart(
    bin_edges: Sequence[float],
    counts: Sequence[int],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render counts per bin as an SVG bar chart.

    ``bin_edges`` has one more entry than ``counts``; edge values are
    drawn as x-axis tick labels under the bin boundaries.
    """
    if len(bin_edges) != len(counts) + 1:
        raise ValueError(
            f"need {len(counts) + 1} edges for {len(counts)} bins, "
            f"got {len(bin_edges)}"
        )
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    x0, y0 = MARGIN_LEFT, MARGIN_TOP

    max_count = max(counts) if counts else 0
    step = max(1.0, _nice_step(max_count))
    y_max = step
    while y_max < max_count:
        y_max += step

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.2f}" y="28" text-anchor="middle" '
        f'font-size="17" {FONT} fill="{AXIS_COLOR}">{_escape(title)}</text>',
    ]

    # horizontal gridlines and y tick labels
    tick = 0.0
    while tick <= y_max:
        y = y0 + plot_h * (1 - tick / y_max)
        parts.append(
            f'<line x1="{x0}" y1="{y:.2f}" x2="{x0 + plot_w}" y2="{y:.2f}" '
            f'stroke="{GRID_COLOR}" stroke-width="1"/>'
        )
        label = f"{tick:g}"
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12" {FONT} fill="{AXIS_COLOR}">{label}</text>'
        )
        tick += step

    # bars
    n = len(counts)
    if n:
        slot = plot_w / n
        bar_w = slot * 0.82
        for i, count in enumerate(counts):
            bar_h = plot_h * (count / y_max) if y_max else 0.0
            bx = x0 + i * slot + (slot - bar_w) / 2
            by = y0 + plot_h - bar_h
            parts.append(
                f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bar_w:.2f}" '
                f'height="{bar_h:.2f}" fill="{BAR_FILL}"/>'
            )

    # axes
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y0 + plot_h}" '
        f'stroke="{AXIS_COLOR}" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0 + plot_h}" x2="{x0 + plot_w}" '
        f'y2="{y0 + plot_h}" stroke="{AXIS_COLOR}" stroke-width="1.5"/>'
    )

    # x tick labels at bin edges
    if n:
        slot = plot_w / n
        for i, edge in enumerate(bin_edges):
            ex = x0 + i * slot
            parts.append(
                f'<text x="{ex:.2f}" y="{y0 + plot_h + 18}" '
                f'text-anchor="middle" font-size="12" {FONT} '
                f'fill="{AXIS_COLOR}">{edge:g}</text>'
            )

    # axis titles
    parts.append(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{HEIGHT - 16}" '
        f'text-anchor="middle" font-size="14" {FONT} '
        f'fill="{AXIS_COLOR}">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="20" y="{y0 + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-size="14" {FONT} fill="{AXIS_COLOR}" '
        f'transform="rotate(-90 20 {y0 + plot_h / 2:.2f})">{_escape(y_label)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
