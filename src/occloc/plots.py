"""Minimal deterministic SVG line charts for the CLI's --plot flag.

Hand-rolled on purpose: output depends only on the data, so plot files are
diffable and reproducible alongside the CSVs they accompany.
"""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 50


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def svg_line_chart(
    path,
    title: str,
    x_label: str,
    y_label: str,
    series,
    log_y: bool = False,
):
    """Write a line chart; series is an iterable of (name, xs, ys). Each line
    keeps its finite points, and on a log scale its positive ones; with none
    left in any line, the chart is an empty frame over [0, 1]."""
    series = [
        (name, [(x, y) for x, y in zip(xs, ys)
                if math.isfinite(x) and math.isfinite(y) and (not log_y or y > 0)])
        for name, xs, ys in series
    ]
    # with no point, one at the origin (10**0 on a log scale) widens to [0, 1]
    pts = [p for _, line in series for p in line] or [(0.0, 1.0 if log_y else 0.0)]
    tx = (lambda v: math.log10(v)) if log_y else (lambda v: v)
    x_lo, x_hi = min(p[0] for p in pts), max(p[0] for p in pts)
    y_lo, y_hi = min(tx(p[1]) for p in pts), max(tx(p[1]) for p in pts)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + plot_h - (tx(y) - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle">{t:g}</text>'
        )
    y_ticks = _ticks(y_lo, y_hi)
    for t in y_ticks:
        y = _MARGIN_T + plot_h - (t - y_lo) / (y_hi - y_lo) * plot_h
        label = f"1e{t:g}" if log_y else f"{t:g}"
        out.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{y:.1f}" x2="{_MARGIN_L}" y2="{y:.1f}" stroke="black"/>'
        )
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end">{label}</text>')
    out.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{_MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.1f})">{y_label}</text>'
    )
    for i, (name, line) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in line)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 16 + 16 * i
        lx = _MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 30}" y="{ly}">{name}</text>')
    out.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(out) + "\n")
