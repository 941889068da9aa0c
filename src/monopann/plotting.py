"""Self-contained SVG line charts for stretch-stress curves.

The figures needed here are simple enough that emitting SVG directly keeps
the artifacts dependency-free and byte-reproducible.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["Series", "line_chart"]

PALETTE = [
    "#1f4e79",
    "#d1651d",
    "#2e7d32",
    "#8e24aa",
    "#c62828",
    "#00838f",
    "#6d4c41",
    "#37474f",
]


@dataclass
class Series:
    x: np.ndarray
    y: np.ndarray
    label: str = ""
    markers: bool = False


# the chart's size in pixels, and the most ticks an axis gets
_WIDTH, _HEIGHT = 640, 420
_TICKS = 5


def _nice_ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / _TICKS
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= _TICKS:
            break
    first = np.ceil(lo / step) * step
    ticks = np.arange(first, hi + 0.5 * step, step)
    return [float(t) for t in ticks]


def _escape(text: str) -> str:
    """Escape the characters XML reserves in text content.  (``html.escape``
    would do, but importing ``html`` costs more than the whole chart.)"""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    text = f"{value:.6g}"
    return "0" if text == "-0" else text


def line_chart(series: list, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render series as an SVG document string, 640 x 420 pixels."""
    margin_l, margin_r, margin_t, margin_b = 62, 16, 34, 46
    plot_w = _WIDTH - margin_l - margin_r
    plot_h = _HEIGHT - margin_t - margin_b

    xs = np.concatenate([np.asarray(s.x, dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s.y, dtype=float) for s in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def px(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return margin_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    # grid and ticks
    for tx in _nice_ticks(x_lo, x_hi):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.2f}" y1="{margin_t}" x2="{x:.2f}" '
            f'y2="{margin_t + plot_h}" stroke="#e0e0e0" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{margin_t + plot_h + 18}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(tx)}</text>'
        )
    for ty in _nice_ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(
            f'<line x1="{margin_l}" y1="{y:.2f}" x2="{margin_l + plot_w}" '
            f'y2="{y:.2f}" stroke="#e0e0e0" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{y + 4:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{_fmt(ty)}</text>'
        )
    parts.append(
        f'<rect x="{margin_l}" y="{margin_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#606060" stroke-width="1"/>'
    )
    # series
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        x = np.asarray(s.x, dtype=float)
        y = np.asarray(s.y, dtype=float)
        if s.markers:
            for xi, yi in zip(x, y):
                parts.append(
                    f'<circle cx="{px(xi):.2f}" cy="{py(yi):.2f}" r="3" '
                    f'fill="{color}"/>'
                )
        else:
            points = " ".join(f"{px(xi):.2f},{py(yi):.2f}" for xi, yi in zip(x, y))
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="1.8"/>'
            )
    # legend
    legend_y = margin_t + 14
    for idx, s in enumerate(series):
        if not s.label:
            continue
        color = PALETTE[idx % len(PALETTE)]
        lx = margin_l + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{legend_y - 4}" x2="{lx + 22}" y2="{legend_y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{legend_y}" font-size="12" '
            f'font-family="sans-serif">{_escape(s.label)}</text>'
        )
        legend_y += 16
    # labels
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="20" font-size="14" text-anchor="middle" '
            f'font-family="sans-serif" font-weight="bold">{_escape(title)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{margin_l + plot_w / 2:.0f}" y="{_HEIGHT - 10}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif">{_escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{margin_t + plot_h / 2:.0f}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'transform="rotate(-90 16 {margin_t + plot_h / 2:.0f})">'
            f'{_escape(ylabel)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
