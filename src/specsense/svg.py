"""Minimal dependency-free SVG line charts for sweep results.

Output is deterministic: coordinates are formatted with a fixed precision
so the same data always produces the same bytes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Series", "render_line_chart"]

_WIDTH = 640
_HEIGHT = 440
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 55
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass(frozen=True)
class Series:
    """One polyline: a label plus x/y data of equal length."""

    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError("x and y must have the same length")
        if len(self.x) < 1:
            raise ValueError("series must contain at least one point")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    """Evenly spaced ticks spanning [lo, hi]."""
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def render_line_chart(
    series: Sequence[Series],
    title: str,
    x_label: str,
    y_label: str,
) -> str:
    """Render series as an SVG document string."""
    if not series:
        raise ValueError("need at least one series")
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    # Equal ends get a span of 1, or of one float where adding 1 leaves the end as it is.
    if x_hi == x_lo:
        x_hi = max(x_lo + 1.0, math.nextafter(x_lo, math.inf))
    if y_hi == y_lo:
        y_hi = max(y_lo + 1.0, math.nextafter(y_lo, math.inf))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(v: float) -> float:
        return _MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_escape(title)}</text>',
    ]

    axis_style = 'stroke="black" stroke-width="1"'
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts.append(f'<line x1="{x0}" y1="{_MARGIN_TOP}" x2="{x0}" y2="{y0}" {axis_style}/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" {axis_style}/>')

    for tick in _nice_ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(f'<line x1="{_fmt(tx)}" y1="{y0}" x2="{_fmt(tx)}" y2="{y0 + 5}" {axis_style}/>')
        parts.append(
            f'<text x="{_fmt(tx)}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )
    for tick in _nice_ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(ty)}" x2="{x0}" y2="{_fmt(ty)}" {axis_style}/>')
        parts.append(
            f'<text x="{x0 - 9}" y="{_fmt(ty + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )

    parts.append(
        f'<text x="{x0 + plot_w / 2:.0f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.0f})">{_escape(y_label)}</text>'
    )

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(s.x, s.y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for a, b in zip(s.x, s.y):
            parts.append(
                f'<circle cx="{_fmt(px(a))}" cy="{_fmt(py(b))}" r="3" fill="{color}"/>'
            )
        ly = _MARGIN_TOP + 14 + 16 * idx
        lx = x0 + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(s.label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
