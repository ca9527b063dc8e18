"""Minimal SVG line plots, written without plotting dependencies.

Output is deterministic: no timestamps, no randomness, fixed formatting —
identical inputs produce byte-identical files.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot"]

_PALETTE = ["#1f6fb2", "#d1495b", "#3a7d44", "#8d6a9f", "#c77d1e", "#3b3b3b"]
_MARGIN = dict(left=72, right=24, top=36, bottom=52)
_WIDTH, _HEIGHT = 720, 480


def _ticks(lo: float, hi: float, log: bool):
    if log:
        k0 = math.ceil(math.log10(lo) - 1e-9)
        k1 = math.floor(math.log10(hi) + 1e-9)
        if k1 < k0:
            k0, k1 = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        return [(10.0**k, f"1e{k:d}") for k in range(k0, k1 + 1)]
    span = hi - lo
    if span <= 0:
        return [(lo, f"{lo:g}")]
    step = 10.0 ** math.floor(math.log10(span / 4.0))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    value = first
    while value <= hi + 1e-12 * span:
        out.append((value, f"{value:.6g}"))
        value += step
    return out


def line_plot(
    path,
    curves,
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> None:
    """Write a line plot of ``curves`` = [(label, x, y), ...] to ``path``."""
    if not curves:
        raise ValueError("need at least one curve")

    def tx(v):
        return np.log10(v) if log_x else np.asarray(v, dtype=float)

    def ty(v):
        return np.log10(v) if log_y else np.asarray(v, dtype=float)

    xs = [tx(np.asarray(c[1], dtype=float)) for c in curves]
    ys = [ty(np.asarray(c[2], dtype=float)) for c in curves]
    x_lo = min(float(np.min(a)) for a in xs)
    x_hi = max(float(np.max(a)) for a in xs)
    y_lo = min(float(np.min(a)) for a in ys)
    y_hi = max(float(np.max(a)) for a in ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    inner_w = _WIDTH - _MARGIN["left"] - _MARGIN["right"]
    inner_h = _HEIGHT - _MARGIN["top"] - _MARGIN["bottom"]

    def px(v):
        return _MARGIN["left"] + (v - x_lo) / (x_hi - x_lo) * inner_w

    def py(v):
        return _MARGIN["top"] + (y_hi - v) / (y_hi - y_lo) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<g font-family="sans-serif" font-size="12" fill="#222">',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )

    x0, y0 = _MARGIN["left"], _MARGIN["top"]
    parts.append(
        f'<rect x="{x0}" y="{y0}" width="{inner_w}" height="{inner_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    for value, label in _ticks(
        10.0**x_lo if log_x else x_lo, 10.0**x_hi if log_x else x_hi, log_x
    ):
        v = math.log10(value) if log_x else value
        if v < x_lo - 1e-9 or v > x_hi + 1e-9:
            continue
        parts.append(
            f'<line x1="{px(v):.2f}" y1="{y0 + inner_h}" x2="{px(v):.2f}" '
            f'y2="{y0 + inner_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px(v):.2f}" y="{y0 + inner_h + 18}" '
            f'text-anchor="middle">{label}</text>'
        )
    for value, label in _ticks(
        10.0**y_lo if log_y else y_lo, 10.0**y_hi if log_y else y_hi, log_y
    ):
        v = math.log10(value) if log_y else value
        if v < y_lo - 1e-9 or v > y_hi + 1e-9:
            continue
        parts.append(
            f'<line x1="{x0 - 5}" y1="{py(v):.2f}" x2="{x0}" '
            f'y2="{py(v):.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{py(v) + 4:.2f}" '
            f'text-anchor="end">{label}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{x0 + inner_w / 2:.1f}" y="{_HEIGHT - 12}" '
            f'text-anchor="middle">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{y0 + inner_h / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {y0 + inner_h / 2:.1f})">{y_label}</text>'
        )

    for i, (label, _, _) in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(a):.2f},{py(b):.2f}"
            for a, b in zip(xs[i], ys[i])
            if np.isfinite(a) and np.isfinite(b)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        if label:
            ly = y0 + 16 + 16 * i
            lx = x0 + inner_w - 150
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(f'<text x="{lx + 30}" y="{ly}">{label}</text>')

    parts.append("</g></svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
