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
_POINTS_CHUNK = 1024  # points formatted per %-format, so no full-size float list


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


def _axis_ticks(lo: float, hi: float, log: bool):
    """(plotted coordinate, label) of each tick on the axis spanning
    [lo, hi] in plotted coordinates, log10 of the value on a log axis."""
    for value, label in _ticks(10.0**lo if log else lo, 10.0**hi if log else hi, log):
        v = math.log10(value) if log else value
        if lo - 1e-9 <= v <= hi + 1e-9:
            yield v, label


def _envelope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of the points an M4 envelope keeps (Jugel et al., *PVLDB* 7(10),
    797, 2014).

    The points split into runs of consecutive points whose pixel column
    ``floor(x)`` is the same; each run keeps its first and last point and the
    first of its lowest and of its highest ``y``.  So a one-sample spike
    survives, and x may increase, decrease or zigzag.
    """
    keep = np.zeros(x.size, dtype=bool)
    if x.size == 0:
        return keep
    column = np.floor(x)
    starts = np.flatnonzero(np.concatenate([[True], column[1:] != column[:-1]]))
    lengths = np.diff(np.append(starts, x.size))
    keep[starts] = True
    keep[starts + lengths - 1] = True
    index = np.arange(x.size)
    for extreme in (np.minimum, np.maximum):
        hit = y == np.repeat(extreme.reduceat(y, starts), lengths)
        keep[np.minimum.reduceat(np.where(hit, index, x.size), starts)] = True
    return keep


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
    """Write a line plot of ``curves`` = [(label, x, y), ...] to ``path``.

    A point whose plotted x or y is not finite (a value <= 0 on a log axis,
    say) is left out, and the axes span the points that remain.  Each curve
    is drawn through its per-pixel-column envelope (``_envelope``), so a
    20000-point curve costs a few thousand points and keeps every extreme.
    """
    if not curves:
        raise ValueError("need at least one curve")

    def tx(v):
        return np.log10(v) if log_x else np.asarray(v, dtype=float)

    def ty(v):
        return np.log10(v) if log_y else np.asarray(v, dtype=float)

    xs, ys = [], []
    for _, x, y in curves:
        x, y = tx(np.asarray(x, dtype=float)), ty(np.asarray(y, dtype=float))
        keep = np.isfinite(x) & np.isfinite(y)
        xs.append(x[keep])
        ys.append(y[keep])
    x_lo = min(float(np.min(a, initial=math.inf)) for a in xs)
    x_hi = max(float(np.max(a, initial=-math.inf)) for a in xs)
    y_lo = min(float(np.min(a, initial=math.inf)) for a in ys)
    y_hi = max(float(np.max(a, initial=-math.inf)) for a in ys)
    if x_lo > x_hi:
        raise ValueError("no curve has a finite point to plot")
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
    for v, label in _axis_ticks(x_lo, x_hi, log_x):
        parts.append(
            f'<line x1="{px(v):.2f}" y1="{y0 + inner_h}" x2="{px(v):.2f}" '
            f'y2="{y0 + inner_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px(v):.2f}" y="{y0 + inner_h + 18}" '
            f'text-anchor="middle">{label}</text>'
        )
    for v, label in _axis_ticks(y_lo, y_hi, log_y):
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
        x_px = px(xs[i])
        keep = _envelope(x_px, ys[i])
        xy = np.stack([x_px[keep], py(ys[i][keep])], axis=1)
        blocks = []
        for k in range(0, len(xy), _POINTS_CHUNK):
            block = xy[k : k + _POINTS_CHUNK]
            points = " ".join(["%.2f,%.2f"] * len(block))
            blocks.append(points % tuple(block.ravel().tolist()))
        pts = " ".join(blocks)
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
