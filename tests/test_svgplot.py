"""SVG line plots: polyline text against a per-point reference."""
import math
import re

import numpy as np
import pytest

from nemclock import svgplot
from nemclock.svgplot import line_plot


def _per_point_polylines(curves, log_x, log_y):
    """Oracle: each curve's points formatted one at a time, skipping a point
    whose plotted x or y is not finite, with axes that span the rest."""
    xs = [np.log10(x) if log_x else np.asarray(x, dtype=float) for _, x, _ in curves]
    ys = [np.log10(y) if log_y else np.asarray(y, dtype=float) for _, _, y in curves]
    finite = [np.isfinite(x) & np.isfinite(y) for x, y in zip(xs, ys)]
    x_lo = min(float(np.min(x[k])) for x, k in zip(xs, finite) if k.any())
    x_hi = max(float(np.max(x[k])) for x, k in zip(xs, finite) if k.any())
    y_lo = min(float(np.min(y[k])) for y, k in zip(ys, finite) if k.any())
    y_hi = max(float(np.max(y[k])) for y, k in zip(ys, finite) if k.any())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    m = svgplot._MARGIN
    inner_w = svgplot._WIDTH - m["left"] - m["right"]
    inner_h = svgplot._HEIGHT - m["top"] - m["bottom"]

    def px(v):
        return m["left"] + (v - x_lo) / (x_hi - x_lo) * inner_w

    def py(v):
        return m["top"] + (y_hi - v) / (y_hi - y_lo) * inner_h

    return [
        " ".join(
            f"{px(a):.2f},{py(b):.2f}"
            for a, b in zip(x, y)
            if np.isfinite(a) and np.isfinite(b)
        )
        for x, y in zip(xs, ys)
    ]


def _curves(with_gaps):
    rng = np.random.Generator(np.random.Philox(4))
    x = np.sort(10.0 ** rng.uniform(-3.0, 4.0, 3000))
    y1 = 10.0 ** rng.uniform(-8.0, 2.0, x.size)
    y2 = x**-0.5
    if with_gaps:
        # under log axes: 0 -> -inf, a negative -> NaN, and inf stays inf
        y1[[5, 100]] = [0.0, -1.0]
        x[[7, 2999]] = [math.nan, math.inf]
        y2[50] = math.inf
    return [("a", x, y1), ("b", x, y2), ("", x[:1], y2[:1])]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("with_gaps", [False, True])
def test_polyline_matches_per_point_format(tmp_path, with_gaps):
    curves = _curves(with_gaps)
    path = tmp_path / "p.svg"
    line_plot(path, curves, title="t", log_x=True, log_y=True)
    written = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    expected = _per_point_polylines(curves, log_x=True, log_y=True)
    assert written == expected
    kept = [
        int(np.sum(np.isfinite(np.log10(x)) & np.isfinite(np.log10(y))))
        for _, x, y in curves
    ]
    assert [len(p.split()) for p in written] == kept


def test_polyline_linear_axes(tmp_path):
    x = np.linspace(-3.0, 7.0, 501)
    curves = [("s", x, np.sin(x) - 0.004), ("c", x[::-1], -np.cos(x))]
    path = tmp_path / "p.svg"
    line_plot(path, curves)
    written = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert written == _per_point_polylines(curves, log_x=False, log_y=False)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_no_finite_point_is_refused(tmp_path):
    with pytest.raises(ValueError, match="no curve has a finite point"):
        line_plot(tmp_path / "p.svg", [("a", [1.0, 2.0], [0.0, -1.0])], log_y=True)
