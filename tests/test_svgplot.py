"""SVG line plots: polyline text against a per-point reference, and the
per-pixel-column envelope's properties."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemclock import svgplot
from nemclock.svgplot import line_plot


def _plotted(curves, log_x, log_y):
    """Each curve's finite points as (plotted y, pixel x, pixel y) lists,
    with axes that span them."""
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
        [(b, px(a), py(b)) for a, b in zip(x, y) if np.isfinite(a) and np.isfinite(b)]
        for x, y in zip(xs, ys)
    ]


def _runs(column):
    """(start, stop) of each run of equal consecutive values."""
    start = 0
    for i in range(1, len(column) + 1):
        if i == len(column) or column[i] != column[start]:
            yield start, i
            start = i


def _per_point_polylines(curves, log_x, log_y):
    """Oracle: each curve's finite points formatted one at a time.  Of each
    run of consecutive points in one pixel column, floor(pixel x), only the
    first, the last and the first lowest and highest plotted y are kept."""
    polylines = []
    for points in _plotted(curves, log_x, log_y):
        kept = set()
        for start, stop in _runs([math.floor(p[1]) for p in points]):
            run = range(start, stop)
            kept |= {start, stop - 1}
            kept.add(min(run, key=lambda k: points[k][0]))
            kept.add(max(run, key=lambda k: points[k][0]))
        polylines.append(
            " ".join(f"{points[k][1]:.2f},{points[k][2]:.2f}" for k in sorted(kept))
        )
    return polylines


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
    # every drawn point is a point of the curve, in the curve's order
    for polyline, points in zip(written, _plotted(curves, log_x=True, log_y=True)):
        every = iter(f"{a:.2f},{b:.2f}" for _, a, b in points)
        assert all(point in every for point in polyline.split())
    assert len(written[0].split()) < len(_plotted(curves, True, True)[0])


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


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from(["increasing", "decreasing", "zigzag"]),
    x=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=80),
    y=st.lists(st.integers(-3, 3), min_size=80, max_size=80),
    spike=st.integers(0, 79),
)
def test_envelope_keeps_each_runs_ends_and_extremes(shape, x, y, spike):
    if shape != "zigzag":
        x = sorted(x, reverse=shape == "decreasing")
    x, y = np.array(x), np.array(y[: len(x)], dtype=float)
    spike %= x.size
    y[spike] = 100.0  # a one-sample spike, alone in its column or not
    keep = svgplot._envelope(x, y)
    assert keep[spike]
    column = np.floor(x)
    for start, stop in _runs(column.tolist()):
        run = y[start:stop]
        kept = np.flatnonzero(keep[start:stop])
        assert kept[0] == 0 and kept[-1] == stop - start - 1
        assert {run.min(), run.max()} <= set(run[kept])
        # and nothing else: of tied extremes, the first
        assert set(kept) == {0, stop - start - 1, np.argmin(run), np.argmax(run)}
    assert keep.sum() <= 4 * len(list(_runs(column.tolist())))

