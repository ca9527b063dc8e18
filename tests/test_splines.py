"""Native cubic splines and their evaluation, held bit for bit to scipy's
``CubicSpline``, ``PPoly`` and LAPACK ``dgtsv``, the oracles they replace."""
import itertools
import os

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PPoly
from scipy.linalg import solve_banded

from conftest import THREADS
from nemclock import langevin, pipeline, readout
from nemclock.langevin import (
    Spline,
    Trajectory,
    _dgtsv,
    _evaluate_compiled,
    _evaluate_numpy,
    _splines,
    column_interpolant,
    not_a_knot_spline,
)
from nemclock.params import default_params
from nemclock.transport import COLUMNS, build_coefficient_table

DRIVE = ("friction", "diffusion", "excess_occupation")


@pytest.fixture(scope="module")
def real_tables():
    """The probe and main tables of V = 5, 50 and 100; V = 5 is below
    threshold and has no probe table."""
    tables = []

    def keep(*args, **kwargs):
        tables.append(build_coefficient_table(*args, **kwargs))
        return tables[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_coefficient_table", keep)
        for voltage in (5.0, 50.0, 100.0):
            params = default_params(voltage)
            keep(params, pipeline.default_grid(params), threads=THREADS)
    assert [t.grid.size for t in tables] == [801, 241, 801, 241, 801]
    return tables


def _random_grids(count, columns):
    """Strongly non-uniform grids with random values, seeded."""
    rng = np.random.default_rng(2024)
    for _ in range(count):
        n = int(rng.integers(4, 40))
        steps = rng.uniform(0.01, 3.0, n) ** rng.uniform(0.5, 4.0)
        yield np.cumsum(steps) - 5.0, rng.standard_normal((n, columns))


def _probe_points(grid, rng):
    """Inside every interval, every node, both ends, beyond both ends, NaN."""
    inside = rng.uniform(grid[0], grid[-1], 200)
    beyond = [grid[0] - 2.5, grid[0] - 1e-9, grid[-1] + 1e-9, grid[-1] + 2.5]
    return np.concatenate([inside, grid, beyond, [np.nan, grid[0], grid[-1]]])


def test_table_splines_equal_scipy(real_tables):
    for table in real_tables:
        columns, drive = _splines(table)
        for name in COLUMNS:
            reference = CubicSpline(table.grid, table.column(name))
            assert np.array_equal(columns[name].x, reference.x)
            assert np.array_equal(columns[name].c, reference.c), name
        stacked = np.stack([columns[name].c for name in DRIVE], axis=-1)
        assert np.array_equal(drive.c, stacked)


@pytest.mark.parametrize("columns", [1, 3])
def test_random_grid_splines_equal_scipy(columns):
    swaps = 0
    for x, y in _random_grids(120, columns):
        # dgtsv swaps rows 0 and 1 when the third spacing beats the second
        swaps += np.diff(x)[2] > np.diff(x)[1]
        spline = not_a_knot_spline(x, y)
        assert spline.c.shape == (4, x.size - 1, columns)
        for j in range(columns):
            assert np.array_equal(spline.c[..., j], CubicSpline(x, y[:, j]).c)
        assert np.array_equal(not_a_knot_spline(x, y[:, 0]).c, CubicSpline(x, y[:, 0]).c)
    assert swaps > 20


def test_dgtsv_equals_lapack_with_row_swaps():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4, 9, 30):
        lower, diag, upper = (rng.standard_normal(n) for _ in range(3))
        diag[::2] *= 0.1  # small pivots, so most steps swap rows
        b = rng.standard_normal((n, 4))
        banded = np.zeros((3, n))
        banded[0, 1:], banded[1], banded[2, :-1] = upper[:-1], diag, lower[:-1]
        ours = _dgtsv(lower[:-1].tolist(), diag.tolist(), upper[:-1].tolist(), b.copy())
        assert np.array_equal(ours, solve_banded((1, 1), banded, b))


@pytest.mark.parametrize("nodes", [2, 3])
def test_short_grids_are_refused(nodes):
    with pytest.raises(ValueError, match="at least 4 nodes"):
        not_a_knot_spline(np.arange(float(nodes)), np.ones(nodes))


def test_evaluation_equals_ppoly_everywhere(real_tables):
    if langevin._kernel() is None:
        pytest.skip("compiled kernel unavailable")
    rng = np.random.default_rng(5)
    for table in real_tables:
        columns, drive = _splines(table)
        points = _probe_points(table.grid, rng)
        oracles = [
            (columns["current"], CubicSpline(table.grid, table.column("current"))),
            (drive, PPoly(drive.c, drive.x)),
        ]
        for spline, oracle in oracles:
            expected = oracle(points)
            assert np.isnan(expected[-3]).all()
            for ours in (_evaluate_numpy(spline, points),
                         _evaluate_compiled(langevin._kernel(), spline, points)):
                assert ours.shape == expected.shape
                np.testing.assert_array_equal(ours, expected)


def test_compiled_evaluation_reads_strided_inputs(real_tables):
    kernel = langevin._kernel()
    if kernel is None:
        pytest.skip("compiled kernel unavailable")
    table = real_tables[-1]
    spline = column_interpolant(table, "current")
    rng = np.random.default_rng(11)
    block = rng.uniform(table.grid[0] - 1.0, table.grid[-1] + 1.0, (6, 50))
    for points in (block, block[::2, 3::7], block[:, ::-1], block.T, block[2],
                   block[None, :, 1::3], block[:, :0], np.float64(block[0, 0])):
        expected = CubicSpline(table.grid, table.column("current"))(points)
        ours = _evaluate_compiled(kernel, spline, points)
        assert ours.shape == np.shape(expected)
        np.testing.assert_array_equal(ours, expected)
        np.testing.assert_array_equal(_evaluate_numpy(spline, points), expected)


def test_spline_call_falls_back_to_numpy(monkeypatch, ou_table):
    spline = column_interpolant(ou_table, "friction")
    points = np.linspace(-13.0, 13.0, 41)
    expected = CubicSpline(ou_table.grid, ou_table.column("friction"))(points)
    np.testing.assert_array_equal(spline(points), expected)
    monkeypatch.setattr(langevin, "_kernel", lambda: None)
    monkeypatch.setattr(langevin, "_evaluate_compiled", None)
    np.testing.assert_array_equal(spline(points), expected)


def test_spline_keeps_contiguous_doubles_of_matching_shape():
    c = np.arange(24.0).reshape(4, 3, 2)[..., 1]
    spline = Spline(np.array([0, 1, 2, 3]), c)
    assert spline.x.dtype == np.float64 and spline.c.flags.c_contiguous
    assert np.array_equal(spline.c, c)
    for x, c in ((np.arange(3.0), c), (np.arange(4.0), c[:3]), (np.zeros(1), np.zeros((4, 0))),
                 (np.arange(4.0), np.zeros((4, 3, 1, 1)))):
        with pytest.raises(ValueError, match="do not fit"):
            Spline(x, c)


def _assert_bitwise(ours, reference):
    """Equal bit for bit where the reference is a number, NaN where it is."""
    nan = np.isnan(reference)
    assert ours.shape == reference.shape
    assert np.array_equal(np.isnan(ours), nan)
    assert np.array_equal(ours[~nan].view(np.uint64), reference[~nan].view(np.uint64))


@pytest.mark.parametrize("columns", [1, 3])
def test_compiled_evaluation_keeps_special_values(columns):
    kernel = langevin._kernel()
    if kernel is None:
        pytest.skip("compiled kernel unavailable")
    # one interval for every choice of the four coefficients from the pool,
    # on a non-uniform grid; column j is column 0 shifted by 7j intervals
    pool = (-0.0, np.inf, -np.inf, np.nan, 1.25, -0.75)
    base = np.array(list(itertools.product(pool, repeat=4))).T
    c = np.stack([np.roll(base, 7 * j, axis=1) for j in range(columns)], axis=-1)
    rng = np.random.default_rng(29)
    x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.25, 2.0, base.shape[1]))])
    spline = Spline(x, c if columns > 1 else c[..., 0])
    # every node (s = 0), every midpoint, below and above the grid, +-inf, NaN
    points = np.concatenate([x, (x[:-1] + x[1:]) / 2,
                             [x[0] - 1.5, x[-1] + 1.5, -np.inf, np.inf, np.nan]])
    with np.errstate(invalid="ignore"):
        reference = _evaluate_numpy(spline, points)
    _assert_bitwise(_evaluate_compiled(kernel, spline, points), reference)
    # the pool's first interval, at 7j in column j, is all -0.0: PPoly's
    # leading 0.0 makes its node value +0.0
    zeros = reference.reshape(points.size, columns)[7 * np.arange(columns), np.arange(columns)]
    assert np.array_equal(zeros.view(np.uint64), np.zeros(columns, np.uint64))
    assert np.isnan(reference).any() and np.isinf(reference).any()


@pytest.mark.skipif(not os.path.exists(langevin._CC), reason="no C compiler")
def test_compiled_evaluation_is_in_use(monkeypatch, ou_table):
    # a broken nemclock_eval build would otherwise pass every oracle test at
    # about 17 times the cost
    assert langevin._kernel() is not None

    def forbidden(*args):
        raise AssertionError("the NumPy spline evaluation ran")

    monkeypatch.setattr(langevin, "_evaluate_numpy", forbidden)
    points = np.linspace(-12.0, 12.0, 41)
    assert column_interpolant(ou_table, "current")(points).shape == (41,)
    record = Trajectory(points, np.stack([points, points[::-1]]))
    assert readout.transduce(record, ou_table).shape == (2, 41)
