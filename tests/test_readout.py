"""Tick detection: crossing geometry on synthetic signals, refractory
filtering, streaming/batch agreement, and current transduction."""
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from conftest import make_synthetic_table
from nemclock import langevin
from nemclock.langevin import ExcursionError, Trajectory
from nemclock.readout import (
    DetectionPolicy,
    TickAccumulator,
    TickSeries,
    current_level_maximum,
    detect_ticks,
    transduce,
)

TWO_PI = 2.0 * math.pi


def _traj(times, *rows):
    """A record with one row per position series, all on ``times``."""
    times = np.asarray(times, dtype=float)
    positions = np.array(rows, dtype=float)
    return Trajectory(
        times=times,
        positions=positions,
        velocities=(
            np.gradient(positions, times, axis=1) if times.size > 1 else positions * 0.0
        ),
    )


def _sine(periods=20, dt=math.pi / 500, amplitude=1.0, phase=0.3):
    t = np.arange(0.0, periods * TWO_PI, dt)
    return t, amplitude * np.sin(t + phase)


# ----------------------------------------------------------------- policy --


def test_policy_validation():
    with pytest.raises(ValueError):
        DetectionPolicy(refractory=-0.1)
    assert DetectionPolicy().level is None


def test_tick_series_validation():
    policy = DetectionPolicy(level=0.0, refractory=0.5)
    series = TickSeries(
        tick_times=[0.0, 1.0, 2.5], detection_policy=policy
    )
    assert len(series) == 3
    with pytest.raises(ValueError, match="strictly increasing"):
        TickSeries(tick_times=[0.0, 2.0, 1.0], detection_policy=policy)
    with pytest.raises(ValueError, match="refractory"):
        TickSeries(tick_times=[0.0, 0.2], detection_policy=policy)
    for times in ([math.nan], [math.inf], [1.0, math.inf], [-math.inf, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            TickSeries(tick_times=times, detection_policy=policy)


# -------------------------------------------------------------- crossings --


def _noise_free_table():
    return make_synthetic_table(
        np.linspace(-4.0, 4.0, 9), friction=0.0, diffusion=0.0, tag="flat"
    )


def test_sinusoid_ticks_every_half_period():
    t, x = _sine()
    (series,) = detect_ticks(_traj(t, x), _noise_free_table(), DetectionPolicy(level=0.0))
    # both-direction zero crossings of a sinusoid: one tick per half period
    waits = np.diff(series.tick_times)
    assert waits.size >= 38
    np.testing.assert_allclose(waits, math.pi, atol=1e-5)
    # crossing instants sit on the zeros of sin(t + phase)
    expected_first = math.pi - 0.3
    assert series.tick_times[0] == pytest.approx(expected_first, abs=1e-5)


def test_refractory_window_thins_ticks():
    t, x = _sine()
    (base,) = detect_ticks(_traj(t, x), _noise_free_table(), DetectionPolicy(level=0.0))
    # a dead time longer than the true half-period keeps every other crossing
    (thinned,) = detect_ticks(
        _traj(t, x), _noise_free_table(), DetectionPolicy(level=0.0, refractory=1.2 * math.pi)
    )
    assert thinned.tick_times.size == pytest.approx(base.tick_times.size / 2, abs=1)
    np.testing.assert_allclose(np.diff(thinned.tick_times), TWO_PI, atol=1e-5)


def test_small_jitter_does_not_split_ticks():
    t, x = _sine()
    rng = np.random.Generator(np.random.Philox(99))
    noisy = x + 1e-3 * rng.standard_normal(x.size)
    (clean,) = detect_ticks(_traj(t, x), _noise_free_table(), DetectionPolicy(level=0.0))
    (jittered,) = detect_ticks(
        _traj(t, noisy), _noise_free_table(), DetectionPolicy(level=0.0)
    )
    assert jittered.tick_times.size == clean.tick_times.size
    assert np.min(np.diff(jittered.tick_times)) >= DetectionPolicy().refractory


def test_crossing_interpolation_is_linear_between_samples():
    # a coarse saw-like signal with known crossing fractions
    times = np.array([0.0, 1.0, 2.0, 3.0])
    positions = np.array([-1.0, 3.0, -3.0, 1.0])
    (series,) = detect_ticks(
        _traj(times, positions),
        _noise_free_table(),
        DetectionPolicy(level=0.0, refractory=0.0),
    )
    np.testing.assert_allclose(series.tick_times, [0.25, 1.5, 2.75])


def test_default_level_resolves_to_current_argmax():
    table = make_synthetic_table(
        np.linspace(-12.0, 12.0, 25),
        friction=0.0,
        diffusion=0.0,
        current=lambda x: math.exp(-((x - 1.0) ** 2)),
        tag="peaked",
    )
    assert current_level_maximum(table) == 1.0
    t, x = _sine(amplitude=3.0)
    (series,) = detect_ticks(_traj(t, x), table)
    assert series.detection_policy.level == 1.0
    # crossings of level 1 on a 3sin(t): sin = 1/3 upward and downward
    target = math.asin(1.0 / 3.0)
    first_two = series.tick_times[:2] + 0.3
    np.testing.assert_allclose(first_two, [target, math.pi - target], atol=1e-4)


def test_streaming_matches_batch():
    t, x = _sine(periods=13)
    (batch,) = detect_ticks(_traj(t, x), _noise_free_table(), DetectionPolicy(level=0.0))
    acc = TickAccumulator(level=0.0, refractory=DetectionPolicy().refractory)
    dt = t[1] - t[0]
    bounds = [0, 7, 100, 101, 350, 2000, 4001, x.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        acc.feed([4], t[lo], dt, x[None, lo:hi])
    np.testing.assert_array_equal(acc.tick_times(4), batch.tick_times)


def test_detect_ticks_gives_each_row_its_own_series():
    # one feed over three rows ticks each row as a record of that row alone
    t, _ = _sine(periods=6)
    rows = [np.sin(t + phase) for phase in (0.1, 1.9, 4.0)]
    policy = DetectionPolicy(level=0.0)
    together = detect_ticks(_traj(t, *rows), _noise_free_table(), policy)
    assert len(together) == 3
    for row, series in zip(rows, together):
        (alone,) = detect_ticks(_traj(t, row), _noise_free_table(), policy)
        assert len(series) >= 10
        np.testing.assert_array_equal(series.tick_times, alone.tick_times)
    assert not np.array_equal(together[0].tick_times, together[1].tick_times)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_detect_ticks_refuses_a_non_finite_sample(bad):
    # a record read back from outside the program: one damaged sample would
    # time a crossing NaN and silence the rest of its member's ticks
    t, x = _sine(periods=6)
    damaged = x.copy()
    damaged[100] = bad
    record = Trajectory(times=t, positions=np.array([x, damaged]))
    with pytest.raises(ExcursionError) as info:
        detect_ticks(record, _noise_free_table(), DetectionPolicy(level=0.0))
    assert (info.value.index, info.value.time) == (1, t[100])
    # a larger table cannot mend a damaged sample, so the advice names the record
    assert "not a finite position: the record is damaged" in str(info.value)
    assert "enlarge" not in str(info.value)


def test_absorb_of_disjoint_blocks_equals_one_accumulator():
    # members 0-2 and 3-4 in two instances, merged, against one instance
    # fed all five; every member ticks across the chunk boundaries
    t, _ = _sine(periods=6)
    x = np.stack([np.sin(t + phase) for phase in (0.1, 0.7, 1.9, 2.6, 4.0)])
    dt = t[1] - t[0]
    refractory = DetectionPolicy().refractory
    whole = TickAccumulator(level=0.0, refractory=refractory)
    first = TickAccumulator(level=0.0, refractory=refractory)
    second = TickAccumulator(level=0.0, refractory=refractory)
    bounds = [0, 333, 1500, x.shape[1]]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        whole.feed(range(5), t[lo], dt, x[:, lo:hi])
        first.feed([0, 1, 2], t[lo], dt, x[:3, lo:hi])
        second.feed([3, 4], t[lo], dt, x[3:, lo:hi])
    first.absorb(second)
    for idx in range(5):
        assert whole.tick_times(idx).size >= 10
        np.testing.assert_array_equal(first.tick_times(idx), whole.tick_times(idx))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _at_level():
    # samples exactly on the level, and the doubles next to it
    below = np.nextafter(0.5, -np.inf)
    row = np.array([0.0, 0.5, 0.5, 0.2, 0.5, 1.0, 0.5, below, 0.5, below, 1.0])
    x = np.stack([row, row[::-1], -row])
    return 0.5, 0.0, [([0, 1, 2], 0.0, 0.25, x[:, :4]), ([0, 1, 2], 1.0, 0.25, x[:, 4:])]


def _non_finite():
    # a NaN crossing time is kept when the row has no tick yet, and then
    # every later one fails the refractory test against it
    x = np.array([
        [0.0, 1.0, np.nan, 1.0, 0.0, np.inf, 0.0, -np.inf, 1.0, 0.0, 1.0],
        [np.nan, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
        [np.inf, -np.inf, np.inf, 0.0, np.nan, np.nan, 1.0, -np.inf, 0.0, 1e300, -1e300],
    ])
    return 0.5, 0.25, [([0, 1, 2], 0.0, 0.5, x[:, :5]), ([0, 1, 2], 2.5, 0.5, x[:, 5:])]


def _refractory_across_seams():
    # quick re-crossings a few samples after a chunk's last crossing, in the
    # next chunk, fall inside the window; later ones do not
    row = np.tile([0.4, 0.6, 0.4, 0.6, 0.4, 0.4, 0.4, 0.6, 0.6, 0.6], 8)
    x = np.stack([row, np.roll(row, 3)])
    seams = [0, 2, 9, 10, 33, 34, 61, x.shape[1]]
    return 0.5, 0.35, [([7, 3], 0.1 * lo, 0.1, x[:, lo:hi])
                       for lo, hi in zip(seams, seams[1:])]


def _late_members_and_final_column():
    # member 2 joins at the second feed with no previous sample, the rows
    # come in another order, and the last feed is a one-column view
    t, _ = _sine(periods=3, dt=0.05)
    rows = np.stack([np.sin(t + phase) for phase in (0.2, 1.1, 2.9)])
    final = rows[:, -1]
    return 0.0, 0.3, [
        ([0, 1], 0.0, 0.05, rows[:2, :150]),
        ([2, 0, 1], 7.5, 0.05, rows[[2, 0, 1], 150:-1]),
        ([2, 0, 1], 0.05 * (t.size - 1), 0.05, final[[2, 0, 1]][:, None]),
    ]


def _strided_views():
    t, _ = _sine(periods=4, dt=0.02)
    block = np.stack([np.cos(t + phase) for phase in (0.0, 0.4, 0.8, 1.2)])
    return 0.3, 0.2, [
        ([0, 1], 0.0, 0.04, block[::2, :400:2]),                  # strided rows and columns
        ([0, 1], 8.0, 0.04, np.asfortranarray(block[::2, 400::2])),
        ([5, 6, 7], 0.0, 0.02, np.asfortranarray(block[1:, :900])),  # rows one element apart
    ]


def _quantized_walk():
    # a random walk on a lattice that holds the level, cut at random seams
    rng = np.random.default_rng(17)
    x = 0.25 * np.cumsum(rng.integers(-1, 2, (5, 3000)), axis=1)
    seams = [0, *np.sort(rng.choice(np.arange(1, 3000), 40, replace=False)), 3000]
    return 0.5, 0.3, [(range(5), 0.1 * lo, 0.1, x[:, lo:hi])
                      for lo, hi in zip(seams, seams[1:])]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "case",
    [_at_level, _non_finite, _refractory_across_seams, _late_members_and_final_column,
     _strided_views, _quantized_walk],
    ids=["at-level", "non-finite", "refractory-across-seams",
         "late-members-final-column", "strided-views", "quantized-walk"],
)
def test_compiled_crossings_equal_numpy_bitwise(case):
    if langevin._kernel() is None:
        pytest.skip("compiled kernel unavailable")
    level, refractory, feeds = case()
    compiled = TickAccumulator(level=level, refractory=refractory)
    reference = TickAccumulator(level=level, refractory=refractory)
    for indices, t0, dt, xs in feeds:
        compiled.feed(indices, t0, dt, xs)
        reference._feed_numpy(indices, t0, dt, xs)
    assert sum(map(len, reference._ticks.values())) > 0
    assert compiled._ticks.keys() == reference._ticks.keys()
    for idx, ticks in reference._ticks.items():
        assert np.array_equal(_bits(compiled._ticks[idx]), _bits(ticks))
    assert compiled._prev.keys() == reference._prev.keys()
    for idx, state in reference._prev.items():
        assert np.array_equal(_bits(compiled._prev[idx]), _bits(state))


def test_empty_trajectory_yields_empty_series():
    traj = Trajectory(
        times=np.empty(0),
        positions=np.empty((1, 0)),
        velocities=np.empty((1, 0)),
    )
    (series,) = detect_ticks(traj, _noise_free_table(), DetectionPolicy(level=0.0))
    assert len(series) == 0
    assert series.tick_times.size == 0


def test_no_crossings_when_signal_stays_below_level():
    t = np.linspace(0.0, 10.0, 200)
    (series,) = detect_ticks(
        _traj(t, 0.1 * np.sin(t)),
        _noise_free_table(),
        DetectionPolicy(level=2.0),
    )
    assert len(series) == 0


# ------------------------------------------------------------ transduction --


def _tanh_table():
    return make_synthetic_table(
        np.linspace(-5.0, 5.0, 41),
        friction=0.0,
        diffusion=0.0,
        current=lambda x: 2.0 + math.tanh(x),
        tag="tanh",
    )


def test_transduce_interpolates_current_column():
    table = _tanh_table()
    t, x = _sine(periods=3, amplitude=2.0)
    (signal,) = transduce(_traj(t, x), table)
    reference = CubicSpline(table.grid, table.column("current"))(x)
    np.testing.assert_array_equal(signal, reference)
    # cubic interpolation of a smooth profile on a fine grid is accurate
    np.testing.assert_allclose(signal, 2.0 + np.tanh(x), atol=1e-4)


def test_transduce_rejects_out_of_grid_positions():
    table = make_synthetic_table(
        np.linspace(-1.0, 1.0, 11), friction=0.0, diffusion=0.0, tag="narrow"
    )
    t, x = _sine(periods=2, amplitude=3.0)
    inside = [0.5 * np.sin(t + k) for k in range(7)]
    with pytest.raises(ExcursionError) as info:
        transduce(_traj(t, *inside, x), table)
    assert info.value.index == 7
    assert abs(info.value.position) > 1.0
    # the first sample of member 7 off the grid, at its real time
    first = int(np.argmax(np.abs(x) > 1.0))
    assert info.value.time == t[first]
    assert info.value.position == x[first]
    assert str(info.value) == (
        f"member 7 left the coefficient grid at t={t[first]:.6g}, "
        f"x={x[first]:.6g}; enlarge the table range"
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_transduce_rejects_non_finite_positions(bad):
    # NaN fails every comparison, so "off the grid" is "not inside it"
    table = make_synthetic_table(
        np.linspace(-1.0, 1.0, 11), friction=0.0, diffusion=0.0, tag="narrow"
    )
    t = np.arange(4.0)
    x = np.full(4, 0.5)
    x[2] = bad
    record = Trajectory(times=t, positions=np.array([np.zeros(4), x]))
    with pytest.raises(ExcursionError) as info:
        transduce(record, table)
    assert (info.value.index, info.value.time) == (1, 2.0)
    np.testing.assert_equal(info.value.position, bad)
    assert str(info.value) == (
        f"member 1 has x={bad:.6g} at t=2, not a finite position: the record "
        f"is damaged or the integration diverged, and no table range can mend that"
    )


@pytest.mark.parametrize("compiled", [True, False])
def test_transduce_into_the_positions_equals_the_allocating_path(monkeypatch, compiled):
    # the CLI transduces into the record's own positions; every value is
    # read before it is overwritten, on the kernel and on its NumPy fallback
    if compiled and langevin._kernel() is None:
        pytest.skip("compiled kernel unavailable")
    if not compiled:
        monkeypatch.setattr(langevin, "_kernel", lambda: None)
    table = _tanh_table()
    t, x = _sine(periods=3, amplitude=2.0)
    record = _traj(t, x, 0.5 * x[::-1], -x)
    expected = transduce(record, table)
    apart = np.empty_like(record.positions)
    assert transduce(record, table, out=apart) is apart
    positions = record.positions.copy()
    assert transduce(Trajectory(t, positions), table, out=positions) is positions
    for got in (apart, positions):
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_transduce_refuses_an_out_it_cannot_write():
    table = _tanh_table()
    t, x = _sine(periods=1)
    record = _traj(t, x, x)
    for out in (np.empty((2, t.size), dtype=np.float32), np.empty((2, t.size + 1)),
                np.empty((t.size, 2)).T):
        with pytest.raises(ValueError, match="out must be"):
            transduce(record, table, out=out)
    frozen = np.empty((2, t.size))
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="out must be"):
        transduce(record, table, out=frozen)


@pytest.mark.parametrize("bad", [3.0, -3.0, math.nan, math.inf, -math.inf])
def test_transduce_in_place_refuses_as_the_allocating_path(bad):
    # the min/max screen only decides whether to look for the sample: the
    # error names the first bad one in row order, and nothing is written
    table = make_synthetic_table(
        np.linspace(-1.0, 1.0, 11), friction=0.0, diffusion=0.0, tag="narrow"
    )
    t = np.arange(6.0)
    positions = np.array([np.full(6, 0.25), [0.5, 0.5, bad, 0.5, bad, 0.5],
                          [bad, 0.5, 0.5, 0.5, 0.5, 0.5]])
    errors = []
    for out in (None, positions):
        kept = positions.copy()
        with pytest.raises(ExcursionError) as info:
            transduce(Trajectory(times=t, positions=positions), table, out=out)
        errors.append(str(info.value))
        assert (info.value.index, info.value.time) == (1, 2.0)
        np.testing.assert_equal(info.value.position, bad)
        assert np.array_equal(positions, kept, equal_nan=True)
    assert errors[0] == errors[1]
