"""Ensemble drivers: grid sizing, streaming consumers, corpus assembly."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from nemclock import langevin
from nemclock.clockstats import allan_variance
from nemclock.langevin import SimConfig
from nemclock.params import default_params
from nemclock.pipeline import (
    HistogramAccumulator,
    SeriesAccumulator,
    build_corpus,
    default_grid,
    ensemble_allan,
    pooled_waiting_times,
    run_ensemble,
)
from nemclock.readout import (
    DetectionPolicy,
    TickSeries,
    current_level_maximum,
    detect_ticks,
)
from nemclock.transport import build_coefficient_table, friction_and_diffusion

from conftest import THREADS, make_synthetic_table


# ---------------------------------------------------------------- grid size --


def test_default_grid_zero_force():
    params = replace(default_params(5.0), coupling=0.0)
    grid = default_grid(params)
    thermal = math.sqrt(1.0 / params.inverse_temperature)
    assert grid.x_max == pytest.approx(10.0 * thermal, rel=1e-12)
    assert grid.nodes == 801


def test_default_grid_below_threshold(params5):
    grid = default_grid(params5, nodes=401)
    gamma0, diffusion0 = friction_and_diffusion(0.0, params5)
    assert gamma0 > 0.0
    spread = math.sqrt(diffusion0 / (2.0 * gamma0))
    assert grid.x_max == pytest.approx(10.0 * spread, rel=1e-12)
    assert grid.nodes == 401


def test_default_grid_above_threshold(table100):
    # the span must cover the limit cycle with a generous fluctuation margin:
    # amplitude + 8 amplitude-sigma ~ 55.35 at this operating point
    grid = table100.grid
    assert grid.size == 801
    assert grid[0] == pytest.approx(-grid[-1], rel=1e-14)
    assert np.allclose(np.diff(grid), grid[1] - grid[0], rtol=1e-10)
    amp, gamma_a, d_a = 21.8293, 3.02946e-4, 1.06401e-2
    sigma = math.sqrt(d_a / (2.0 * gamma_a))
    assert grid[-1] == pytest.approx(max(1.5 * amp, amp + 8.0 * sigma), rel=2e-2)


def test_default_grid_at_strong_bias():
    # the probe table spans +-295 here; one shared panel set per 64 positions
    # ran out of its 4096-panel budget, spans sized by the level shift do not
    grid = default_grid(default_params(200.0))
    assert math.isfinite(grid.x_max) and grid.x_max > 0.0


def test_default_grid_beyond_v200():
    params = default_params(300.0)
    grid = default_grid(params)
    assert math.isfinite(grid.x_max) and grid.x_max > 0.0
    assert np.isfinite(build_coefficient_table(params, grid).values).all()


def test_default_grid_at_v500():
    # its probe grid reaches x = -595, where the level is a resonance of
    # half-width 2.8e-3 at E = 297.7
    params = default_params(500.0)
    grid = default_grid(params)
    assert math.isfinite(grid.x_max) and grid.x_max > 0.0
    assert np.isfinite(build_coefficient_table(params, grid).values).all()


# ---------------------------------------------------------------- consumers --


def test_histogram_accumulator_matches_numpy():
    edges = np.linspace(-2.0, 2.0, 9)
    acc = HistogramAccumulator(edges)
    rng = np.random.default_rng(0)
    chunks = [rng.normal(0.0, 0.8, size=(3, n)) for n in (7, 1, 40)]
    for i, xs in enumerate(chunks):
        acc.feed([0, 1, 2], float(i), 0.1, xs)
    flat = np.concatenate([c.ravel() for c in chunks])
    expected, _ = np.histogram(flat, bins=edges)
    np.testing.assert_array_equal(acc.counts, expected)
    assert acc.total == flat.size

    other = HistogramAccumulator(edges)
    other.feed([3], 0.0, 0.1, np.array([[0.1, 0.2]]))
    acc.absorb(other)
    assert acc.total == flat.size + 2
    width = edges[1] - edges[0]
    inside = ((flat >= -2.0) & (flat <= 2.0)).sum() + 2
    assert acc.density().sum() * width == pytest.approx(
        inside / acc.total, rel=1e-12
    )

    with pytest.raises(RuntimeError, match="no samples"):
        HistogramAccumulator(edges).density()


@pytest.mark.parametrize(
    "edges",
    [
        np.linspace(-2.0, 2.0, 9),
        # build_corpus's bins: the nodes of a uniform grid, plus and minus half a step
        np.append(np.linspace(-13.7, 13.7, 41) - 0.685, 13.7 + 0.685),
    ],
)
def test_histogram_accumulator_counts_edges_as_numpy(edges):
    # every edge, its neighbouring doubles, and points outside the grid
    on_edges = np.concatenate([edges, np.nextafter(edges, -np.inf),
                               np.nextafter(edges, np.inf)])
    outside = np.array([edges[0] - 1.0, edges[-1] + 1.0, -np.inf, np.inf, -1e300, 1e300])
    samples = np.concatenate([on_edges, outside, np.repeat(edges[-1], 3)])
    samples = np.random.default_rng(4).permutation(samples)
    acc = HistogramAccumulator(edges)
    for i, chunk in enumerate(np.array_split(samples, 3)):
        acc.feed([0], float(i), 0.1, chunk[None, :])
    expected, _ = np.histogram(samples, bins=edges)
    np.testing.assert_array_equal(acc.counts, expected)
    assert acc.total == samples.size
    # the rule itself: an interior edge opens its bin, the last edge closes
    # the last bin, and nothing outside [edges[0], edges[-1]] is counted
    single = HistogramAccumulator(edges)
    single.feed([0], 0.0, 0.1, edges[None, :])
    np.testing.assert_array_equal(single.counts, [1.0] * (edges.size - 2) + [2.0])
    single.feed([0], 0.0, 0.1, outside[None, :])
    assert single.counts.sum() == edges.size


def test_series_accumulator_stride_alignment():
    out = np.full((10, 5), np.nan)
    acc = SeriesAccumulator(lambda x, v: x**2 - v, stride=3, out=out)
    rng = np.random.default_rng(1)
    full = rng.normal(size=(2, 13))
    vel = rng.normal(size=(2, 13))
    dt = 0.25
    start = 0
    for width in (7, 5, 1):
        chunk = slice(start, start + width)
        acc.feed([4, 9], start * dt, dt, full[:, chunk], vel[:, chunk])
        start += width
    np.testing.assert_array_equal(out[[4, 9]], full[:, ::3] ** 2 - vel[:, ::3])
    others = np.delete(out, [4, 9], axis=0)
    assert np.isnan(others).all()
    with pytest.raises(ValueError, match="stride"):
        SeriesAccumulator(lambda x, v: x, stride=0, out=out)


def test_series_accumulator_absorb_equals_one_instance():
    # two disjoint member blocks in two instances sharing one array, merged,
    # against one instance fed every member
    rng = np.random.default_rng(2)
    full = rng.normal(size=(5, 23))
    one, shared = np.empty((5, 12)), np.empty((5, 12))
    whole = SeriesAccumulator(lambda x, v: np.exp(x), stride=2, out=one)
    first = SeriesAccumulator(lambda x, v: np.exp(x), stride=2, out=shared)
    second = SeriesAccumulator(lambda x, v: np.exp(x), stride=2, out=shared)
    for start, width in ((0, 9), (9, 13), (22, 1)):
        chunk = full[:, start : start + width]
        whole.feed(range(5), start * 0.1, 0.1, chunk, chunk)
        first.feed([0, 1, 2], start * 0.1, 0.1, chunk[:3], chunk[:3])
        second.feed([3, 4], start * 0.1, 0.1, chunk[3:], chunk[3:])
    first.absorb(second)
    np.testing.assert_array_equal(shared, one)


def test_series_accumulator_skips_chunk_without_hits():
    out = np.full((1, 2), np.nan)
    acc = SeriesAccumulator(lambda x, v: x, stride=8, out=out)
    xs = np.array([[1.0, 2.0, 3.0]])
    acc.feed([0], 1.0, 1.0, xs, xs)  # k = 1, 2, 3
    assert np.isnan(out).all()
    xs = np.arange(4.0, 10.0)[None, :]
    acc.feed([0], 4.0, 1.0, xs, xs)  # k = 4..9 hits 8
    np.testing.assert_array_equal(out, [[np.nan, 8.0]])


# ----------------------------------------------------------------- ensemble --


def _short_sim(seed: int, ensemble: int, **kw) -> SimConfig:
    base = dict(
        time_step=0.05,
        burn_in=5.0,
        duration=25.0,
        seed=seed,
        ensemble_size=ensemble,
        record_stride=4,
    )
    base.update(kw)
    return SimConfig(**base)


def test_run_ensemble_thread_invariance(ou_table, params100):
    sim = _short_sim(seed=7, ensemble=18)
    factory = lambda: HistogramAccumulator(np.linspace(-12.0, 12.0, 25))
    serial_traj, serial_cons = run_ensemble(
        ou_table, params100, sim, consumer_factories=[factory], threads=1
    )
    thread_traj, thread_cons = run_ensemble(
        ou_table, params100, sim, consumer_factories=[factory], threads=THREADS
    )
    assert serial_traj.positions.shape == (18, sim.recorded_samples)
    np.testing.assert_array_equal(serial_traj.positions, thread_traj.positions)
    np.testing.assert_array_equal(serial_traj.velocities, thread_traj.velocities)
    np.testing.assert_array_equal(serial_traj.times, thread_traj.times)
    # one consumer per factory, merged over both blocks (16 + 2 members)
    ((serial,), (threaded,)) = serial_cons, thread_cons
    np.testing.assert_array_equal(serial.counts, threaded.counts)
    assert serial.total == threaded.total == 18 * (sim.total_steps - sim.burn_steps + 1)


# ------------------------------------------------------------------- corpus --


@pytest.fixture(scope="module")
def tick_table():
    return make_synthetic_table(
        np.linspace(-12.0, 12.0, 25),
        friction=0.5,
        diffusion=1.0,
        current=lambda x: np.exp(-0.5 * (x - 1.0) ** 2),
        tag="tick",
    )


def test_build_corpus_fields(tick_table, params100):
    sim = _short_sim(seed=11, ensemble=18, duration=205.0)
    corpus = build_corpus(
        tick_table, params100, sim, current_stride=5, threads=THREADS
    )
    # default detection level resolves to the current maximum on the grid
    assert corpus.policy.level == current_level_maximum(tick_table) == 1.0
    assert len(corpus.ticks) == 18
    assert len({row.tobytes() for row in corpus.record.positions}) == 18
    assert all(t.detection_policy.level == 1.0 for t in corpus.ticks)
    assert sum(len(t) for t in corpus.ticks) > 100

    assert corpus.position_count == 18 * (sim.total_steps - sim.burn_steps + 1)
    width = tick_table.grid[1] - tick_table.grid[0]
    assert corpus.position_density.size == tick_table.grid.size
    assert corpus.position_density.sum() * width == pytest.approx(1.0, rel=1e-9)

    assert corpus.current_time_step == pytest.approx(sim.time_step * 5)
    assert len(corpus.currents) == 18
    assert corpus.record.positions.shape == (18, sim.recorded_samples)
    assert len(corpus.ticks) == corpus.record.positions.shape[0]


def test_build_corpus_refuses_a_non_uniform_grid(params100):
    # the density divides every node's count by one bin width, so on nodes
    # denser at the centre it would no longer integrate to 1
    sinh_grid = 12.0 * np.sinh(np.linspace(-2.0, 2.0, 25)) / np.sinh(2.0)
    table = make_synthetic_table(sinh_grid, friction=0.5, diffusion=1.0, tag="sinh")
    sim = _short_sim(seed=11, ensemble=2, duration=80.0)
    with pytest.raises(ValueError, match="uniform grid"):
        build_corpus(table, params100, sim)


def test_build_corpus_current_stride_slices_full_series(tick_table, params100):
    sim = _short_sim(seed=11, ensemble=2, duration=80.0)
    fine = build_corpus(tick_table, params100, sim, current_stride=1)
    coarse = build_corpus(tick_table, params100, sim, current_stride=5)
    for k in range(2):
        np.testing.assert_array_equal(coarse.currents[k], fine.currents[k][::5])
    assert fine.current_time_step == pytest.approx(sim.time_step)


def test_build_corpus_deterministic_and_thread_invariant(tick_table, params100):
    sim = _short_sim(seed=11, ensemble=18, duration=105.0)
    one = build_corpus(tick_table, params100, sim, current_stride=4, threads=1)
    many = build_corpus(
        tick_table, params100, sim, current_stride=4, threads=THREADS
    )
    for a, b in zip(one.ticks, many.ticks):
        np.testing.assert_array_equal(a.tick_times, b.tick_times)
    np.testing.assert_array_equal(one.position_density, many.position_density)
    for a, b in zip(one.currents, many.currents):
        np.testing.assert_array_equal(a, b)


def test_build_corpus_explicit_policy_and_trajectories(tick_table, params100):
    sim = _short_sim(seed=11, ensemble=3, duration=60.0)
    policy = DetectionPolicy(level=0.5, refractory=0.3)
    corpus = build_corpus(tick_table, params100, sim, policy=policy)
    assert corpus.policy.level == 0.5
    assert corpus.policy.refractory == 0.3
    assert corpus.record.positions.shape == (3, sim.recorded_samples)
    assert corpus.record.velocities.shape == (3, sim.recorded_samples)
    assert corpus.currents is None and corpus.current_time_step is None


def test_build_corpus_currents_are_written_in_place(tick_table, params100):
    # the current series is written into the array it is returned as, so
    # building it costs about that array, not a second copy of it
    sim = _short_sim(
        seed=11, ensemble=2, duration=5.0 + 200_000 * 0.05, record_stride=1000
    )
    tracemalloc.start()
    try:
        corpus = build_corpus(tick_table, params100, sim, current_stride=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert corpus.currents.shape == (2, 200_001)
    assert peak < 1.5 * corpus.currents.nbytes


def test_build_corpus_does_not_depend_on_chunk_layout(
    monkeypatch, tick_table, params100
):
    # chunks restart where the burn-in ends; that is safe because the noise
    # streams, and so every output, do not depend on where chunks are cut
    sim = _short_sim(
        seed=13, ensemble=3, burn_in=60.15, duration=560.0, record_stride=3
    )
    assert sim.burn_steps > 1000 and sim.burn_steps % 1000 != 0
    default = build_corpus(tick_table, params100, sim, current_stride=2)
    monkeypatch.setattr(langevin, "CHUNK_STEPS", 1000)
    small = build_corpus(tick_table, params100, sim, current_stride=2)
    np.testing.assert_array_equal(small.record.positions, default.record.positions)
    np.testing.assert_array_equal(small.record.velocities, default.record.velocities)
    np.testing.assert_array_equal(small.currents, default.currents)
    np.testing.assert_array_equal(small.position_density, default.position_density)
    assert sum(len(t) for t in default.ticks) > 50
    for a, b in zip(small.ticks, default.ticks, strict=True):
        np.testing.assert_array_equal(a.tick_times, b.tick_times)


def test_build_corpus_ticks_equal_batch_detection(tick_table, params100):
    # several 4096-step chunks, so chunk offsets would show in the tick times
    sim = _short_sim(seed=11, ensemble=3, duration=1000.0, record_stride=1)
    corpus = build_corpus(tick_table, params100, sim)
    assert sim.total_steps > 4 * 4096
    batches = detect_ticks(corpus.record, tick_table, corpus.policy)
    assert len(batches) == len(corpus.ticks) == 3
    for ticks, batch in zip(corpus.ticks, batches):
        assert len(ticks) > 100
        np.testing.assert_array_equal(ticks.tick_times, batch.tick_times)


# ------------------------------------------------------------- aggregation --


def _ticks(times) -> TickSeries:
    return TickSeries(
        tick_times=np.asarray(times, dtype=float),
        detection_policy=DetectionPolicy(level=0.0, refractory=0.1),
    )


def test_pooled_waiting_times_never_crosses_members():
    pooled = pooled_waiting_times(
        [_ticks([0.0, 1.0, 3.0]), _ticks([10.0, 14.0]), _ticks([99.0])]
    )
    np.testing.assert_allclose(np.sort(pooled), [1.0, 2.0, 4.0])
    with pytest.raises(ValueError, match="two ticks"):
        pooled_waiting_times([_ticks([5.0]), _ticks([])])


def test_ensemble_allan_is_member_mean():
    rng = np.random.default_rng(5)
    members = [
        _ticks(np.cumsum(0.2 + rng.exponential(1.8, size=400)))
        for _ in range(3)
    ]
    T_values = [8.0, 32.0]
    pooled = ensemble_allan(members, 2.0, T_values)
    for j, (T, value) in enumerate(pooled):
        assert T == T_values[j]
        singles = [
            allan_variance(m, 2.0, [T])[0][1] for m in members
        ]
        assert value == pytest.approx(np.mean(singles), rel=1e-12)
    with pytest.raises(ValueError, match="empty"):
        ensemble_allan([], 2.0, [8.0])
