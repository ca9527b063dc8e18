"""Stochastic integrator: determinism, physics checks against closed forms
on synthetic coefficient tables, step-size consistency, interpolation, and
the compiled step loop against the NumPy reference loop."""
import ctypes
import math
import os
import re
import subprocess
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import THREADS, make_synthetic_table
from nemclock import langevin, transport
from nemclock.langevin import (
    CHUNK_STEPS,
    ExcursionError,
    SeriesAccumulator,
    SimConfig,
    column_interpolant,
    run_ensemble,
    _integrate_block,
)
from nemclock.params import AdiabaticityWarning, default_params
from nemclock.transport import GridSpec, build_coefficient_table

TWO_PI = 2.0 * math.pi


def _sim(periods, *, burn=0.0, seed=7, members=1, stride=1, dt=math.pi / 100):
    return SimConfig(
        time_step=dt,
        burn_in=burn * TWO_PI,
        duration=(burn + periods) * TWO_PI,
        seed=seed,
        ensemble_size=members,
        record_stride=stride,
    )


# ------------------------------------------------------------ bookkeeping --


def test_config_validation():
    valid = dict(time_step=0.1, burn_in=1.0, duration=5.0, seed=0,
                 ensemble_size=1, record_stride=1)
    SimConfig(**valid)
    with pytest.raises(ValueError):
        SimConfig(**{**valid, "time_step": 0.0})
    with pytest.raises(ValueError):
        SimConfig(**{**valid, "burn_in": 10.0, "duration": 5.0})
    with pytest.raises(ValueError):
        SimConfig(**{**valid, "ensemble_size": 0})
    with pytest.raises(ValueError):
        SimConfig(**{**valid, "record_stride": 0})


def test_recording_grid(ou_table, params100):
    sim = _sim(4, burn=2, stride=7)
    traj = run_ensemble(ou_table, params100, sim)[0]
    n_expected = (sim.total_steps - sim.burn_steps) // 7 + 1
    assert traj.positions.shape == traj.velocities.shape == (1, traj.times.size)
    assert traj.times.size == n_expected
    assert traj.times[0] == 0.0
    assert traj.sample_spacing == pytest.approx(7 * sim.time_step)
    np.testing.assert_allclose(np.diff(traj.times), 7 * sim.time_step)


def test_record_times_equal_the_run_record_times(ou_table, params100):
    # ensemble.npz stores no times: a record read back takes the config's
    sim = _sim(4, burn=2, stride=7)
    record = run_ensemble(ou_table, params100, sim)[0]
    np.testing.assert_array_equal(sim.record_times(), record.times)
    np.testing.assert_array_equal(
        sim.record_times(), np.arange(record.times.size) * (sim.time_step * 7)
    )
    assert langevin.Trajectory(sim.record_times(), record.positions).velocities is None


def test_determinism_same_seed(ou_table, params100):
    sim = _sim(5, seed=123)
    a = run_ensemble(ou_table, params100, sim)[0]
    b = run_ensemble(ou_table, params100, sim)[0]
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.velocities, b.velocities)
    c = run_ensemble(ou_table, params100, _sim(5, seed=124))[0]
    assert not np.array_equal(a.positions, c.positions)


def test_ensemble_members_are_distinct_and_thread_invariant(ou_table, params100):
    sim = _sim(3, seed=11, members=5)
    serial = run_ensemble(ou_table, params100, sim, threads=1)[0]
    threaded = run_ensemble(ou_table, params100, sim, threads=THREADS)[0]
    assert serial.positions.shape[0] == threaded.positions.shape[0] == 5
    np.testing.assert_array_equal(serial.positions, threaded.positions)
    np.testing.assert_array_equal(serial.velocities, threaded.velocities)
    rows = {row.tobytes() for row in serial.positions}
    assert len(rows) == 5
    assert not np.array_equal(serial.positions[0], serial.positions[1])


# ---------------------------------------------------------------- physics --


def test_symplectic_harmonic_motion(params100):
    # zero friction, zero noise: plain harmonic motion; the kick-then-drift
    # update preserves energy to O(dt) over many periods and tracks phase
    table = make_synthetic_table(
        np.linspace(-8.0, 8.0, 17), friction=0.0, diffusion=0.0, tag="harmonic"
    )
    sim = _sim(50, seed=3, dt=math.pi / 200)
    traj = run_ensemble(table, params100, sim)[0]
    x, v = traj.positions[0], traj.velocities[0]
    x0, v0 = x[0], v[0]
    energy = 0.5 * v**2 + 0.5 * x**2
    assert np.all(np.abs(energy / energy[0] - 1.0) < 0.02)
    exact = x0 * np.cos(traj.times) + v0 * np.sin(traj.times)
    amp = math.hypot(x0, v0)
    assert np.max(np.abs(x - exact)) < 0.05 * amp


def test_ring_down_energy_monotone(params100):
    table = make_synthetic_table(
        np.linspace(-8.0, 8.0, 17), friction=0.1, diffusion=0.0, tag="damped"
    )
    sim = _sim(30, seed=5)
    traj = run_ensemble(table, params100, sim)[0]
    period_samples = int(round(TWO_PI / traj.sample_spacing))
    boundaries = np.arange(0, traj.times.size, period_samples)
    energy = (
        0.5 * traj.velocities[0, boundaries] ** 2
        + 0.5 * traj.positions[0, boundaries] ** 2
    )
    assert np.all(np.diff(energy) < 0.0)


def test_ou_stationary_variance(ou_table, params100):
    # constant friction 0.5 and diffusion 1.0: Var[x] = D/(2 m^2 gamma w0^2)
    sim = _sim(150, burn=10, seed=29, members=8)
    members = run_ensemble(ou_table, params100, sim, threads=THREADS)[0]
    pooled = members.positions.ravel()
    assert pooled.var() == pytest.approx(1.0, rel=0.02)
    # velocity variance matches the same stationary level: Var[v] = D/(2 m^2 gamma)
    pooled_v = members.velocities.ravel()
    assert pooled_v.var() == pytest.approx(1.0, rel=0.02)


def test_negative_friction_escapes_grid(params100):
    table = make_synthetic_table(
        np.linspace(-3.0, 3.0, 13), friction=-0.2, diffusion=0.0, tag="growth"
    )
    with pytest.raises(ExcursionError) as info:
        run_ensemble(table, params100, _sim(60, seed=2))
    err = info.value
    assert err.time > 0.0
    assert abs(err.position) > 3.0
    assert err.index == 0


def test_step_halving_shared_noise(ou_table, params100):
    # the same Brownian path at two resolutions: pairing fine normals so the
    # per-step Wiener increments agree keeps the two solutions close
    periods = 10
    coarse = _sim(periods, seed=0, dt=math.pi / 100)
    fine = _sim(periods, seed=0, dt=math.pi / 200)
    rng = np.random.Generator(np.random.Philox(20240817))
    init = rng.standard_normal((1, 2))
    fine_noise = rng.standard_normal((1, fine.total_steps))

    def fine_source(indices, start, n):
        if start == -1:
            return init
        return fine_noise[:, start : start + n]

    def coarse_source(indices, start, n):
        if start == -1:
            return init
        pairs = fine_noise[:, 2 * start : 2 * (start + n)]
        return (pairs[:, 0::2] + pairs[:, 1::2]) / math.sqrt(2.0)

    xs_c, *_ = _block(ou_table, params100, coarse, [0], noise_source=coarse_source)
    xs_f, *_ = _block(ou_table, params100, fine, [0], noise_source=fine_source)
    shared = xs_f[0, ::2]
    rms_diff = np.sqrt(np.mean((xs_c[0] - shared) ** 2))
    rms_scale = np.sqrt(np.mean(shared**2))
    assert rms_diff < 0.05 * rms_scale


def test_thermal_equilibrium_statistics(params100):
    # detailed-balance synthetic table: FDT pair gamma = 0.3, D = 2*gamma/beta
    beta = params100.inverse_temperature
    table = make_synthetic_table(
        np.linspace(-20.0, 20.0, 33),
        friction=0.3,
        diffusion=2.0 * 0.3 / beta,
        tag="thermal",
    )
    sim = _sim(200, burn=20, seed=41, members=8)
    members = run_ensemble(table, params100, sim, threads=THREADS)[0]
    pooled = members.positions.ravel()
    # equipartition: Var[x] = 1/(beta m w0^2) = 10
    assert pooled.mean() == pytest.approx(0.0, abs=3.0 * 10.0 / math.sqrt(200.0))
    assert pooled.var() == pytest.approx(1.0 / beta, rel=0.05)


# ----------------------------------------------------------- interpolation --


def test_interpolate_node_exactness(ou_table):
    friction = column_interpolant(ou_table, "friction")
    diffusion = column_interpolant(ou_table, "diffusion")
    for i in (0, 5, 12, 24):
        x = float(ou_table.grid[i])
        assert friction(x) == pytest.approx(0.5, rel=1e-12)
        assert diffusion(x) == pytest.approx(1.0, rel=1e-12)


def test_interpolation_converges_with_grid_refinement(params100):
    coarse = build_coefficient_table(params100, GridSpec(x_max=5.0, nodes=41))
    fine = build_coefficient_table(params100, GridSpec(x_max=5.0, nodes=401))
    for name in ("friction", "diffusion", "excess_occupation", "current"):
        spline = column_interpolant(coarse, name)
        exact = fine.column(name)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(spline(fine.grid) - exact)) < 1e-6 * scale


# ------------------------------------------------- compiled kernel oracle --


class _Recorder:
    """Consumer that keeps a copy of every feed call; absorbing another
    block's recorder appends its calls, so a merged log is in block order."""

    def __init__(self):
        self.calls = []

    def feed(self, indices, t0, dt, xs, vs):
        self.calls.append((list(indices), t0, dt, np.array(xs), np.array(vs)))

    def absorb(self, other):
        self.calls.extend(other.calls)


def _block(table, params, sim, indices, noise_source=None):
    """One block's recorded positions and velocities (a row per index, in
    ``indices`` order), its final (x, v) and its feed log."""
    rec = _Recorder()
    xs = np.empty((max(indices) + 1, sim.recorded_samples))
    vs = np.empty_like(xs)
    record = (
        SeriesAccumulator(lambda x, v: x, sim.record_stride, xs),
        SeriesAccumulator(lambda x, v: v, sim.record_stride, vs),
    )
    final = _integrate_block(
        table, params, sim, indices, consumers=(*record, rec),
        noise_source=noise_source,
    )
    return xs[indices], vs[indices], final, rec.calls


def _ensemble(table, params, sim):
    record, consumers = run_ensemble(
        table, params, sim, consumer_factories=[_Recorder]
    )
    paths = (record.times, record.positions, record.velocities)
    (rec,) = consumers
    return paths, rec.calls


def _both_ways(monkeypatch, run):
    """``run()`` on the compiled kernel, then on the NumPy reference loop."""
    if langevin._kernel() is None:
        pytest.skip("compiled stepper unavailable")
    fast = run()
    with monkeypatch.context() as mp:
        mp.setattr(langevin, "_kernel", lambda: None)
        reference = run()
    return fast, reference


def _assert_identical(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for one, two in zip(a, b):
            _assert_identical(one, two)
    else:
        assert a == b


def _initial_state(x0, v0):
    """A noise source that starts each row at exactly (x0, v0) under the
    default_params(100) thermal scales and then draws Philox noise."""
    scale = math.sqrt(10.0)  # 1/sqrt(beta m w0^2) = 1/sqrt(beta m)
    init = np.column_stack([np.asarray(x0) / scale, np.asarray(v0) / scale])
    assert np.array_equal(init[:, 0] * scale, x0)
    rng = np.random.Generator(np.random.Philox(99))
    noise = rng.standard_normal((init.shape[0], 100_000))

    def source(indices, start, n):
        return init if start == -1 else noise[:, start : start + n]

    return source


@pytest.fixture(scope="module")
def rough_table():
    """Position-dependent columns on a strongly non-uniform grid."""
    grid = 12.0 * np.sinh(np.linspace(-3.0, 3.0, 41)) / math.sinh(3.0)
    return make_synthetic_table(
        grid,
        friction=lambda x: 0.3 + 0.1 * math.cos(x),
        diffusion=lambda x: 1.0 + 0.5 * math.sin(x) ** 2,
        excess=lambda x: math.tanh(x),
        tag="rough",
    )


def test_kernel_matches_reference_across_chunks(monkeypatch, rough_table, params100):
    # 9000 steps; the burn-in ends 904 steps into the second chunk, where a
    # chunk restarts, so the 4000 recorded steps are one chunk
    sim = _sim(20, burn=25, seed=31, members=3, stride=7)
    assert sim.total_steps > 2 * CHUNK_STEPS
    assert sim.burn_steps % CHUNK_STEPS not in (0, sim.burn_steps)
    fast, ref = _both_ways(
        monkeypatch, lambda: _block(rough_table, params100, sim, [4, 0, 9])
    )
    _assert_identical(fast, ref)
    assert len(fast[3]) == 2  # one chunk feed and the final state


def test_kernel_matches_reference_across_recorded_chunks(
    monkeypatch, rough_table, params100
):
    # 1000 burn-in steps, then 9000 recorded steps over three chunks
    sim = _sim(45, burn=5, seed=13, members=3, stride=7)
    fast, ref = _both_ways(
        monkeypatch, lambda: _block(rough_table, params100, sim, [2, 7, 1])
    )
    _assert_identical(fast, ref)
    calls = fast[3]
    assert [call[1] for call in calls] == [
        k * sim.time_step for k in (0, CHUNK_STEPS, 2 * CHUNK_STEPS, 9000)
    ]
    assert [call[3].shape[1] for call in calls] == [CHUNK_STEPS, CHUNK_STEPS, 808, 1]


@pytest.mark.parametrize("members", [1, 17])
def test_kernel_matches_reference_on_real_table(
    monkeypatch, table100, params100, members
):
    sim = _sim(3, burn=21, seed=5, members=members, stride=3)
    fast, ref = _both_ways(monkeypatch, lambda: _ensemble(table100, params100, sim))
    _assert_identical(fast, ref)
    # two feeds per 16-member block (the one recorded chunk, which starts
    # where the burn-in ends, and the final state), merged in block order
    blocks = [list(range(s, min(s + 16, members))) for s in range(0, members, 16)]
    assert [call[0] for call in fast[1]] == [b for b in blocks for _ in range(2)]


def test_kernel_matches_reference_with_noise_source(
    monkeypatch, rough_table, params100
):
    source = _initial_state([0.5, -2.0], [1.0, 0.0])
    sim = _sim(25, seed=0, members=2)
    fast, ref = _both_ways(
        monkeypatch,
        lambda: _block(rough_table, params100, sim, [0, 1], noise_source=source),
    )
    _assert_identical(fast, ref)


def test_kernel_matches_reference_at_grid_edges(monkeypatch, rough_table, params100):
    # rows start outside the grid (clipped lookup), exactly on an interior
    # node, exactly at the upper end, and exactly at the lower end
    grid = rough_table.grid
    source = _initial_state(
        [grid[-1] + 0.01, grid[25], grid[-1], grid[0]], [-1.0, 0.0, -1.0, 1.0]
    )
    sim = _sim(2, seed=0, members=4)
    fast, ref = _both_ways(
        monkeypatch,
        lambda: _block(rough_table, params100, sim, [0, 1, 2, 3], noise_source=source),
    )
    _assert_identical(fast, ref)
    assert fast[0][0, 0] > grid[-1] >= fast[0][0, 1]


def test_excursion_error_matches_reference(monkeypatch, params100):
    # rows 1 and 2 are identical and leave the grid first, at the same step;
    # row 0 is lower but leaves later, row 3 leaves later still
    table = make_synthetic_table(
        np.linspace(-3.0, 3.0, 13), friction=-0.2, diffusion=0.0, tag="growth"
    )
    source = _initial_state([0.2, 1.5, 1.5, 0.7], [0.0, 0.0, 0.0, 0.0])
    sim = _sim(60, seed=0, members=4)

    def run():
        with pytest.raises(ExcursionError) as info:
            _integrate_block(table, params100, sim, [8, 5, 6, 7], noise_source=source)
        return info.value.time, info.value.position, info.value.index

    fast, ref = _both_ways(monkeypatch, run)
    assert fast == ref
    assert abs(fast[1]) > 3.0
    assert fast[2] == 5


def test_kernel_matches_reference_on_signed_zero_drive():
    kernel = langevin._kernel()
    if kernel is None:
        pytest.skip("compiled stepper unavailable")
    # a finite drive on a non-uniform grid with about a third of its
    # coefficients -0.0, all of them in the friction from the node at 0 up
    # and in the excess just above it
    rng = np.random.default_rng(41)
    grid = np.sort(np.concatenate([[-8.0, 0.0, 8.0], rng.uniform(-8.0, 8.0, 29)]))
    mid = int(np.searchsorted(grid, 0.0))
    c = rng.uniform(-0.02, 0.02, (4, grid.size - 1, 3))
    c[3, :, 0] = rng.uniform(0.0, 0.05, grid.size - 1)
    c[:3, :, 1] *= 1e-3
    c[rng.random(c.shape) < 0.3] = -0.0
    c[:, mid:, 0] = -0.0
    c[:, mid, 2] = -0.0
    c[3, :, 1] = 0.01  # the diffusion stays positive
    drive = langevin.Spline(grid, c)
    # members start on nodes; the last rests at 0 with v = -0.0 and noise
    # -0.0, where only PPoly's leading 0.0 turns its velocity into +0.0
    x = grid[[4, 9, mid, 22, 27, mid]]
    v = np.array([0.5, -0.25, 0.0, 1.0, -0.5, -0.0])
    noise = rng.standard_normal((x.size, 3000))
    noise[-1] = -0.0
    args = (0.01, 1.0, 0.3, 1.0)  # dt, w0, force, m
    ref_buf, buf = np.empty((2, *noise.shape)), np.empty((2, *noise.shape))
    ref = langevin._steps_numpy(drive, x, v, noise, *ref_buf, *args)
    ours = langevin._steps_compiled(kernel, drive, x.copy(), v.copy(), noise, *buf, *args)
    assert ref[2] is None and ours[2] is None
    assert ref[0][-1] == ref[1][-1] == 0.0 and not np.signbit(ref[1][-1])
    for one, two in zip((*ours[:2], buf), (*ref[:2], ref_buf)):
        assert np.array_equal(one.view(np.uint64), two.view(np.uint64))


def test_kernel_load_failure_warns_once_and_falls_back(
    monkeypatch, ou_table, params100
):
    sim = _sim(3, burn=1, seed=5, members=3)
    expected = _block(ou_table, params100, sim, [0, 1, 2])

    def broken():
        raise OSError("simulated load failure")

    monkeypatch.setattr(langevin, "_load_kernel", broken)
    monkeypatch.setattr(langevin, "_compiled", {})
    with pytest.warns(RuntimeWarning, match="simulated load failure") as warned:
        fallback = _block(ou_table, params100, sim, [0, 1, 2])
    assert [w.category for w in warned] == [RuntimeWarning]
    assert langevin._compiled == {"kernel": None}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = _block(ou_table, params100, sim, [0, 1, 2])
    _assert_identical(fallback, expected)
    _assert_identical(again, expected)


def test_noise_source_shape_is_checked(ou_table, params100):
    def short(indices, start, n):
        return np.zeros((len(indices), 2 if start == -1 else n - 1))

    with pytest.raises(ValueError, match="noise_source returned shape"):
        _integrate_block(ou_table, params100, _sim(1, members=2), [0, 1],
                         noise_source=short)


@pytest.mark.skipif(not os.path.exists(langevin._CC), reason="no C compiler")
def test_kernel_compiles_without_warnings(tmp_path):
    # the kernel's own flags plus every common warning, as errors
    proc = subprocess.run(
        [langevin._CC, *langevin._CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernel.so"), str(langevin._KERNEL_SOURCE), "-lm"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


_C_TYPES = {"double": ctypes.c_double, "long": ctypes.c_long, "uint64_t": ctypes.c_uint64}


def _kernel_functions():
    """(name, return type, [parameter ctypes]) of every function of the
    kernel that is not static: a pointer parameter reads as c_void_p."""
    source = langevin._KERNEL_SOURCE.read_text()
    found = []
    for ret, name, params in re.findall(
        r"^(\w+)\s+(\w+)\(([^)]*)\)\s*\{", source, re.M
    ):
        if ret == "static":
            continue
        kinds = [
            ctypes.c_void_p if "*" in p else _C_TYPES[p.split()[-2]]
            for p in params.split(",")
        ]
        found.append((name, {"void": None, **_C_TYPES}[ret], kinds))
    return found


def test_every_kernel_function_is_declared():
    # ctypes calls an undeclared function with ints for its doubles and an
    # int result, without an error
    kernel = langevin._kernel()
    if kernel is None:
        pytest.skip("compiled stepper unavailable")
    functions = _kernel_functions()
    assert len(functions) >= 7
    for name, restype, argtypes in functions:
        assert name.startswith("nemclock_"), name
        fn = getattr(kernel, name)
        assert fn.argtypes is not None, f"{name} has no argtypes"
        assert list(fn.argtypes) == argtypes, name
        assert fn.restype is restype, name
    # README names the same functions where it says langevin declares them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("declares its C functions"):].split("\n\n")[0]
    assert set(re.findall(r"`(nemclock_\w+)`", paragraph)) == {f[0] for f in functions}


@pytest.mark.skipif(not os.path.exists(langevin._CC), reason="no C compiler")
def test_compiled_kernel_is_in_use(monkeypatch, ou_table, params100):
    # a broken build would otherwise pass every test at 200 times the cost
    assert langevin._kernel() is not None

    def forbidden(*args):
        raise AssertionError("the NumPy step loop ran")

    monkeypatch.setattr(langevin, "_steps_numpy", forbidden)
    run_ensemble(ou_table, params100, _sim(1, members=18), threads=2)


def _fma_available():
    """Whether this CPU fuses multiply-adds and the compiler takes -mfma."""
    if not np._core._multiarray_umath.__cpu_features__.get("FMA3"):
        return False
    proc = subprocess.run(
        [langevin._CC, "-mfma", "-fsyntax-only", "-x", "c", "-"],
        input="", capture_output=True, text=True,
    )
    return proc.returncode == 0


@pytest.mark.skipif(not os.path.exists(langevin._CC), reason="no C compiler")
def test_kernel_built_with_fma_still_matches_reference(
    monkeypatch, tmp_path, rough_table, params100
):
    # the cubic's and the velocity update's a*b + c chains are what a
    # compiler fuses first; only -ffp-contract=off keeps them apart, and a
    # baseline x86-64 build has no FMA instruction to fuse them into
    if not _fma_available():
        pytest.skip("no FMA on this CPU or no -mfma in this compiler")
    with monkeypatch.context() as mp:
        mp.setattr(langevin, "_KERNEL_CACHE", tmp_path)
        mp.setattr(langevin, "_CFLAGS", (*langevin._CFLAGS, "-mfma"))
        fused = langevin._load_kernel()
    assert len(list(tmp_path.glob("_stepper-*.so"))) == 1

    drive = langevin._splines(rough_table)[1]
    points = np.linspace(rough_table.grid[0] - 1.0, rough_table.grid[-1] + 1.0, 4001)
    assert np.array_equal(
        langevin._evaluate_compiled(fused, drive, points),
        langevin._evaluate_numpy(drive, points),
    )
    # the pole sums' fused complex products must stay exactly NumPy's, and
    # their Smith quotients and nc_pow products unfused, on both branches of
    # psi's divided difference
    xs = np.linspace(-60.0, 60.0, 241)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        for params in (params100, default_params(1e-6)):
            rows, status = langevin._pole_rows_compiled(
                fused, xs, transport._pole_constants(params, params.force)
            )
            assert not status.any()
            assert np.array_equal(rows, transport._pole_rows(xs, params, params.force))
    # the whole block, the fused kernel's own noise draws included
    monkeypatch.setattr(langevin, "_kernel", lambda: fused)
    monkeypatch.setattr(langevin, "_compiled", {})
    sim = _sim(20, burn=5, seed=23, members=3, stride=7)
    fast, ref = _both_ways(
        monkeypatch, lambda: _block(rough_table, params100, sim, [3, 1, 4])
    )
    _assert_identical(fast, ref)


@pytest.mark.skipif(not os.path.exists(langevin._CC), reason="no C compiler")
def test_fresh_kernel_build_deletes_superseded_builds(monkeypatch, tmp_path):
    # a build of older sources or flags goes once a fresh one is published;
    # a concurrent builder's hidden temporary file stays, and a load that
    # finds its build present deletes nothing
    stale = tmp_path / "_stepper-0000000000000000.so"
    pending = tmp_path / "._stepper-0000000000000000.so.1.tmp"
    stale.write_bytes(b"stale")
    pending.write_bytes(b"pending")
    monkeypatch.setattr(langevin, "_KERNEL_CACHE", tmp_path)
    langevin._load_kernel()
    (built,) = tmp_path.glob("_stepper-*.so")
    assert built != stale and pending.exists()
    stale.write_bytes(b"stale")
    langevin._load_kernel()
    assert stale.exists()


# --------------------------------------------------- compiled noise draws --


def _draws():
    """The kernel and its ziggurat over NumPy's normal; a skip without the
    kernel, and a failure when the kernel cannot draw."""
    kernel = langevin._kernel()
    if kernel is None:
        pytest.skip("compiled stepper unavailable")
    zig = langevin._ziggurat(kernel)
    assert zig is not None
    return kernel, zig


def _philox(key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@pytest.mark.parametrize("key", [(0, 0), (2**64 - 1, 31), (7, 2**40)])
def test_kernel_normals_equal_numpy_stream(key):
    kernel, zig = _draws()
    n = 1 << 20
    drawn, (tail, wedges) = langevin._kernel_normals(kernel, zig, _philox(key), n)
    assert np.array_equal(drawn, _philox(key).standard_normal(n))
    # both rare branches were replayed into NumPy: layer 0's tail and the
    # wedges of the other layers
    assert tail > 0 and wedges > 0


def test_ziggurat_boundaries_are_exact():
    kernel, zig = _draws()

    def scripted(layer, rabs):
        calls = ctypes.c_long()
        word = layer | rabs << 9
        x = kernel.nemclock_scripted(ctypes.byref(zig), word, ctypes.byref(calls))
        return x, calls.value

    assert zig.ki[1] == 0
    for layer in range(256):
        ki, wi = zig.ki[layer], zig.wi[layer]
        if ki > 0:
            assert scripted(layer, ki - 1) == ((ki - 1) * wi, 1)
        assert ki < 2**52 and scripted(layer, ki)[1] > 1


def test_streams_continue_after_a_block(monkeypatch, rough_table, params100):
    # 10000 steps over four chunks, three of them recorded
    sim = _sim(45, burn=5, seed=13, members=3, stride=7)
    _draws()
    stream = langevin._stream
    made = {}

    def recorded(seed, index):
        made[index] = stream(seed, index)
        return made[index]

    monkeypatch.setattr(langevin, "_stream", recorded)
    _integrate_block(rough_table, params100, sim, [2, 7, 1])
    assert sorted(made) == [1, 2, 7]
    for index, gen in made.items():
        reference = stream(sim.seed, index)
        reference.standard_normal(2 + sim.total_steps)
        assert np.array_equal(gen.standard_normal(9), reference.standard_normal(9))


def test_draw_probe_waits_for_the_first_stepping_call(monkeypatch, ou_table, params100):
    # spline-only callers (tables, toy models) never pay for the probe
    _draws()
    monkeypatch.setattr(langevin, "_compiled", {})
    column_interpolant(ou_table, "friction")(np.linspace(-5.0, 5.0, 11))
    assert list(langevin._compiled) == ["kernel"]
    run_ensemble(ou_table, params100, _sim(1, members=2))
    assert langevin._compiled["noise draws"] is not None


def _wrong_draws(kernel, zig, gen, n, draw=langevin._kernel_normals):
    drawn, replays = draw(kernel, zig, gen, n)
    return -drawn, replays


@pytest.mark.parametrize(
    "attribute, value, message",
    [
        ("_NUMPY_NORMAL", "random_no_such_normal", "random_no_such_normal"),
        ("_kernel_normals", _wrong_draws, "differ from Generator.standard_normal"),
    ],
)
def test_draw_failure_warns_once_and_draws_in_python(
    monkeypatch, rough_table, params100, attribute, value, message
):
    _draws()
    sim = _sim(30, burn=5, seed=3, members=3)
    expected = _block(rough_table, params100, sim, [0, 4, 2])
    monkeypatch.setattr(langevin, attribute, value)
    monkeypatch.setattr(langevin, "_compiled", {})
    with pytest.warns(RuntimeWarning, match=message) as warned:
        fallback = _block(rough_table, params100, sim, [0, 4, 2])
    assert [w.category for w in warned] == [RuntimeWarning]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = _block(rough_table, params100, sim, [0, 4, 2])
    assert langevin._compiled["kernel"] is not None
    assert langevin._compiled["noise draws"] is None
    _assert_identical(fallback, expected)
    _assert_identical(again, expected)


class _InitialDrawsOnly(np.random.Generator):
    """A stream that allows one Python draw: the two initial normals."""

    drawn = False

    def standard_normal(self, size=None, *args, **kwargs):
        if self.drawn or size != 2:
            raise AssertionError("a chunk's noise was drawn in Python")
        self.drawn = True
        return super().standard_normal(size, *args, **kwargs)


def test_compiled_noise_draws_are_in_use(monkeypatch, ou_table, params100):
    # a failed probe would otherwise pass every test at twice the cost
    _draws()
    stream = langevin._stream
    made = []

    def initial_draws_only(seed, index):
        made.append(_InitialDrawsOnly(stream(seed, index).bit_generator))
        return made[-1]

    monkeypatch.setattr(langevin, "_stream", initial_draws_only)
    run_ensemble(ou_table, params100, _sim(1, members=18), threads=2)
    assert len(made) == 18 and all(gen.drawn for gen in made)



def test_ensemble_without_velocities_records_the_same_positions(ou_table, params100):
    sim = _sim(300, burn=40, seed=8, members=langevin.BLOCK_SIZE + 3, stride=7)
    (times, positions, _), calls = _ensemble(ou_table, params100, sim)
    record, (rec,) = run_ensemble(
        ou_table, params100, sim, consumer_factories=[_Recorder], velocities=False
    )
    assert record.velocities is None
    assert np.array_equal(record.times, times)
    assert np.array_equal(record.positions, positions)
    _assert_identical(rec.calls, calls)


def test_each_worker_reuses_one_stepper_buffer(monkeypatch, ou_table, params100):
    # a worker steps every block it takes in the one buffer it made first
    sim = _sim(100, burn=10, seed=8, members=3 * langevin.BLOCK_SIZE, stride=7)
    expected = run_ensemble(ou_table, params100, sim)[0]
    buffers, integrate = [], langevin._integrate_block

    def recorded(*args, work=None, **kwargs):
        buffers.append(work)
        return integrate(*args, work=work, **kwargs)

    monkeypatch.setattr(langevin, "_integrate_block", recorded)
    for threads in (1, 2):
        buffers.clear()
        record = run_ensemble(ou_table, params100, sim, threads=threads)[0]
        assert np.array_equal(record.positions, expected.positions)
        assert np.array_equal(record.velocities, expected.velocities)
        assert len(buffers) == 3
        assert {b.size for b in buffers} == {langevin._work_size(langevin.BLOCK_SIZE, sim)}
        assert len({id(b) for b in buffers}) <= threads
