"""Stochastic integration of the oscillator's slow dynamics.

The equation of motion is

    m dv = [-m*gamma(x)*v - m*w0^2*x + F*excess(x)] dt + sqrt(D(x)) dW,
    dx = v dt,

with gamma, D and excess looked up from a :class:`CoefficientTable` by cubic
interpolation.  The splines are built here: not-a-knot coefficients computed
as scipy's ``CubicSpline`` computes them, with its tridiagonal system solved
by a port of LAPACK ``dgtsv``, and evaluated by scipy's ``PPoly`` rule.
scipy is the test oracle for both and is not imported.  The position update
uses the freshly advanced velocity
(kick-then-drift ordering): for a weakly damped oscillator the plain
simultaneous update injects an artificial energy drift of order w0^2*dt/2
per unit time, which would swamp the physical |gamma| ~ 1e-4 here and break
the step-halving convergence guarantee, while the ordered update is neutral
to leading order.

Randomness comes from one counter-based stream per member, keyed by
(seed, member index), so ensembles are bit-identical under any worker
layout.  Each stream is consumed in a fixed pattern: two draws for the
initial condition, then one standard normal per step, in step order; the
draws do not depend on where the chunks are cut.
The recorded ensemble is one :class:`Trajectory` with a row per member.

The per-step loop and the spline evaluation run in a small C kernel,
``_stepper.c``, compiled on first use with ``/usr/bin/cc -O2
-ffp-contract=off`` and loaded through ctypes, which releases the GIL, so
threads advance blocks in parallel.  This module alone loads it and knows
its calling convention.  The kernel reproduces the NumPy loop
(:func:`_steps_numpy`) and the NumPy evaluation (:func:`_evaluate_numpy`)
bit for bit: same interval rule and power sum, same operation order, no
fused multiply-adds.  The NumPy code is the test oracle and the fallback,
taken after one RuntimeWarning when the kernel cannot be built or loaded.
The kernel also draws each chunk's normals in place, from each member's
own NumPy Philox bit generator through NumPy's ziggurat, so they are
``Generator.standard_normal``'s bit for bit.  Its tables are recovered
from NumPy and checked against 4096 Python draws at the first stepping
call; if that fails, one RuntimeWarning.  Every other draw (the two
initial ones, and each chunk's on either fallback) comes from the block's
one noise source, by default the same streams drawn in Python.  Chunking
and the consumer ``feed`` calls (the record is two consumers) stay in
Python, so the consumer contract is the same on both paths; the position
histogram and the tick detector count in the kernel too, through
:func:`_bin_counts_compiled` and :func:`_crossings_compiled`, bit for bit
their NumPy feeds, which are the oracle and the fallback.  The kernel also
writes the CLI's CSV numbers (:func:`csv_chunks`), byte for byte as
``repr`` does, which is the oracle and the fallback there, and sums the
transport poles (:func:`_pole_rows_compiled`), bit for bit as
``transport._pole_rows`` does, which ``transport`` probes it against and
falls back to.
"""
from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import subprocess
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  NumPy loads it lazily: not in a first ensemble call

from .params import SystemParams
from .transport import CoefficientTable

__all__ = [
    "SimConfig",
    "Trajectory",
    "ExcursionError",
    "SeriesAccumulator",
    "Spline",
    "column_interpolant",
    "run_ensemble",
]

CHUNK_STEPS = 4096   # integration steps per noise block
BLOCK_SIZE = 16      # trajectories per block, the unit of work of one thread

# the compiled step loop; the shared object is cached next to the package's
# bytecode under a name keyed by the source and the flags
_CC = "/usr/bin/cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_KERNEL_SOURCE = Path(__file__).with_name("_stepper.c")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")


@dataclass(frozen=True)
class SimConfig:
    """Integration window, resolution and reproducibility knobs.

    ``duration`` is the total integrated time; the leading ``burn_in`` is
    discarded, and every ``record_stride``-th state of the remainder is kept.
    """

    time_step: float
    burn_in: float
    duration: float
    seed: int
    ensemble_size: int
    record_stride: int

    def __post_init__(self):
        if not self.time_step > 0:
            raise ValueError("time_step must be > 0")
        if not self.burn_in >= 0:
            raise ValueError("burn_in must be >= 0")
        if not self.duration > self.burn_in:
            raise ValueError("duration must exceed burn_in")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    @property
    def total_steps(self) -> int:
        return int(round(self.duration / self.time_step))

    @property
    def burn_steps(self) -> int:
        return int(round(self.burn_in / self.time_step))

    @property
    def recorded_samples(self) -> int:
        return (self.total_steps - self.burn_steps) // self.record_stride + 1

    def record_times(self) -> np.ndarray:
        return np.arange(self.recorded_samples) * (self.time_step * self.record_stride)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The recorded ensemble: ``times`` (n,) restart at zero after the
    burn-in; ``positions`` and ``velocities`` (members, n) hold a row per
    member.  ``velocities`` is None in a record read back from disk and in
    one integrated without them (``run_ensemble(..., velocities=False)``)."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray | None = None

    @property
    def sample_spacing(self) -> float:
        return float(self.times[1] - self.times[0])


class ExcursionError(RuntimeError):
    """A member left the tabulated grid (or went non-finite)."""

    def __init__(self, time: float, position: float, index: int):
        if math.isfinite(position):
            advice = (f"left the coefficient grid at t={time:.6g}, "
                      f"x={position:.6g}; enlarge the table range")
        else:
            advice = (f"has x={position:.6g} at t={time:.6g}, not a finite "
                      f"position: the record is damaged or the integration "
                      f"diverged, and no table range can mend that")
        super().__init__(f"member {index} {advice}")
        self.time = time
        self.position = position
        self.index = index


class SeriesAccumulator:
    """Writes a strided transform of the post-burn-in states into its
    members' rows of a shared ``(members, n)`` array ``out``.

    ``transform(xs, vs)`` maps state samples to the observable; ``stride``
    counts full-resolution steps past the burn-in, so column j of ``out``
    holds the state j*stride steps past it.
    """

    def __init__(self, transform, stride: int, out: np.ndarray):
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.transform = transform
        self.stride = stride
        self.out = out

    def feed(self, indices, t0, dt, xs, vs):
        k0 = int(round(t0 / dt))
        cols = slice(-k0 % self.stride, None, self.stride)
        values = self.transform(xs[:, cols], vs[:, cols])
        slot = (k0 + cols.start) // self.stride
        self.out[list(indices), slot : slot + values.shape[1]] = values

    def absorb(self, other: "SeriesAccumulator") -> None:
        """Nothing to merge: blocks write disjoint rows of the shared ``out``."""


@dataclass(frozen=True, eq=False)
class Spline:
    """Piecewise cubic on the increasing breakpoints ``x``: on interval i it
    is ``sum(c[m, i] * (t - x[i])**(3 - m))``.  ``c`` has shape (4, n-1) for
    one column or (4, n-1, k) for k columns evaluated together.

    Calling it evaluates as scipy's ``PPoly`` does: interval i holds
    x[i] <= t < x[i+1], the last interval also takes the upper end and
    everything above it, the first everything below the grid, and NaN gives
    NaN.  The result has the shape of ``t`` (plus k); ``out``, a writeable
    C-contiguous float64 array of that shape, receives it, and for one
    column it may be ``t`` itself, each value read before it is overwritten.
    """

    x: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        # the compiled evaluation reads both as contiguous doubles
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        c = np.ascontiguousarray(self.c, dtype=np.float64)
        if x.ndim != 1 or x.size < 2 or c.ndim not in (2, 3) or c.shape[:2] != (4, x.size - 1):
            raise ValueError(f"coefficients of shape {c.shape} do not fit {x.size} breakpoints")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "c", c)

    def __call__(self, t, out=None):
        t = np.asarray(t, dtype=np.float64)
        shape = t.shape + self.c.shape[2:]
        if out is not None and not (out.dtype == np.float64 and out.shape == shape
                                    and out.flags.c_contiguous and out.flags.writeable):
            raise ValueError(f"out must be a writeable C-contiguous float64 array "
                             f"of shape {shape}")
        kernel = _kernel()
        if kernel is None:
            return _evaluate_numpy(self, t, out)
        return _evaluate_compiled(kernel, self, t, out)


def _evaluate_numpy(spline: Spline, t, out=None) -> np.ndarray:
    """Reference spline evaluation: the interval and the power sum of
    scipy's ``PPoly``, operation for operation.  ``t`` is read in full
    before ``out`` is written, so ``out`` may be ``t``."""
    t = np.asarray(t, dtype=np.float64)
    i = np.clip(np.searchsorted(spline.x, t, side="right") - 1, 0, spline.x.size - 2)
    s = t - spline.x[i]
    if spline.c.ndim == 3:
        s = s[..., None]
    c = spline.c
    # PPoly's sum starts at 0.0, which turns a -0.0 coefficient into 0.0
    head = 0.0 + c[3, i] + c[2, i] * s + c[1, i] * (s * s)
    return np.add(head, c[0, i] * (s * s * s), out=out)


def _strided_rows(t: np.ndarray):
    """The float64 array ``t`` as a (rows, cols) array, in place when ``t``
    is 1- or 2-D, and the kernel's arguments for reading it: the shape, the
    address and the strides in elements.  Keep the array while the kernel
    reads it."""
    rows = t.reshape(math.prod(t.shape[:-1]), t.shape[-1]) if t.ndim else t.reshape(1, 1)
    if any(stride % 8 for stride in rows.strides):
        rows = np.ascontiguousarray(rows)
    return rows, (rows.shape[0], rows.shape[1], rows.ctypes.data,
                  rows.strides[0] // 8, rows.strides[1] // 8)


def _evaluate_compiled(kernel, spline: Spline, t, out=None) -> np.ndarray:
    """:func:`_evaluate_numpy` in C, bit for bit, written straight into the
    result; a 1- or 2-D ``t`` is read in place through its strides.  The
    kernel reads each point before it writes that point's values, so with
    one column ``out`` may be ``t``."""
    t = np.asarray(t, dtype=np.float64)
    rows, points = _strided_rows(t)
    if out is None:
        out = np.empty(t.shape + spline.c.shape[2:])
    kernel.nemclock_eval(
        *points, spline.x.ctypes.data, spline.x.size, spline.c.ctypes.data,
        spline.c[0, 0].size, out.ctypes.data,
    )
    return out


def _bin_counts_compiled(kernel, edges: np.ndarray, xs: np.ndarray, counts: np.ndarray):
    """Add ``np.histogram(xs, bins=edges)[0]`` to the float64 ``counts`` in
    C, bit for bit, for float64 ``xs`` of any shape and contiguous, finite,
    increasing ``edges`` of one width."""
    rows, samples = _strided_rows(xs)
    kernel.nemclock_bin_counts(*samples, edges.ctypes.data, edges.size, counts.ctypes.data)


def _crossings_compiled(kernel, xs: np.ndarray, state: list, level: float, dt: float,
                        refractory: float):
    """The refractory-kept crossings of ``level`` by the rows of the 2-D
    float64 ``xs``, equal bit for bit to ``TickAccumulator``'s NumPy feed:
    the kept times, row after row, and the number of them per row.

    ``state[r]`` is row r's ``(origin, seen, prev, last)``: the time of its
    first sample ever fed, the number of samples fed before, the last of
    them (None when ``seen`` is 0) and its last kept tick (None for none).

    The kernel writes them to a buffer made per call and filled from its
    start, so a feed touches few of its pages: with one buffer kept for
    each accumulator's lifetime, every corpus build after the second took
    about 1200 more minor page faults, all in the stepper's and the current
    series' buffers."""
    xs, samples = _strided_rows(xs)
    origin, seen, prev, last = zip(*state) if state else ((),) * 4
    doubles = np.array([*(0.0 if p is None else p for p in prev), *origin,
                        *(0.0 if t is None else t for t in last)], dtype=np.float64)
    longs = np.array([*seen, *(t is not None for t in last)], dtype=ctypes.c_long)
    out = np.empty(xs.size)
    kernel.nemclock_crossings(*samples, doubles.ctypes.data, longs.ctypes.data,
                              level, dt, refractory, out.ctypes.data)
    counts = longs[len(state):]
    return out[: counts.sum()].tolist(), counts.tolist()


def _dgtsv(lower: list, diag: list, upper: list, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system (sub-, main and super-diagonal) for every
    column of ``b`` (n, k) as LAPACK ``dgtsv`` does: Gaussian elimination
    that swaps rows i and i+1 where |diag[i]| < |lower[i]|, then back
    substitution.  The elimination is one pass over the matrix; its steps
    are then applied to each column.  The diagonals are overwritten."""
    n = len(diag)
    steps = []
    for i in range(n - 1):
        if abs(diag[i]) >= abs(lower[i]):
            fact = lower[i] / diag[i]
            diag[i + 1] = diag[i + 1] - fact * upper[i]
            if i < n - 2:
                lower[i] = 0.0
            steps.append((False, fact))
        else:
            fact = diag[i] / lower[i]
            diag[i] = lower[i]
            temp = diag[i + 1]
            diag[i + 1] = upper[i] - fact * temp
            if i < n - 2:
                lower[i] = upper[i + 1]
                upper[i + 1] = -fact * lower[i]
            upper[i] = temp
            steps.append((True, fact))
    solved = []
    for col in b.T.tolist():
        for i, (swap, fact) in enumerate(steps):
            if swap:
                col[i], col[i + 1] = col[i + 1], col[i] - fact * col[i + 1]
            else:
                col[i + 1] = col[i + 1] - fact * col[i]
        col[n - 1] = col[n - 1] / diag[n - 1]
        col[n - 2] = (col[n - 2] - upper[n - 2] * col[n - 1]) / diag[n - 2]
        for i in range(n - 3, -1, -1):
            col[i] = (col[i] - upper[i] * col[i + 1] - lower[i] * col[i + 2]) / diag[i]
        solved.append(col)
    return np.array(solved).T


def not_a_knot_spline(x, y) -> Spline:
    """Cubic interpolant of ``y`` (n,) or (n, k) at the nodes ``x`` with
    not-a-knot ends, equal bit for bit to ``scipy.interpolate.CubicSpline(x,
    y)``: the same slopes and right-hand side (scipy 1.17 ``_cubic.py``),
    the same tridiagonal solve, the same Hermite coefficients.  Needs at
    least 4 nodes, where not-a-knot ends are two distinct conditions."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n < 4:
        raise ValueError(f"a not-a-knot cubic spline needs at least 4 nodes, got {n}")
    dx = np.diff(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    b = np.empty_like(y)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # scipy squares a NumPy scalar here, by pow(), which can differ from x*x
    d = x[2] - x[0]
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    e = x[-1] - x[-3]
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * e + dx[-1]) * dx[-2] * slope[-1]) / e
    s = _dgtsv(
        [*dx[1:].tolist(), float(e)],
        [float(dx[1]), *(2 * (dx[:-1] + dx[1:])).tolist(), float(dx[-2])],
        [float(d), *dx[:-1].tolist()],
        b.reshape(n, -1),
    ).reshape(y.shape)
    t = (s[:-1] + s[1:] - 2 * slope) / dxr
    return Spline(x, np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1])))


@functools.lru_cache(maxsize=8)
def _splines(table: CoefficientTable):
    """Per-column cubic interpolants, and the drive: one vector-valued cubic
    over the three columns the stepper needs, so the hot loop pays a single
    interpolation per step.  All five columns share one spline solve."""
    both = not_a_knot_spline(table.grid, table.values.T)
    columns = {name: Spline(both.x, both.c[..., j]) for name, j in table.ROWS.items()}
    drive = [table.ROWS[n] for n in ("friction", "diffusion", "excess_occupation")]
    return columns, Spline(both.x, both.c[..., drive])


def column_interpolant(table: CoefficientTable, name: str) -> Spline:
    """Cubic interpolant of one table column (exact at the nodes)."""
    return _splines(table)[0][name]


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])
    return np.random.Generator(np.random.Philox(key=key))


def _load_kernel():
    """Compile ``_stepper.c`` on first use, cache it, and load it.  A fresh
    build deletes the cached builds of other sources or flags."""
    source = _KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    lib = _KERNEL_CACHE / f"_stepper-{key}.so"
    if not lib.exists():
        _KERNEL_CACHE.mkdir(exist_ok=True)
        tmp = lib.with_name(f".{lib.name}.{os.getpid()}.tmp")
        try:
            proc = subprocess.run(
                [_CC, *_CFLAGS, "-o", str(tmp), str(_KERNEL_SOURCE), "-lm"],
                capture_output=True, text=True,
            )
            if proc.returncode != 0:
                raise OSError(f"{_CC} exited {proc.returncode}: {proc.stderr.strip()}")
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
        # the builds of older sources or flags; a process that has one
        # mapped keeps it, and other builders' ".*.tmp" files do not match
        for old in _KERNEL_CACHE.glob("_stepper-*.so"):
            if old != lib:
                old.unlink(missing_ok=True)
    kernel = ctypes.CDLL(str(lib))
    long, ptr, double = ctypes.c_long, ctypes.c_void_p, ctypes.c_double
    kernel.nemclock_steps.argtypes = [long, long, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                                      long, ptr, double, double, double, double, ptr]
    kernel.nemclock_steps.restype = long
    kernel.nemclock_eval.argtypes = [long, long, ptr, long, long, ptr, long, ptr, long, ptr]
    kernel.nemclock_eval.restype = None
    kernel.nemclock_bin_counts.argtypes = [long, long, ptr, long, long, ptr, long, ptr]
    kernel.nemclock_bin_counts.restype = None
    kernel.nemclock_crossings.argtypes = [long, long, ptr, long, long, ptr, ptr,
                                          double, double, double, ptr]
    kernel.nemclock_crossings.restype = None
    kernel.nemclock_ziggurat.argtypes = [ptr]
    kernel.nemclock_ziggurat.restype = None
    kernel.nemclock_scripted.argtypes = [ptr, ctypes.c_uint64, ptr]
    kernel.nemclock_scripted.restype = double
    kernel.nemclock_normals.argtypes = [ptr, ptr, long, ptr, ptr]
    kernel.nemclock_normals.restype = None
    kernel.nemclock_format_csv.argtypes = [long, long, long, ptr, ptr, ptr, ptr, ptr]
    kernel.nemclock_format_csv.restype = long
    kernel.nemclock_pole_rows.argtypes = [long, ptr, ptr, ptr, ptr]
    kernel.nemclock_pole_rows.restype = long
    return kernel


_compiled_lock = threading.Lock()
_compiled: dict = {}


def _compiled_part(part: str, build, fallback: str):
    """``build()``, made once per process and cached under ``part``, or None
    when it fails: one RuntimeWarning then names the reason and the
    ``fallback`` every later call takes."""
    with _compiled_lock:
        if part not in _compiled:
            try:
                _compiled[part] = build()
            except (OSError, AttributeError, ValueError) as exc:
                warnings.warn(
                    f"compiled {part} unavailable ({exc}); {fallback}",
                    RuntimeWarning,
                    stacklevel=3,
                )
                _compiled[part] = None
        return _compiled[part]


def _kernel():
    """The compiled step loop, spline evaluation, consumer counts, CSV
    formatter and transport pole sums, or None when they cannot be built or
    loaded: the NumPy ones and ``repr`` then give the same results at about
    200x, 17x, 3x, 8x and, for the pole sums, 2x the cost on an 802-node
    table and 11x on a single position."""
    return _compiled_part(
        "kernel", _load_kernel,
        "falling back to the NumPy step loop (about 200x slower), spline "
        "evaluation, histogram and tick feeds, transport pole sums, and repr "
        "for CSV numbers",
    )


class _Ziggurat(ctypes.Structure):
    """The kernel's ``ziggurat_t``: NumPy's ``random_standard_normal`` and
    the layer tables of its fast path, recovered from it by
    ``nemclock_ziggurat``."""

    _fields_ = [
        ("normal", ctypes.c_void_p),
        ("ki", ctypes.c_uint64 * 256),
        ("wi", ctypes.c_double * 256),
    ]


_NUMPY_NORMAL = "random_standard_normal"
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _bitgen(gen: np.random.Generator) -> int:
    """Address of the ``bitgen_t`` under ``gen``; drawing through it
    advances ``gen``."""
    return _capsule_pointer(gen.bit_generator.capsule, b"BitGenerator")


def _kernel_normals(kernel, zig: _Ziggurat, gen: np.random.Generator, n: int):
    """``gen.standard_normal(n)`` drawn by the kernel, and how many words
    it replayed into NumPy: (layer-0 tail, wedges)."""
    out = np.empty(n)
    replays = (ctypes.c_long * 2)()
    kernel.nemclock_normals(ctypes.byref(zig), _bitgen(gen), n, out.ctypes.data, replays)
    return out, tuple(replays)


def _probe_ziggurat(kernel) -> _Ziggurat:
    """Recover NumPy's ziggurat tables and check 4096 kernel draws against
    ``Generator(Philox(key=[0, 0])).standard_normal``."""
    numpy_normal = getattr(ctypes.CDLL(np.random._generator.__file__), _NUMPY_NORMAL)
    zig = _Ziggurat(normal=ctypes.cast(numpy_normal, ctypes.c_void_p).value)
    kernel.nemclock_ziggurat(ctypes.byref(zig))
    drawn, _ = _kernel_normals(kernel, zig, _stream(0, 0), 4096)
    if not np.array_equal(drawn, _stream(0, 0).standard_normal(4096)):
        raise ValueError("its draws differ from Generator.standard_normal")
    return zig


def _ziggurat(kernel):
    """The kernel's draws from NumPy's streams, probed at the first stepping
    call, or None when NumPy's normal is missing or the draws fail the
    self-check."""
    return _compiled_part(
        "noise draws", lambda: _probe_ziggurat(kernel), "drawing the noise in Python"
    )


# the kernel's CSV formatter: the most bytes a cell takes with its separator
# (24 for a double's repr, 20 for an int64), and the bits and rows of its
# two tables of powers of five
_CSV_CELL_BYTES = 25
_POW5_BITS, _POW5_ROWS, _POW5_INV_ROWS = 125, 326, 342
# values whose repr the formatter must reproduce before it is used: the
# extremes, the neighbours of both layout switches, 1e23 and 2^53 + 2
_FORMAT_PROBE = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
                 1.7976931348623157e308, 0.1, -1.5, 1e-4, 9.999999999999999e-05, 1e16,
                 9999999999999998.0, 9007199254740994.0, 5e-310, 1e23, 2.0**-1022)


def _pow5_tables():
    """The formatter's tables, exact from Python integers, as (rows, 2)
    uint64 arrays, low word first: 5^i scaled to its top 125 bits, and
    floor(2^(bits(5^q) - 1 + 125) / 5^q) + 1."""
    def words(values):
        return np.array([(v & 0xFFFFFFFFFFFFFFFF, v >> 64) for v in values], dtype=np.uint64)

    def top_bits(p):
        shift = p.bit_length() - _POW5_BITS
        return p >> shift if shift >= 0 else p << -shift

    return (
        words(top_bits(5**i) for i in range(_POW5_ROWS)),
        words((1 << (p.bit_length() - 1 + _POW5_BITS)) // p + 1
              for p in (5**q for q in range(_POW5_INV_ROWS))),
    )


def _format_csv_compiled(kernel, tables, columns, kinds: str, rows_per_chunk: int):
    """Yield the kernel's CSV text of the contiguous float64 and int64
    ``columns``, typed by ``kinds`` ('d' or 'q' each), ``rows_per_chunk`` rows
    at a time, each chunk a view of one buffer that the next one overwrites."""
    pointers = (ctypes.c_void_p * len(columns))(*(c.ctypes.data for c in columns))
    args = (len(columns), pointers, kinds.encode(), tables[0].ctypes.data,
            tables[1].ctypes.data)
    buf = np.empty(rows_per_chunk * len(columns) * _CSV_CELL_BYTES, dtype=np.uint8)
    view = memoryview(buf)
    n_rows = columns[0].shape[0]
    for start in range(0, n_rows, rows_per_chunk):
        stop = min(start + rows_per_chunk, n_rows)
        yield view[:kernel.nemclock_format_csv(start, stop, *args, buf.ctypes.data)]


def _probe_formatter(kernel):
    """The formatter's tables, once the kernel has written ``_FORMAT_PROBE``
    as ``repr`` does."""
    tables = _pow5_tables()
    probe = np.array(_FORMAT_PROBE)
    text = bytes(next(_format_csv_compiled(kernel, tables, [probe], "d", probe.size)))
    if text.decode() != "".join(f"{v!r}\n" for v in _FORMAT_PROBE):
        raise ValueError("its text differs from repr")
    return tables


def _csv_kind(dtype: np.dtype):
    """'d' for a real float dtype of at most 64 bits, 'q' for an integer
    dtype that int64 holds, and None for any other (bool, object,
    longdouble, uint64)."""
    if dtype.kind == "f" and dtype.itemsize <= 8:
        return "d"
    if dtype.kind in "iu" and np.can_cast(dtype, np.int64):
        return "q"
    return None


def csv_chunks(columns, rows_per_chunk: int):
    """The rows of the equal-length 1-D ``columns`` as CSV text written by
    the kernel, ``rows_per_chunk`` rows a chunk: cells joined by ',', each
    row ended by a newline, a float as ``repr(float(v))`` and an integer as
    ``str(v)``.  Each chunk is a view of one buffer that the next chunk
    overwrites.  None when a column is neither a real float nor an integer
    that int64 holds, or when the kernel or its formatter is unavailable,
    which one RuntimeWarning reports: ``repr`` then writes the same text."""
    kinds = [_csv_kind(c.dtype) for c in columns]
    if None in kinds or (kernel := _kernel()) is None:
        return None
    tables = _compiled_part(
        "CSV formatter", lambda: _probe_formatter(kernel), "writing CSV numbers with repr"
    )
    if tables is None:
        return None
    typed = [np.ascontiguousarray(c, dtype=np.float64 if k == "d" else np.int64)
             for c, k in zip(columns, kinds)]
    return _format_csv_compiled(kernel, tables, typed, "".join(kinds), rows_per_chunk)


def _pole_rows_compiled(kernel, xs, constants: np.ndarray):
    """The kernel's transport pole sums at the positions ``xs``: the six
    rows, shape (6, len(xs)), for the doubles ``constants`` that
    ``transport._pole_constants`` lays out, and each position's status, 1
    where two poles are too close or one is not below the real axis, 2
    where a row is not finite, 0 otherwise.  OSError on a CPU without the
    FMA the kernel built them for."""
    xs = np.ascontiguousarray(xs, dtype=float)
    rows = np.empty((6, xs.size))
    status = np.empty(xs.size, dtype=ctypes.c_long)
    if kernel.nemclock_pole_rows(xs.size, xs.ctypes.data, constants.ctypes.data,
                                 rows.ctypes.data, status.ctypes.data) < 0:
        raise OSError("this CPU has no FMA")
    return rows, status


def _steps_numpy(drive, x, v, noise, buf_x, buf_v, dt, w0, force, m):
    """Reference step loop: advance ``x``, ``v`` over ``noise.shape[1]``
    steps, recording the state before each step when ``buf_x`` is given.

    Returns (x, v, failure) where failure is None or (k, row) for the first
    step k at which a member left the grid and the lowest such row.
    """
    lo, hi = drive.x[0], drive.x[-1]
    for k in range(noise.shape[1]):
        if buf_x is not None:
            buf_x[:, k] = x
            buf_v[:, k] = v
        xe = np.clip(x, lo, hi)
        coeff = _evaluate_numpy(drive, xe)
        gam, dif, exc = coeff[:, 0], coeff[:, 1], coeff[:, 2]
        v = v + (-gam * v - w0**2 * x + (force / m) * exc) * dt \
            + np.sqrt(dif * dt) * noise[:, k] / m
        x = x + v * dt
        inside = (x >= lo) & (x <= hi)
        if not inside.all():
            return x, v, (k, int(np.argmin(inside)))
    return x, v, None


def _steps_compiled(kernel, drive, x, v, noise, buf_x, buf_v, dt, w0, force, m,
                    draws=None):
    """:func:`_steps_numpy` in C, bit for bit; ``x`` and ``v`` are updated
    in place.  With ``draws``, a ziggurat and each row's ``bitgen_t``
    address, the kernel first fills row r of the contiguous ``noise`` with
    draws from stream r."""
    noise = np.ascontiguousarray(noise, dtype=np.float64)
    zig, bitgens = (None, None) if draws is None else (ctypes.byref(draws[0]), draws[1])
    fail_step = ctypes.c_long()
    bad = kernel.nemclock_steps(
        x.shape[0], noise.shape[1], x.ctypes.data, v.ctypes.data, noise.ctypes.data,
        bitgens, zig,
        None if buf_x is None else buf_x.ctypes.data,
        None if buf_v is None else buf_v.ctypes.data,
        drive.x.ctypes.data, drive.x.size, drive.c.ctypes.data,
        dt, w0**2, force / m, m, ctypes.byref(fail_step),
    )
    return x, v, (None if bad < 0 else (fail_step.value, bad))


def _sourced(noise_source, indices, start, n):
    """``noise_source`` output, shape-checked before it reaches the kernel."""
    noise = np.asarray(noise_source(indices, start, n))
    if noise.shape != (len(indices), n):
        raise ValueError(
            f"noise_source returned shape {noise.shape}, "
            f"expected {(len(indices), n)}"
        )
    return noise


def _work_size(rows: int, sim: SimConfig) -> int:
    """The doubles of a block's stepper buffers: noise and the record's
    positions and velocities, one chunk of ``rows`` members each."""
    return 3 * rows * min(CHUNK_STEPS, sim.total_steps)


def _integrate_block(
    table: CoefficientTable,
    params: SystemParams,
    sim: SimConfig,
    indices,
    consumers=(),
    noise_source=None,
    work=None,
):
    """Advance a block of trajectories; returns the final (x, v) arrays.

    ``consumers`` receive every post-burn-in full-resolution state via
    ``feed(indices, t0, dt, xs, vs)`` with xs, vs of shape (block, n) and
    t0 the time past the burn-in, then the final state as a one-column feed;
    xs and vs are views of buffers the next chunk overwrites, valid only
    during the call.  ``noise_source(indices, start_step, n)`` gives n
    steps' normals, a row per index (start_step -1: the two initial ones);
    by default each member's own stream, whose chunks the kernel draws in
    place when it can.  Step-halving tests pass one to share a Brownian
    path.  Chunks restart where the burn-in ends, so no chunk straddles it.
    ``work`` is the kernel's noise and the record buffers, a float64 array
    of at least :func:`_work_size` doubles that a worker reuses across its
    blocks; made here when not given.
    """
    indices = list(indices)
    dt = sim.time_step
    m = params.oscillator_mass
    w0 = params.oscillator_frequency
    force = params.force
    drive = _splines(table)[1]
    kernel = _kernel()

    total = sim.total_steps
    burn = sim.burn_steps
    rows = len(indices)
    # the kernel's noise and the record: one buffer each, reused by every chunk
    size = _work_size(rows, sim)
    work = (np.empty(size) if work is None else work[:size]).reshape(3, -1)

    draws = None
    if noise_source is None:
        gens = [_stream(sim.seed, i) for i in indices]
        noise_source = lambda _, start, n: np.stack([g.standard_normal(n) for g in gens])
        zig = None if kernel is None else _ziggurat(kernel)
        if zig is not None:
            draws = zig, (ctypes.c_void_p * rows)(*map(_bitgen, gens))
    init = _sourced(noise_source, indices, -1, 2)
    steps = (
        _steps_numpy if kernel is None
        else functools.partial(_steps_compiled, kernel, draws=draws)
    )
    sx = math.sqrt(1.0 / (params.inverse_temperature * m * w0**2))
    sv = math.sqrt(1.0 / (params.inverse_temperature * m))
    x = np.ascontiguousarray(init[:, 0] * sx, dtype=np.float64)
    v = np.ascontiguousarray(init[:, 1] * sv, dtype=np.float64)

    bounds = [*range(0, burn, CHUNK_STEPS), *range(burn, total, CHUNK_STEPS), total]
    for start, stop in zip(bounds, bounds[1:]):
        n = stop - start
        if draws is None:
            noise = _sourced(noise_source, indices, start, n)
        else:
            noise = work[0, : rows * n].reshape(rows, n)  # the kernel draws into it
        buf_x = buf_v = None
        if start >= burn:
            buf_x, buf_v = work[1:, : rows * n].reshape(2, rows, n)
        x, v, failure = steps(drive, x, v, noise, buf_x, buf_v, dt, w0, force, m)
        if failure is not None:
            k, bad = failure
            raise ExcursionError(
                time=(start + k + 1) * dt, position=float(x[bad]),
                index=indices[bad],
            )
        if buf_x is not None:
            for c in consumers:
                c.feed(indices, (start - burn) * dt, dt, buf_x, buf_v)

    # final state, at step `total`, which SimConfig keeps at or past `burn`
    for c in consumers:
        c.feed(indices, (total - burn) * dt, dt, x[:, None], v[:, None])
    return x, v


def run_ensemble(
    table: CoefficientTable,
    params: SystemParams,
    sim: SimConfig,
    *,
    consumer_factories=(),
    threads: int = 1,
    velocities: bool = True,
):
    """Integrate an ensemble while consumers stream the full-rate states.

    Returns (record, consumers): the recorded :class:`Trajectory` with one
    row per member in index order, and one consumer per factory.  Members
    run in fixed blocks of ``BLOCK_SIZE`` indices, each with its own
    instance of every factory and a :class:`SeriesAccumulator` per record
    array that writes its rows of it; after the workers join,
    ``consumers[j]`` is factory j's first-block instance with the later
    blocks' instances merged into it, in block order, by ``absorb``.  The
    partition does not depend on ``threads``, so the results are identical
    for any worker count.  Each worker reuses one set of stepper buffers
    across its blocks.  With ``velocities`` false the record holds the
    positions alone (``velocities`` None), which saves an array its size.
    """
    blocks = [
        range(start, min(start + BLOCK_SIZE, sim.ensemble_size))
        for start in range(0, sim.ensemble_size, BLOCK_SIZE)
    ]
    positions = np.empty((sim.ensemble_size, sim.recorded_samples))
    speeds = np.empty_like(positions) if velocities else None
    factories = [lambda: SeriesAccumulator(lambda xs, vs: xs, sim.record_stride, positions)]
    if velocities:
        factories.append(
            lambda: SeriesAccumulator(lambda xs, vs: vs, sim.record_stride, speeds))
    recorders = len(factories)
    factories += consumer_factories
    consumers = [[f() for f in factories] for _ in blocks]
    buffers = threading.local()

    def advance(block, block_consumers):
        if not hasattr(buffers, "work"):
            buffers.work = np.empty(_work_size(len(blocks[0]), sim))
        return _integrate_block(table, params, sim, block, block_consumers,
                                work=buffers.work)

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(advance, blocks, consumers))
    else:
        list(map(advance, blocks, consumers))

    merged = consumers[0]
    for later in consumers[1:]:
        for head, extra in zip(merged, later):
            head.absorb(extra)
    return Trajectory(sim.record_times(), positions, speeds), tuple(merged[recorders:])
