"""Current transduction and tick extraction.

Both take the recorded ensemble, one :class:`Trajectory` with a row per
member.  The transduced current is maximal where the table's current column
peaks, so a tick is registered whenever the position crosses that argmax
level (in either direction); each crossing instant is refined by linear
interpolation between the two straddling samples, and crossings inside the
refractory window of the previous tick are discarded greedily.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import langevin
from .langevin import ExcursionError, Trajectory, column_interpolant
from .transport import CoefficientTable

__all__ = [
    "DetectionPolicy",
    "TickSeries",
    "TickAccumulator",
    "current_level_maximum",
    "transduce",
    "detect_ticks",
]


@dataclass(frozen=True)
class DetectionPolicy:
    """Crossing level and dead time of the tick trigger.

    ``level=None`` resolves to the grid argmax of the current column.  The
    default refractory window is a quarter half-period at unit oscillator
    frequency — long enough to absorb noise-split double crossings, short
    enough never to swallow a genuine half-period later.
    """

    level: float | None = None
    refractory: float = 0.25 * math.pi

    def __post_init__(self):
        if self.refractory < 0:
            raise ValueError("refractory must be >= 0")

    def resolve(self, table: CoefficientTable) -> "DetectionPolicy":
        """This policy with ``level=None`` replaced by the current maximum."""
        if self.level is not None:
            return self
        return replace(self, level=current_level_maximum(table))


@dataclass(frozen=True, eq=False)
class TickSeries:
    """One member's finite, strictly increasing tick times, with their
    detection policy."""

    tick_times: np.ndarray
    detection_policy: DetectionPolicy

    def __post_init__(self):
        times = np.asarray(self.tick_times, dtype=float)
        object.__setattr__(self, "tick_times", times)
        if not np.all(np.isfinite(times)):
            raise ValueError("tick times must be finite")
        if times.size > 1:
            gaps = np.diff(times)
            if not np.all(gaps > 0):
                raise ValueError("tick times must be strictly increasing")
            if np.any(gaps < self.detection_policy.refractory):
                raise ValueError("tick gaps violate the refractory window")

    def __len__(self):
        return self.tick_times.size


def current_level_maximum(table: CoefficientTable) -> float:
    """Position of the current maximum, resolved on the table grid."""
    return float(table.grid[int(np.argmax(table.column("current")))])


def _refuse_excursion(record: Trajectory, inside: np.ndarray) -> None:
    """Raise ExcursionError at the first sample, in row order, where the
    boolean array ``inside`` is false."""
    outside = np.argwhere(~inside)
    if outside.size:
        row, col = outside[0]
        x = float(record.positions[row, col])
        raise ExcursionError(time=float(record.times[col]), position=x, index=int(row))


def transduce(record: Trajectory, table: CoefficientTable, out=None) -> np.ndarray:
    """Current series I(t_i) of every member, shape (members, n), on the
    record's sampling grid; the first sample off the table grid, NaN and
    +-inf included, raises, before anything is written.  ``out``, a
    C-contiguous float64 array of that shape, receives the series; it may
    be ``record.positions`` itself, which then holds the currents."""
    lo, hi = table.grid[0], table.grid[-1]
    x = np.asarray(record.positions)
    # NaN makes min or max NaN, which fails both comparisons
    if x.size and not (lo <= x.min() and x.max() <= hi):
        _refuse_excursion(record, (lo <= x) & (x <= hi))
    return np.asarray(column_interpolant(table, "current")(x, out=out))


class TickAccumulator:
    """Streaming crossing detector usable chunk-by-chunk.

    Feed contiguous full-resolution position blocks (shape (block, n)); the
    accumulator carries the last sample and kept ticks per trajectory, so
    chunk boundaries are seamless.  A crossing between a member's samples k
    and k + 1, counted from its first feed at ``origin``, is timed as
    ``origin + dt*(k + fraction)`` with integer k, so chunking cannot move it.
    Crossings are filtered greedily by the refractory window.

    The compiled kernel finds and keeps a feed's crossings for every row at
    once when it loads; :meth:`_feed_numpy` is its oracle and fallback, and
    also takes any feed that is not a float64 block with a row per index.
    """

    def __init__(self, level: float, refractory: float):
        self.level = float(level)
        self.refractory = float(refractory)
        self._prev = {}   # index -> (origin, samples fed, last position)
        self._ticks = {}  # index -> list of kept tick times

    def feed(self, indices, t0, dt, xs, vs=None):
        xs = np.asarray(xs)
        kernel = langevin._kernel()
        if (kernel is None or xs.dtype != np.float64 or xs.ndim != 2
                or xs.shape[0] < len(indices)):
            return self._feed_numpy(indices, t0, dt, xs)
        # (origin, seen, last position, last kept tick); a kept list is never empty
        state = [(*self._prev.get(idx, (t0, 0, None)), self._ticks.get(idx, [None])[-1])
                 for idx in indices]
        kept, counts = langevin._crossings_compiled(
            kernel, xs[: len(indices)], state, self.level, dt, self.refractory
        )
        n, start = xs.shape[1], 0
        for idx, (origin, seen, *_), count, px in zip(
            indices, state, counts, xs[: len(indices), -1].tolist()
        ):
            if count:
                self._ticks.setdefault(idx, []).extend(kept[start : start + count])
                start += count
            self._prev[idx] = (origin, seen + n, px)

    def _feed_numpy(self, indices, t0, dt, xs):
        """Reference feed: the crossings of each row by NumPy, then the
        refractory window in Python."""
        for row, idx in enumerate(indices):
            origin, seen, px = self._prev.get(idx, (t0, 0, None))
            series = xs[row] if px is None else np.concatenate([[px], xs[row]])
            above = series >= self.level
            flips = np.nonzero(above[1:] != above[:-1])[0]
            if flips.size:
                x0 = series[flips]
                x1 = series[flips + 1]
                k = max(seen - 1, 0) + flips
                cross = origin + dt * (k + (self.level - x0) / (x1 - x0))
                kept = self._ticks.setdefault(idx, [])
                for t in cross:
                    if not kept or t - kept[-1] >= self.refractory:
                        kept.append(t)
            self._prev[idx] = (origin, seen + xs.shape[1], xs[row, -1])

    def absorb(self, other: "TickAccumulator") -> None:
        """Take over another block's members (blocks never share one)."""
        self._prev.update(other._prev)
        self._ticks.update(other._ticks)

    def tick_times(self, index) -> np.ndarray:
        return np.array(self._ticks.get(index, []), dtype=float)


def detect_ticks(
    record: Trajectory,
    table: CoefficientTable,
    policy: DetectionPolicy | None = None,
) -> tuple[TickSeries, ...]:
    """Extract one tick series per member of the record, in row order.

    The crossing level defaults to the current-column argmax; ticks are
    crossings in both directions, trimmed by the refractory window.  The
    first non-finite sample raises, before any row is fed.
    """
    _refuse_excursion(record, np.isfinite(record.positions))
    resolved = (policy or DetectionPolicy()).resolve(table)
    acc = TickAccumulator(level=resolved.level, refractory=resolved.refractory)
    rows = range(record.positions.shape[0])
    if record.positions.size:
        acc.feed(rows, float(record.times[0]), record.sample_spacing, record.positions)
    return tuple(TickSeries(acc.tick_times(row), resolved) for row in rows)
