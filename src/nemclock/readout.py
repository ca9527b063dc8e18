"""Current transduction and tick extraction.

The transduced current is maximal where the table's current column peaks, so
a tick is registered whenever the position crosses that argmax level (in
either direction); each crossing instant is refined by linear interpolation
between the two straddling samples, and crossings inside the refractory
window of the previous tick are discarded greedily.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

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
    """Strictly increasing tick times with their detection provenance."""

    tick_times: np.ndarray
    detection_policy: DetectionPolicy
    source: str

    def __post_init__(self):
        times = np.asarray(self.tick_times, dtype=float)
        object.__setattr__(self, "tick_times", times)
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


def transduce(traj: Trajectory, table: CoefficientTable) -> np.ndarray:
    """Current series I(t_i) along a trajectory, on its sampling grid."""
    lo, hi = table.grid[0], table.grid[-1]
    xmin, xmax = float(np.min(traj.positions)), float(np.max(traj.positions))
    if xmin < lo or xmax > hi:
        worst = xmin if abs(xmin) > abs(xmax) else xmax
        raise ExcursionError(time=float("nan"), position=worst, index=traj.index)
    return np.asarray(column_interpolant(table, "current")(traj.positions))


class TickAccumulator:
    """Streaming crossing detector usable chunk-by-chunk.

    Feed contiguous full-resolution position blocks (shape (block, n)); the
    accumulator carries the last sample and kept ticks per trajectory, so
    chunk boundaries are seamless.  A crossing between a member's samples k
    and k + 1, counted from its first feed at ``origin``, is timed as
    ``origin + dt*(k + fraction)`` with integer k, so chunking cannot move it.
    Crossings are filtered greedily by the refractory window.
    """

    def __init__(self, level: float, refractory: float):
        self.level = float(level)
        self.refractory = float(refractory)
        self._prev = {}   # index -> (origin, samples fed, last position)
        self._ticks = {}  # index -> list of kept tick times

    def feed(self, indices, t0, dt, xs, vs=None):
        xs = np.asarray(xs)
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
    traj: Trajectory,
    table: CoefficientTable,
    policy: DetectionPolicy | None = None,
) -> TickSeries:
    """Extract the tick series of one trajectory.

    The crossing level defaults to the current-column argmax; ticks are
    crossings in both directions, trimmed by the refractory window.
    """
    resolved = (policy or DetectionPolicy()).resolve(table)
    acc = TickAccumulator(level=resolved.level, refractory=resolved.refractory)
    if traj.positions.size:
        acc.feed(
            [traj.index],
            float(traj.times[0]),
            traj.sample_spacing,
            traj.positions[None, :],
        )
    return TickSeries(
        tick_times=acc.tick_times(traj.index),
        detection_policy=resolved,
        source=traj.fingerprint(),
    )
