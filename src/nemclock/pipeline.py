"""Experiment drivers that tie transport tables to trajectory ensembles.

The drivers pick a position grid sized to the dynamics it will host, run
ensembles with streaming consumers (tick detection, position histograms,
transduced-current sampling) so nothing needs full-rate storage, and bundle
the results for the analysis stages.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .langevin import (
    SeriesAccumulator,
    SimConfig,
    Trajectory,
    column_interpolant,
    run_ensemble,
)
from .params import SystemParams
from .readout import DetectionPolicy, TickAccumulator, TickSeries
from .toymodels import limit_cycle_amplitude, reduced_coefficients
from .transport import (
    CoefficientTable,
    GridSpec,
    build_coefficient_table,
    friction_and_diffusion,
)

__all__ = [
    "HistogramAccumulator",
    "SeriesAccumulator",
    "Corpus",
    "default_grid",
    "run_ensemble",
    "build_corpus",
    "pooled_waiting_times",
    "ensemble_allan",
]

PROBE_NODES = 241
SIGMA_MARGIN = 8.0


class HistogramAccumulator:
    """Streams post-burn-in positions into fixed-bin counts."""

    def __init__(self, edges):
        self.edges = np.asarray(edges, dtype=float)
        self.counts = np.zeros(self.edges.size - 1)
        self.total = 0

    def feed(self, indices, t0, dt, xs, vs=None):
        counts, _ = np.histogram(xs, bins=self.edges)
        self.counts += counts
        self.total += xs.size

    def absorb(self, other: "HistogramAccumulator") -> None:
        self.counts += other.counts
        self.total += other.total

    def density(self) -> np.ndarray:
        """Probability density at the bin midpoints."""
        if self.total == 0:
            raise RuntimeError("histogram accumulated no samples")
        width = self.edges[1] - self.edges[0]
        return self.counts / (self.total * width)


@dataclass(frozen=True, eq=False)
class Corpus:
    """One operating point's simulated evidence, ready for analysis."""

    params: SystemParams
    table: CoefficientTable
    sim: SimConfig
    policy: DetectionPolicy
    ticks: tuple
    position_density: np.ndarray
    position_count: int
    record: Trajectory
    currents: np.ndarray | None = None
    current_time_step: float | None = None


def _thermal_spread(params: SystemParams) -> float:
    return math.sqrt(
        1.0
        / (
            params.inverse_temperature
            * params.oscillator_mass
            * params.oscillator_frequency**2
        )
    )


def default_grid(
    params: SystemParams,
    *,
    nodes: int = GridSpec.nodes,
    threads: int = 1,
) -> GridSpec:
    """Position grid sized to hold the stationary dynamics.

    Below the oscillation threshold the grid spans ten standard deviations
    of the damped fluctuations.  Above it, a coarse probe table locates the
    limit cycle and the grid spans the larger of 1.5 amplitudes and the
    amplitude plus eight standard deviations of its fluctuations, so
    excursions past the edge are astronomically unlikely over long runs.
    The probe table is built on the calling thread; ``threads`` has no
    effect (see :func:`~nemclock.transport.build_coefficient_table`).
    """
    if params.force == 0.0:
        return GridSpec(x_max=10.0 * _thermal_spread(params), nodes=nodes)
    gamma0, diffusion0 = friction_and_diffusion(0.0, params)
    if gamma0 >= 0.0:
        if gamma0 == 0.0:
            spread = _thermal_spread(params)
        else:
            spread = math.sqrt(
                diffusion0
                / (
                    2.0
                    * params.oscillator_mass**2
                    * gamma0
                    * params.oscillator_frequency**2
                )
            )
        return GridSpec(x_max=10.0 * spread, nodes=nodes)
    probe_span = (
        max(abs(params.left.band_center), abs(params.right.band_center))
        + max(params.left.bandwidth, params.right.bandwidth)
        + 4.0 / params.inverse_temperature
        + abs(params.voltage) / 2.0
        + abs(params.dot_energy)
    ) / abs(params.force)
    probe = build_coefficient_table(
        params, GridSpec(x_max=probe_span, nodes=PROBE_NODES)
    )
    amplitude = limit_cycle_amplitude(probe, params)
    if amplitude is None:
        raise RuntimeError("probe table contradicts the threshold gate")
    cycle = reduced_coefficients(probe, params, amplitude)
    spread = math.sqrt(cycle.amplitude_variance)
    x_max = max(1.5 * amplitude, amplitude + SIGMA_MARGIN * spread)
    return GridSpec(x_max=x_max, nodes=nodes)


def build_corpus(
    table: CoefficientTable,
    params: SystemParams,
    sim: SimConfig,
    *,
    policy: DetectionPolicy | None = None,
    current_stride: int | None = None,
    threads: int = 1,
) -> Corpus:
    """Run one operating point and collect the recorded ensemble, ticks,
    the stationary position density on the table grid, and optionally
    strided current series, a row per member.

    Ticks, density and currents come from ``run_ensemble``'s merged
    consumers, so they see every full-rate state whatever ``record_stride``
    is; the stride only thins the record.
    """
    resolved = (policy or DetectionPolicy()).resolve(table)
    half = (table.grid[1] - table.grid[0]) / 2.0
    edges = np.append(table.grid - half, table.grid[-1] + half)

    factories = [
        lambda: TickAccumulator(level=resolved.level, refractory=resolved.refractory),
        lambda: HistogramAccumulator(edges),
    ]
    currents = None
    if current_stride is not None:
        current = column_interpolant(table, "current")
        n = (sim.total_steps - sim.burn_steps) // current_stride + 1
        currents = np.empty((sim.ensemble_size, n))
        factories.append(
            lambda: SeriesAccumulator(
                lambda xs, vs: current(xs), current_stride, currents
            )
        )

    record, (ticks, hist, *_) = run_ensemble(
        table, params, sim, consumer_factories=factories, threads=threads
    )
    members = range(sim.ensemble_size)
    return Corpus(
        params=params,
        table=table,
        sim=sim,
        policy=resolved,
        ticks=tuple(TickSeries(ticks.tick_times(i), resolved) for i in members),
        position_density=hist.density(),
        position_count=hist.total,
        record=record,
        currents=currents,
        current_time_step=None if currents is None else sim.time_step * current_stride,
    )


def pooled_waiting_times(ticks_list) -> np.ndarray:
    """Waiting times pooled across members (never differenced across the
    member boundary)."""
    gaps = [np.diff(ts.tick_times) for ts in ticks_list if len(ts) >= 2]
    if not gaps:
        raise ValueError("no member has two ticks")
    return np.concatenate(gaps)


def ensemble_allan(ticks_list, mean_wait: float, T_values):
    """Allan variance per member, averaged across the ensemble."""
    # imported here: loading the analysis modules and numpy.fft costs about
    # 30 ms of CPU, which the table and ensemble callers would pay at import
    from .clockstats import allan_variance

    T_values = [float(t) for t in T_values]
    sums = np.zeros(len(T_values))
    used = 0
    for ts in ticks_list:
        rows = allan_variance(ts, mean_wait, T_values)
        sums += np.array([value for _, value in rows])
        used += 1
    if used == 0:
        raise ValueError("empty ensemble")
    return [(T, s / used) for T, s in zip(T_values, sums)]
