"""Reduced models of the self-oscillating clock.

From a coefficient table this module extracts the deterministic limit-cycle
amplitude and the four numbers that govern slow fluctuations around it
(amplitude relaxation and diffusion, phase diffusion), evaluates closed-form
correlation functions of the reduced models, and simulates the matching toy
processes for cross-checks: an Ornstein-Uhlenbeck amplitude, a diffusing
phase, a two-state telegraph current, and an amplitude-plus-phase current
with an offset readout.

Phase-averaged cycle integrals use a uniform angular grid, where the
trapezoid rule over a full period is spectrally accurate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .langevin import _stream, column_interpolant
from .params import SystemParams
from .transport import CoefficientTable

__all__ = [
    "ReducedCycle",
    "TelegraphParams",
    "OffsetModelParams",
    "OUAmplitude",
    "PhaseDiffusion",
    "limit_cycle_amplitude",
    "reduced_coefficients",
    "analytic_position_autocorrelation",
    "telegraph_statics",
    "telegraph_correlation",
    "offset_model_correlation",
    "simulate_toy",
]

PHASE_POINTS = 256
SCAN_NODES = 64
# scipy.optimize.brentq's defaults
BRENT_XTOL = 2e-12
BRENT_RTOL = 4 * float(np.finfo(float).eps)
BRENT_MAXITER = 100


@dataclass(frozen=True)
class ReducedCycle:
    """Slow-variable coefficients of a stable limit cycle."""

    amplitude: float
    amplitude_damping: float
    amplitude_diffusion: float
    phase_diffusion: float

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError("amplitude must be > 0")
        if not self.amplitude_damping > 0:
            raise ValueError("a stable cycle needs positive amplitude damping")
        if self.amplitude_diffusion < 0 or self.phase_diffusion < 0:
            raise ValueError("diffusion coefficients must be >= 0")

    @property
    def amplitude_variance(self) -> float:
        return self.amplitude_diffusion / (2.0 * self.amplitude_damping)

    @property
    def quality_ratio(self) -> float:
        """Phase-diffusion rate over amplitude-relaxation rate, /4."""
        return self.phase_diffusion / (4.0 * self.amplitude_damping)


@dataclass(frozen=True)
class TelegraphParams:
    """Two-state jump process: leave state i at rate ``rates[i]``, emit
    ``levels[i]`` while there."""

    rates: tuple
    levels: tuple

    def __post_init__(self):
        if len(self.rates) != 2 or len(self.levels) != 2:
            raise ValueError("telegraph model has exactly two states")
        if not all(r > 0 for r in self.rates):
            raise ValueError("switching rates must be > 0")


@dataclass(frozen=True)
class OUAmplitude:
    """Toy spec: amplitude alone, relaxing around the cycle radius."""

    cycle: ReducedCycle


@dataclass(frozen=True)
class PhaseDiffusion:
    """Toy spec: free-running phase with white frequency noise."""

    cycle: ReducedCycle


@dataclass(frozen=True)
class OffsetModelParams:
    """Toy spec: current A(t)*(cos(phase) - offset) + baseline."""

    cycle: ReducedCycle
    offset: float = 0.0
    baseline: float = 0.0


def _phase_grid():
    phi = 2.0 * np.pi * np.arange(PHASE_POINTS) / PHASE_POINTS
    return np.cos(phi), np.sin(phi)


def _coverage(table: CoefficientTable) -> float:
    return min(-float(table.grid[0]), float(table.grid[-1]))


def _drift_function(table: CoefficientTable, params: SystemParams):
    """Radial drift of the amplitude, averaged over one cycle.

    Returns a callable accepting an array of amplitudes; every amplitude must
    keep A*cos(phi) inside the table.
    """
    gamma = column_interpolant(table, "friction")
    diff = column_interpolant(table, "diffusion")
    cos_phi, sin_phi = _phase_grid()
    m = params.oscillator_mass
    w0 = params.oscillator_frequency
    reach = _coverage(table)

    def drift(amplitudes):
        a = np.atleast_1d(np.asarray(amplitudes, dtype=float))
        if np.any(a <= 0):
            raise ValueError("amplitude must be > 0")
        if np.any(a > reach):
            raise ValueError(
                f"amplitude {a.max():.6g} exceeds table coverage {reach:.6g}"
            )
        x = a[:, None] * cos_phi[None, :]
        damping = np.mean(gamma(x) * sin_phi**2, axis=1)
        feeding = np.mean(diff(x) * cos_phi**2, axis=1)
        return -a * damping + feeding / (2.0 * a * w0**2 * m**2)

    return drift


def limit_cycle_amplitude(table: CoefficientTable, params: SystemParams) -> float | None:
    """Self-consistent oscillation amplitude, or None below threshold.

    The oscillator self-excites only where small-amplitude friction is
    negative; otherwise the fixed point at the origin is stable and there is
    no cycle.  Above threshold the radial drift is scanned on a logarithmic
    amplitude ladder and the root is polished by Brent's method
    (:func:`brentq`).
    """
    gamma = column_interpolant(table, "friction")
    if float(gamma(0.0)) >= 0.0:
        return None
    drift = _drift_function(table, params)
    hi = _coverage(table) / 1.5
    ladder = np.geomspace(hi * 1e-3, hi, SCAN_NODES)
    values = drift(ladder)
    sign_change = np.nonzero((values[:-1] > 0) & (values[1:] <= 0))[0]
    if sign_change.size == 0:
        raise RuntimeError(
            "self-excited but no amplitude root inside the table: "
            f"drift({ladder[-1]:.4g}) = {values[-1]:.4g}; enlarge the grid"
        )
    i = int(sign_change[0])
    return brentq(lambda a: float(drift(a)[0]), float(ladder[i]), float(ladder[i + 1]))


def brentq(f, xa: float, xb: float) -> float:
    """Root of ``f`` in a sign-changing bracket by Brent's method: scipy's C
    ``brentq`` (scipy 1.17) step for step, so it returns the same float as
    ``scipy.optimize.brentq`` with its default tolerances."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"brentq did not converge in {BRENT_MAXITER} iterations")


def reduced_coefficients(
    table: CoefficientTable, params: SystemParams, amplitude: float
) -> ReducedCycle:
    """Slow-variable coefficients at a given cycle amplitude.

    Amplitude damping is the negative slope of the radial drift at the fixed
    point (positive at a stable cycle); the diffusion coefficients are cycle
    averages of the position-dependent noise against the matching quadrature
    weights.
    """
    drift = _drift_function(table, params)
    h = 1e-3 * amplitude
    slope = (drift(amplitude + h) - drift(amplitude - h))[0] / (2.0 * h)
    diff = column_interpolant(table, "diffusion")
    cos_phi, sin_phi = _phase_grid()
    x = amplitude * cos_phi
    m = params.oscillator_mass
    w0 = params.oscillator_frequency
    d_amp = float(np.mean(diff(x) * sin_phi**2)) / (w0**2 * m**2)
    d_phase = float(np.mean(diff(x) * cos_phi**2)) / (
        amplitude**2 * w0**2 * m**2
    )
    return ReducedCycle(
        amplitude=float(amplitude),
        amplitude_damping=float(-slope),
        amplitude_diffusion=d_amp,
        phase_diffusion=d_phase,
    )


def analytic_position_autocorrelation(cycle: ReducedCycle, w0: float, t):
    """Stationary position autocorrelation of the reduced model."""
    t = np.abs(np.asarray(t, dtype=float))
    envelope = cycle.amplitude**2 + cycle.amplitude_variance * np.exp(
        -2.0 * cycle.amplitude_damping * t
    )
    return 0.5 * envelope * np.cos(w0 * t) * np.exp(-0.5 * cycle.phase_diffusion * t)


def telegraph_statics(p: TelegraphParams):
    """Stationary occupation vector and the finite-time transition kernel.

    The kernel maps a lag to the 2x2 matrix of conditional probabilities
    P[j at t | i at 0]; each row sums to one exactly.
    """
    l1, l2 = p.rates
    total = l1 + l2
    stationary = np.array([l2 / total, l1 / total])

    def kernel(t: float) -> np.ndarray:
        hop = 1.0 - math.exp(-total * t)
        p12 = (l1 / total) * hop
        p21 = (l2 / total) * hop
        return np.array([[1.0 - p12, p12], [p21, 1.0 - p21]])

    return stationary, kernel


def telegraph_correlation(p: TelegraphParams, t):
    """Autocovariance of the emitted level."""
    l1, l2 = p.rates
    total = l1 + l2
    gap = p.levels[1] - p.levels[0]
    t = np.abs(np.asarray(t, dtype=float))
    return gap**2 * l1 * l2 * np.exp(-total * t) / total**2


def offset_model_correlation(p: OffsetModelParams, w0: float, t):
    """Autocovariance of A(t)*(cos(phase) - offset) + baseline.

    The baseline drops out; the offset couples the readout to amplitude
    fluctuations and adds their covariance on top of the position term.
    """
    t = np.abs(np.asarray(t, dtype=float))
    position = analytic_position_autocorrelation(p.cycle, w0, t)
    amp = p.offset**2 * p.cycle.amplitude_variance * np.exp(
        -2.0 * p.cycle.amplitude_damping * t
    )
    return position + amp


def _simulate_telegraph(p: TelegraphParams, times, rng):
    l1, l2 = p.rates
    stationary, _ = telegraph_statics(p)
    state = 0 if rng.random() < stationary[0] else 1
    duration = float(times[-1])
    series = np.empty(times.size)
    t = 0.0
    cursor = 0
    while cursor < times.size:
        hold = rng.exponential(1.0 / p.rates[state])
        t_next = t + hold
        upto = int(np.searchsorted(times, min(t_next, duration), side="right"))
        series[cursor:upto] = p.levels[state]
        cursor = upto
        t = t_next
        state = 1 - state
    return series


def _ar1_loop(noise, rho, scale, start):
    """The AR(1) recursion y[k] = rho * y[k-1] + scale * noise[k], with
    rho * y[-1] = start, one step at a time.  Each step rounds as
    ``scipy.signal.lfilter([scale], [1, -rho], noise, zi=[start])`` does."""
    out = np.empty(len(noise))
    state = start
    for k, kick in enumerate(np.asarray(noise, dtype=float).tolist()):
        out[k] = state = state + scale * kick
        state = rho * state
    return out


def _exact_ou_path(cycle: ReducedCycle, first: float, time_step: float, noise) -> np.ndarray:
    """Amplitude path from the exact conditional law of the linear SDE.

    Both the decay factor and the per-step kick follow the transition
    density, so the sampled path is distributed correctly at any step size
    (no Euler discretisation bias); one standard normal is consumed per step.
    """
    rho = math.exp(-cycle.amplitude_damping * time_step)
    scale = math.sqrt(cycle.amplitude_variance * (1.0 - rho * rho))
    deviations = _ar1_loop(noise, rho, scale, rho * (first - cycle.amplitude))
    return np.concatenate([[first], cycle.amplitude + deviations])


def simulate_toy(spec, duration: float, time_step: float, seed: int, *, frequency: float = 1.0):
    """Sample one path of a toy process on a uniform time grid.

    Returns (times, series).  Linear channels use exact conditional updates,
    so the sampled law has no step-size bias.  The draw order per spec type
    is fixed, so a given seed always yields the same path regardless of
    caller context:

    - OUAmplitude: one stationary initial draw, then one normal per step.
    - PhaseDiffusion: phase starts at zero; one normal per step.  The series
      is the unwrapped phase.
    - TelegraphParams: one uniform for the initial state, then exact
      exponential holding times.
    - OffsetModelParams: one uniform phase, one stationary amplitude draw,
      then two normals per step (amplitude first).
    """
    if duration <= 0 or time_step <= 0:
        raise ValueError("duration and time_step must be > 0")
    n_steps = int(round(duration / time_step))
    if n_steps < 1:
        raise ValueError("duration shorter than one step")
    times = np.arange(n_steps + 1) * time_step
    rng = _stream(seed, 0)

    if isinstance(spec, TelegraphParams):
        return times, _simulate_telegraph(spec, times, rng)

    if isinstance(spec, OUAmplitude):
        c = spec.cycle
        first = c.amplitude + math.sqrt(c.amplitude_variance) * rng.standard_normal()
        noise = rng.standard_normal(n_steps)
        return times, _exact_ou_path(c, first, time_step, noise)

    if isinstance(spec, PhaseDiffusion):
        c = spec.cycle
        noise = rng.standard_normal(n_steps)
        increments = frequency * time_step + math.sqrt(
            c.phase_diffusion * time_step
        ) * noise
        series = np.concatenate([[0.0], np.cumsum(increments)])
        return times, series

    if isinstance(spec, OffsetModelParams):
        c = spec.cycle
        phi0 = rng.uniform(0.0, 2.0 * np.pi)
        a0 = c.amplitude + math.sqrt(c.amplitude_variance) * rng.standard_normal()
        noise = rng.standard_normal((n_steps, 2))
        amp = _exact_ou_path(c, a0, time_step, noise[:, 0])
        dphi = frequency * time_step + math.sqrt(c.phase_diffusion * time_step) * noise[:, 1]
        phase = phi0 + np.concatenate([[0.0], np.cumsum(dphi)])
        series = amp * (np.cos(phase) - spec.offset) + spec.baseline
        return times, series

    raise TypeError(f"unknown toy spec {type(spec).__name__}")
