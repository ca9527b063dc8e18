"""Clock-performance estimators: correlations, spectra, waiting times,
accuracy/resolution, entropy cost, and Allan variance.

All estimators are pure functions of immutable inputs.  Statistical
quantities follow fixed conventions so fixed-seed runs are regression-stable:
correlation estimates subtract the pooled mean and use unbiased per-lag
divisors; the spectrum is the discrete cosine transform of the symmetrically
extended correlation plus the white shot-noise floor.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.ma  # noqa: F401  np.median's NaN check imports it inside a call
from numpy import fft

from .params import SystemParams
from .readout import TickSeries
from .tickinfo import next_fast_len
from .transport import CoefficientTable

__all__ = [
    "EstimatorWarning",
    "CorrelationCurve",
    "Spectrum",
    "WtdFit",
    "autocorrelation",
    "power_spectrum",
    "spectrum_peak",
    "spectrum_fwhm",
    "linewidth_fit",
    "fit_inverse_gaussian",
    "accuracy_resolution",
    "entropy_per_tick",
    "allan_variance",
    "default_allan_grid",
    "renewal_allan_asymptote",
]


_SQRT1_2 = 0.7071067811865476  # 1/sqrt(2) rounded, as C's M_SQRT1_2
_SQRT_PI = math.sqrt(math.pi)


class EstimatorWarning(UserWarning):
    """A statistical estimate is degenerate or at the edge of validity."""


@dataclass(frozen=True, eq=False)
class CorrelationCurve:
    """Stationary autocovariance on a uniform lag grid."""

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if lags.shape != values.shape or lags.ndim != 1:
            raise ValueError("lags and values must be matching 1-D arrays")
        steps = np.diff(lags)
        if lags.size > 1 and not np.allclose(steps, steps[0], rtol=1e-9):
            raise ValueError("lag grid must be uniform")
        # a true autocovariance satisfies |C(tau)| <= C(0), but an unbiased
        # estimate can exceed it by statistical fluctuation (later lags have
        # fewer pairs); only gross violations indicate a construction bug
        peak = abs(values[0])
        slack = 0.05 * peak + 1e-12
        if np.any(np.abs(values) > peak + slack):
            worst = float(np.max(np.abs(values)))
            raise ValueError(
                f"|C| exceeds C(0): {worst:.6g} > {values[0]:.6g}"
            )
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided power spectrum on a uniform frequency grid."""

    frequencies: np.ndarray
    values: np.ndarray
    floor: float

    @property
    def resolution(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])


@dataclass(frozen=True)
class WtdFit:
    """Waiting-time distribution fit in the (mean, variance) form."""

    mean: float
    variance: float
    sample_count: int
    ks_statistic: float

    def __post_init__(self):
        if not self.mean > 0:
            raise ValueError("fitted mean must be > 0")
        if not self.variance > 0:
            raise ValueError("fitted variance must be > 0")


def _as_matrix(ensemble) -> np.ndarray:
    series = np.asarray(ensemble, dtype=float)
    if series.ndim == 1:
        series = series[None, :]
    if series.ndim != 2:
        raise ValueError("ensemble must be 1-D or a stack of equal-length series")
    return series


def autocorrelation(ensemble, time_step: float, max_lag: int | None = None):
    """Autocovariance of stationary series, pooled over an ensemble.

    Subtracts the pooled mean, computes raw lag sums per series by FFT, and
    divides by the exact pair count per lag (unbiased in the stationary
    mean-known sense).  ``max_lag`` counts samples and defaults to half the
    series length.
    """
    series = _as_matrix(ensemble)
    n_series, length = series.shape
    if max_lag is None:
        max_lag = length // 2
    if max_lag >= length:
        raise ValueError(
            f"series of length {length} cannot support lag {max_lag}"
        )
    centered = series - series.mean()
    n_fft = next_fast_len(length + max_lag)
    raw = np.zeros(max_lag + 1)
    for row in centered:
        spec = fft.rfft(row, n_fft)
        acf = fft.irfft(spec * np.conj(spec), n_fft)
        raw += acf[: max_lag + 1]
    counts = n_series * (length - np.arange(max_lag + 1))
    values = raw / counts
    return CorrelationCurve(lags=np.arange(max_lag + 1) * time_step, values=values)


def power_spectrum(
    curve: CorrelationCurve,
    shot_noise_floor: float,
    *,
    lag_window: str = "none",
) -> Spectrum:
    """Spectrum of the correlation plus the white shot-noise floor.

    The curve is extended symmetrically to negative lags and transformed;
    the result is real by construction.  ``lag_window='hann'`` tapers the
    correlation before transforming (bias-variance trade-off knob).
    """
    values = curve.values
    if lag_window == "hann":
        m = values.size
        taper = 0.5 * (1.0 + np.cos(np.pi * np.arange(m) / max(m - 1, 1)))
        values = values * taper
    elif lag_window != "none":
        raise ValueError(f"unknown lag window {lag_window!r}")
    if curve.lags.size < 2:
        raise ValueError("need at least two lags for a spectrum")
    dt = float(curve.lags[1] - curve.lags[0])
    sym = np.concatenate([values, values[-2:0:-1]])
    power = fft.rfft(sym).real * dt + shot_noise_floor
    freqs = 2.0 * np.pi * fft.rfftfreq(sym.size, d=dt)
    return Spectrum(frequencies=freqs, values=power, floor=shot_noise_floor)


def _window_slice(spec: Spectrum, omega_window) -> slice:
    lo, hi = omega_window
    i0 = int(np.searchsorted(spec.frequencies, lo, side="left"))
    i1 = int(np.searchsorted(spec.frequencies, hi, side="right"))
    if i1 - i0 < 3:
        raise ValueError("frequency window contains fewer than 3 bins")
    return slice(i0, i1)


def spectrum_peak(spec: Spectrum, omega_window) -> tuple[float, float]:
    """(location, height) of the tallest bin in a window, refined by a
    parabola through the three bins around the maximum."""
    sl = _window_slice(spec, omega_window)
    w = spec.frequencies[sl]
    s = spec.values[sl]
    j = int(np.argmax(s))
    if 0 < j < s.size - 1:
        y0, y1, y2 = s[j - 1], s[j], s[j + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
        dw = w[1] - w[0]
        height = y1 - 0.25 * (y0 - y2) * shift
        return float(w[j] + shift * dw), float(height)
    return float(w[j]), float(s[j])


def spectrum_fwhm(spec: Spectrum, omega_window) -> float:
    """Full width at half maximum above the in-window base level.

    The base is the smaller of the window-edge medians, so a peak riding on
    the noise floor is measured relative to its pedestal.
    """
    sl = _window_slice(spec, omega_window)
    w = spec.frequencies[sl]
    s = spec.values[sl]
    j = int(np.argmax(s))
    if j == 0 or j == s.size - 1:
        raise ValueError("spectral peak sits at the window edge")
    edge = max(3, s.size // 20)
    base = min(float(np.median(s[:edge])), float(np.median(s[-edge:])))
    half = 0.5 * (s[j] + base)
    left = np.nonzero(s[: j + 1] < half)[0]
    right = np.nonzero(s[j:] < half)[0]
    if left.size == 0 or right.size == 0:
        raise ValueError("half-maximum level not reached inside the window")
    i = left[-1]
    k = j + right[0]
    wl = w[i] + (w[i + 1] - w[i]) * (half - s[i]) / (s[i + 1] - s[i])
    wr = w[k - 1] + (w[k] - w[k - 1]) * (half - s[k - 1]) / (s[k] - s[k - 1])
    return float(wr - wl)


def _profile_scan(tau, y, gammas, omegas):
    """``(gamma, omega, alpha, beta)`` of the grid point whose damped cosine
    ``exp(-gamma*tau/2) * (alpha*cos(omega*tau) + beta*sin(omega*tau))``
    fits ``y`` best, or None when no point has a finite cost.

    Amplitude and phase enter linearly, so each point solves them exactly
    and scores its profiled residual.  The point kept is the first least
    cost in gamma-major order, the one a strict ``<`` scan over gamma, then
    omega, keeps.  Each envelope is computed once and each cos/sin pair
    once per omega, and only one pair is held at a time.
    """
    envs = [np.exp(-0.5 * g * tau) for g in gammas]
    costs = np.full((gammas.size, omegas.size), math.inf)
    amps = np.zeros(costs.shape + (2,))
    for j, w in enumerate(omegas):
        cos_w, sin_w = np.cos(w * tau), np.sin(w * tau)
        for i, env in enumerate(envs):
            c = env * cos_w
            s = env * sin_w
            g11, g12, g22 = c @ c, c @ s, s @ s
            r1, r2 = c @ y, s @ y
            det = g11 * g22 - g12 * g12
            if det <= 0.0:
                continue
            alpha = (g22 * r1 - g12 * r2) / det
            beta = (g11 * r2 - g12 * r1) / det
            resid = y - alpha * c - beta * s
            costs[i, j] = resid @ resid
            amps[i, j] = alpha, beta
    # argmin takes the first least cost in C order; a NaN never wins a strict <
    k = np.argmin(np.where(costs < math.inf, costs, math.inf))
    i, j = divmod(int(k), omegas.size)
    if not costs[i, j] < math.inf:
        return None
    return gammas[i], omegas[j], amps[i, j, 0], amps[i, j, 1]


def linewidth_fit(curve: CorrelationCurve, omega_seed: float) -> tuple[float, float]:
    """Lorentzian-core linewidth of a spectral peak, fitted in the lag domain.

    A Lorentzian line of full width ``G`` at half maximum corresponds to a
    correlation envelope ``exp(-G*tau/2)``, so fitting an exponentially
    damped cosine to the measured correlation reads the width off directly.
    Any frequency-domain half-maximum readout is instead floored at the
    truncation kernel width ~pi/max_lag (the transform of a finite lag
    range convolves the line with that kernel), which hides sub-resolution
    width differences; the lag-domain fit has no such floor, its reach being
    set by the statistical noise of the correlation estimate instead.

    The fit window is fixed at 0.15 to 0.55 of the curve length (lags
    ``int(0.15 n)`` up to ``int(0.55 n)`` of an n-lag curve).  It excludes
    early lags, where fast decorrelation channels (amplitude relaxation)
    dominate, and the far tail, where the estimate is noisiest; what remains
    is the slow coherence core that forms the top of the spectral peak.
    ``omega_seed`` centres the frequency search (use :func:`spectrum_peak`).
    A plain least-squares fit is used rather than a log-envelope slope
    because the latter is biased wide by any additive noise floor.

    The model assumes one dominant decay channel inside the window and an
    envelope that has self-averaged to it.  When the ensemble is too small
    to average a slow, non-decaying noise channel (for a self-oscillator:
    amplitude wander far slower than the window span), that wander replaces
    the coherence decay as the fitted envelope and the result tracks the
    window choice rather than the line; cross-check against the width of
    :func:`power_spectrum`.  A width or frequency that ends on a bound of
    the fit's box is no measurement, and raises ``ValueError``.

    Returns ``(fwhm, omega)`` of the fitted line.
    """
    n = curve.values.size
    a, b = int(0.15 * n), int(0.55 * n)
    tau = curve.lags[a:b]
    y = curve.values[a:b]
    if tau.size < 32:
        raise ValueError("fit window contains fewer than 32 lags")
    tau_max = float(curve.lags[-1])
    tau_span = float(tau[-1] - tau[0])

    half_window = 10.0 * math.pi / tau_max
    omegas = omega_seed + np.linspace(-half_window, half_window, 33)
    gammas = np.geomspace(0.2 / tau_max, 60.0 / tau_span, 25)
    g0, w0, a0, b0 = _profile_scan(tau, y, gammas, omegas) or (
        gammas[0], omega_seed, 0.0, 0.0
    )

    step = omegas[1] - omegas[0]
    lower = np.array([-np.inf, -np.inf, gammas[0] / 10.0, w0 - 3.0 * step])
    upper = np.array([np.inf, np.inf, gammas[-1] * 10.0, w0 + 3.0 * step])
    fit = _damped_cosine_fit(tau, y, np.array([a0, b0, g0, w0]), lower, upper)
    if np.any((fit[2:] <= lower[2:]) | (fit[2:] >= upper[2:])):
        raise ValueError("the fitted width or frequency sits on a bound of its box")
    return float(fit[2]), float(fit[3])


def _damped_cosine_terms(p, tau, y):
    al, be, g, w = p
    env = np.exp(-0.5 * g * tau)
    cos_w, sin_w = np.cos(w * tau), np.sin(w * tau)
    return al * env * cos_w + be * env * sin_w - y, env, cos_w, sin_w


def _damped_cosine_fit(tau, y, start, lower, upper):
    """Least-squares ``(alpha, beta, gamma, omega)`` of the damped cosine
    ``exp(-gamma*tau/2) * (alpha*cos(omega*tau) + beta*sin(omega*tau))``
    to ``y``, within the box ``[lower, upper]``, refined from ``start``.

    Levenberg-Marquardt on the analytic Jacobian, with Marquardt's scaling
    by the diagonal of the normal matrix (a zero column, as at
    ``alpha = beta = 0``, is scaled by 1, so the damped matrix stays
    invertible).  A parameter on a bound that the descent direction pushes
    against is held there for the step.  Each trial point is clipped into
    the box and kept only if it lowers the cost; the damping then falls
    tenfold, and after a refused one it rises tenfold.  The fit stops when a
    kept step lowers the cost by at most 1e-12 of it, when the cost is 0, or
    when the damping passes 1e2 without a kept step.
    """
    x = np.asarray(start, dtype=float)
    r, env, cos_w, sin_w = _damped_cosine_terms(x, tau, y)
    cost = r @ r
    if not math.isfinite(cost):
        raise ValueError("residuals are not finite at the start point")
    damping = 1e-3
    for _ in range(100):
        if cost == 0.0:
            break
        al, be = x[0], x[1]
        c, s = env * cos_w, env * sin_w
        jac = np.stack([c, s, -0.5 * tau * (r + y), tau * (be * c - al * s)])
        normal = jac @ jac.T
        scale = np.sqrt(np.diag(normal))
        scale[scale == 0.0] = 1.0
        normal /= np.outer(scale, scale)
        grad = (jac @ r) / scale
        held = ((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0))
        normal[held, :] = normal[:, held] = 0.0
        normal[held, held] = 1.0
        grad[held] = 0.0
        while True:
            delta = np.linalg.solve(normal + damping * np.eye(4), grad) / scale
            trial = np.clip(x - delta, lower, upper)
            r_new, *rows = _damped_cosine_terms(trial, tau, y)
            new = r_new @ r_new
            if new < cost:
                break
            damping *= 10.0
            if damping > 1e2:
                return x
        gain = cost - new
        x, r, cost = trial, r_new, new
        env, cos_w, sin_w = rows
        damping *= 0.1
        if gain <= 1e-12 * (cost + gain):
            break
    return x


def fit_inverse_gaussian(samples) -> WtdFit:
    """Maximum-likelihood Wald fit with a goodness-of-fit statistic.

    The location-free ML estimates are mean = sample mean and shape from the
    mean inverse gap; the variance reported is the fitted model's
    mean^3/shape.  The Kolmogorov-Smirnov statistic is evaluated against the
    fitted law.
    """
    tau = np.asarray(samples, dtype=float)
    if tau.size < 100:
        raise ValueError(f"need >= 100 samples, got {tau.size}")
    if np.any(tau <= 0):
        raise ValueError("waiting times must be positive")
    mu = float(tau.mean())
    spread = float(np.mean(1.0 / tau) - 1.0 / mu)
    if spread <= 0 or np.var(tau) == 0:
        raise ValueError("degenerate (zero-variance) waiting times")
    lam = 1.0 / spread
    variance = mu**3 / lam
    ks = _ks_statistic_inverse_gaussian(tau, mu, lam)
    return WtdFit(
        mean=mu,
        variance=variance,
        sample_count=int(tau.size),
        ks_statistic=ks,
    )


def _ks_statistic_inverse_gaussian(tau: np.ndarray, mu: float, lam: float) -> float:
    """Two-sided KS statistic of `tau` against the Wald law (mean mu, shape lam).

    With x = tau/lam, m = mu/lam and f = 1/sqrt(x), the CDF
    Phi(f(x/m - 1)) + e^(2/m) Phi(-f(x/m + 1)) is summed in log space by the
    operations ``scipy.stats.kstest(tau, invgauss(m, scale=lam).cdf)`` runs
    (scipy 1.17), with :func:`_log_ndtr` in place of scipy's ``log_ndtr``;
    the tests hold the statistic within 2e-15 of scipy's.
    """
    n = tau.size
    x = np.sort(tau) / lam
    m = mu / lam
    fac = 1 / np.sqrt(x)
    a = _log_ndtr(fac * (x / m - 1))
    b = 2 / m + _log_ndtr(-fac * (x / m + 1))
    cdf = np.exp(a + np.log1p(np.exp(b - a)))
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


def _erfc(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, x.tolist()), float, count=x.size)


def _log_ndtr(a) -> np.ndarray:
    """log Phi(a), elementwise, with Phi the standard normal CDF.

    Above a = -1 this is log1p(-erfc(t)/2) with t = a/sqrt(2), as scipy's
    ``log_ndtr`` computes it.  Below, with y = -t, it is log(erfc(y)/2) up
    to y = 14, and past that log(S/(2 y sqrt(pi))) - y*y, S the asymptotic
    series of erfcx(y) = exp(y*y) erfc(y), so the dominant -y*y term is
    rounded as scipy rounds it.  The tests hold the result within 1 ulp of
    scipy's for a <= -5, 8 ulp up to a = 1, and 1e-12 relative up to 37.
    """
    a = np.asarray(a, dtype=float)
    t = a * _SQRT1_2
    out = np.empty_like(t)
    upper = ~(a < -1.0)  # NaN included
    out[upper] = np.log1p(-_erfc(t[upper]) / 2)
    y = -t[~upper]
    mid = y <= 14.0
    lower = np.empty_like(y)
    lower[mid] = np.log(_erfc(y[mid]) / 2)
    y = y[~mid]
    with np.errstate(over="ignore", divide="ignore"):
        u = -0.5 / (y * y)
        term = np.ones_like(y)
        series = np.ones_like(y)
        for k in range(1, 13):  # the 12th term is below 1e-19 at y = 14
            term *= (2 * k - 1) * u
            series += term
        lower[~mid] = np.log(series / (2.0 * y * _SQRT_PI)) - y * y
    out[~upper] = lower
    return out


def accuracy_resolution(samples) -> tuple[float, float]:
    """(N, nu): expected ticks until off by one, and the tick rate."""
    tau = np.asarray(samples, dtype=float)
    if tau.size < 2:
        raise ValueError("need at least two waiting times")
    mu = float(tau.mean())
    var = float(tau.var(ddof=1))
    nu = 1.0 / mu
    if var == 0.0:
        warnings.warn(
            "zero-variance waiting times: accuracy reported as infinite",
            EstimatorWarning,
            stacklevel=2,
        )
        return math.inf, nu
    return mu**2 / var, nu


def entropy_per_tick(
    params: SystemParams, position_density, table: CoefficientTable, nu: float
) -> float:
    """Entropy produced per tick: beta*V*<I> divided by the tick rate.

    ``position_density`` is a density on the table grid; its trapezoid
    normalization must hold to 1e-6.
    """
    p = np.asarray(position_density, dtype=float)
    if p.shape != table.grid.shape:
        raise ValueError("density must live on the table grid")
    norm = float(np.trapezoid(p, table.grid))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"density normalization off by {norm - 1.0:.3e}")
    if not nu > 0:
        raise ValueError("tick rate must be > 0")
    mean_current = float(np.trapezoid(p * table.column("current"), table.grid))
    rate = params.inverse_temperature * params.voltage * mean_current
    return rate / nu


def allan_variance(ticks: TickSeries, mean_wait: float, T_values):
    """Two-sample variance of the clock reading over window sizes T.

    The clock reading after n windows is mean_wait * (ticks counted up to
    n*T) minus n*T, with time counted from zero, the end of the burn-in; the
    estimate averages squared second differences of that reading over
    non-overlapping windows.
    """
    times = ticks.tick_times
    if times.size < 2:
        raise ValueError("need at least two ticks")
    span = float(times[-1])
    T_values = [float(T) for T in T_values]
    bad = [T for T in T_values if span < 3.0 * T]
    if bad:
        raise ValueError(
            f"span {span:.6g} is shorter than 3T for T={bad!r}"
        )
    base = int(np.searchsorted(times, 0.0, side="right"))
    out = []
    for T in T_values:
        n_windows = int(span // T)
        edges = T * np.arange(n_windows + 1)
        counts = np.searchsorted(times, edges, side="right") - base
        reading = mean_wait * counts - edges
        second = reading[:-2] - 2.0 * reading[1:-1] + reading[2:]
        out.append((T, float(np.mean(second**2) / (2.0 * T**2))))
    return out


def default_allan_grid(
    mean_wait: float, span: float, *, per_decade: int = 20
) -> np.ndarray:
    """Logarithmic window grid from 2 mean waits up to a third of the span.

    The top window sits a hair inside span/3 so that a stream whose last
    tick defines ``span`` still admits the full grid under the strict
    3T-coverage check in :func:`allan_variance`.
    """
    lo = 2.0 * mean_wait
    hi = span / 3.0 * (1.0 - 1e-9)
    if hi <= lo:
        raise ValueError("span too short for an Allan grid")
    n = max(2, int(round(per_decade * math.log10(hi / lo))) + 1)
    return np.geomspace(lo, hi, n)


def renewal_allan_asymptote(mu: float, N: float, T: float) -> float:
    """Long-window Allan level of a renewal tick stream."""
    if mu <= 0 or N <= 0 or T <= 0:
        raise ValueError("mu, N, T must all be positive")
    return mu / (N * T)
