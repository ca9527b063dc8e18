"""Estimator correctness: correlation/spectrum pipelines on closed-form
inputs, waiting-time fits on sampled laws, Allan variance identities."""
import math

import numpy as np
import pytest
from scipy import stats as sstats

from nemclock.clockstats import (
    CorrelationCurve,
    EstimatorWarning,
    accuracy_resolution,
    allan_variance,
    autocorrelation,
    default_allan_grid,
    entropy_per_tick,
    fit_inverse_gaussian,
    linewidth_fit,
    power_spectrum,
    renewal_allan_asymptote,
    spectrum_fwhm,
    spectrum_peak,
)
from nemclock.readout import DetectionPolicy, TickSeries
from nemclock.toymodels import OUAmplitude, ReducedCycle, simulate_toy

from conftest import make_synthetic_table


def _ticks(times, refractory=0.0):
    return TickSeries(
        tick_times=np.asarray(times, dtype=float),
        detection_policy=DetectionPolicy(level=0.0, refractory=refractory),
    )


# -------------------------------------------------------------- correlation --


def test_correlation_curve_validation():
    with pytest.raises(ValueError, match="matching 1-D"):
        CorrelationCurve(lags=np.arange(3.0), values=np.arange(4.0))
    with pytest.raises(ValueError, match="uniform"):
        CorrelationCurve(lags=np.array([0.0, 1.0, 3.0]), values=np.zeros(3))
    with pytest.raises(ValueError, match="exceeds C"):
        CorrelationCurve(
            lags=np.arange(3.0), values=np.array([1.0, 2.0, 0.0])
        )
    # small statistical excess over C(0) is a fact of unbiased estimates
    CorrelationCurve(
        lags=np.arange(3.0), values=np.array([1.0, 1.0 + 1e-4, 0.0])
    )


def test_autocorrelation_constant_series_is_zero():
    curve = autocorrelation(np.full((3, 500), 4.2), time_step=0.1, max_lag=50)
    np.testing.assert_allclose(curve.values, 0.0, atol=1e-20)


def test_autocorrelation_lag_zero_is_pooled_variance():
    rng = np.random.Generator(np.random.Philox(1))
    series = rng.standard_normal((4, 2000)) + 0.7
    curve = autocorrelation(series, time_step=0.5, max_lag=10)
    assert curve.values[0] == pytest.approx(series.var(), rel=1e-12)
    assert curve.lags[1] - curve.lags[0] == 0.5


def test_autocorrelation_random_phase_cosine():
    rng = np.random.Generator(np.random.Philox(2))
    dt, n, omega, amp = 0.05, 8000, 1.3, 2.0
    t = np.arange(n) * dt
    phases = rng.uniform(0.0, 2.0 * math.pi, size=64)
    ensemble = amp * np.cos(omega * t[None, :] + phases[:, None])
    curve = autocorrelation(ensemble, time_step=dt, max_lag=400)
    expected = 0.5 * amp**2 * np.cos(omega * curve.lags)
    np.testing.assert_allclose(curve.values, expected, atol=0.05)


def test_autocorrelation_ou_input_matches_analytic():
    # OU paths with Var = D/(2*gamma) = 1 and rate gamma
    gamma, diffusion = 0.8, 1.6
    cycle = ReducedCycle(
        amplitude=5.0,
        amplitude_damping=gamma,
        amplitude_diffusion=diffusion,
        phase_diffusion=0.01,
    )
    dt = 0.025
    paths = [
        simulate_toy(OUAmplitude(cycle), 600.0, dt, seed)[1] for seed in range(24)
    ]
    curve = autocorrelation(np.asarray(paths), time_step=dt, max_lag=200)
    expected = 1.0 * np.exp(-gamma * curve.lags)
    np.testing.assert_allclose(curve.values, expected, atol=0.06)


def test_autocorrelation_max_lag_too_long():
    with pytest.raises(ValueError, match="cannot support"):
        autocorrelation(np.zeros((2, 100)), time_step=0.1, max_lag=100)


# ------------------------------------------------------------------ spectrum --


def _damped_cosine_curve(gamma=5e-3, omega=2.0, dt=0.2, n=20001, amp2=1.0):
    tau = np.arange(n) * dt
    return CorrelationCurve(
        lags=tau, values=amp2 * np.exp(-gamma * tau) * np.cos(omega * tau)
    )


def test_spectrum_of_zero_curve_is_flat_floor():
    curve = CorrelationCurve(lags=np.arange(100) * 0.1, values=np.zeros(100))
    spec = power_spectrum(curve, shot_noise_floor=2.5)
    np.testing.assert_allclose(spec.values, 2.5, atol=1e-12)
    assert spec.floor == 2.5
    assert spec.resolution == pytest.approx(spec.frequencies[1])


def test_spectrum_peak_at_line_frequency():
    curve = _damped_cosine_curve()
    spec = power_spectrum(curve, 0.0)
    loc, height = spectrum_peak(spec, (1.5, 2.5))
    assert loc == pytest.approx(2.0, abs=0.5 * spec.resolution)
    assert height > 0
    # the peak clearly dominates the window
    assert height > 10 * float(np.median(spec.values))


def test_spectrum_is_real_and_symmetric_input_safe():
    curve = _damped_cosine_curve(n=4001)
    spec = power_spectrum(curve, 1.0)
    assert spec.values.dtype == np.float64
    assert spec.frequencies[0] == 0.0
    with pytest.raises(ValueError, match="unknown lag window"):
        power_spectrum(curve, 0.0, lag_window="hamming")
    with pytest.raises(ValueError, match="at least two lags"):
        power_spectrum(
            CorrelationCurve(lags=np.zeros(1), values=np.ones(1)), 0.0
        )


def test_spectrum_fwhm_of_lorentzian_line():
    gamma = 5e-3
    curve = _damped_cosine_curve(gamma=gamma)
    spec = power_spectrum(curve, 0.0)
    width = spectrum_fwhm(spec, (1.5, 2.5))
    # FWHM = 2*gamma, up to ~1 bin of truncation-kernel broadening
    assert width == pytest.approx(2.0 * gamma, rel=0.15)
    hann = power_spectrum(curve, 0.0, lag_window="hann")
    width_hann = spectrum_fwhm(hann, (1.5, 2.5))
    assert width_hann == pytest.approx(2.0 * gamma, rel=0.5)


def test_spectrum_fwhm_window_errors():
    spec = power_spectrum(_damped_cosine_curve(), 0.0)
    with pytest.raises(ValueError, match="window edge"):
        spectrum_fwhm(spec, (2.1, 2.5))
    # peak hugging one window edge: that side never falls to half maximum
    with pytest.raises(ValueError, match="half-maximum"):
        spectrum_fwhm(spec, (1.9982, 2.1))
    with pytest.raises(ValueError, match="fewer than 3 bins"):
        spectrum_peak(spec, (2.0, 2.0001))


# -------------------------------------------------------------- linewidth fit --


def test_linewidth_fit_recovers_exact_rate():
    gamma = 5e-4
    tau = np.arange(200000) * (math.pi / 50)
    curve = CorrelationCurve(
        lags=tau, values=0.8 * np.exp(-gamma * tau) * np.cos(2.0 * tau)
    )
    fwhm, omega = linewidth_fit(curve, 2.0003)
    assert fwhm == pytest.approx(2.0 * gamma, rel=1e-6)
    assert omega == pytest.approx(2.0, abs=1e-9)


def test_linewidth_fit_resolves_below_truncation_kernel():
    # a line 12x narrower than pi/max_lag: any frequency-domain half-maximum
    # readout floors at the kernel width; the lag-domain fit does not
    tau = np.arange(200000) * (math.pi / 50)
    gamma = 0.125 / tau[-1]
    kernel = math.pi / tau[-1]
    assert 2.0 * gamma < kernel / 6.0
    curve = CorrelationCurve(
        lags=tau, values=0.5 * np.exp(-gamma * tau) * np.cos(2.0 * tau)
    )
    fwhm, _ = linewidth_fit(curve, 2.0)
    assert fwhm == pytest.approx(2.0 * gamma, rel=1e-6)


def test_linewidth_fit_tolerates_noise():
    gamma = 5e-4
    tau = np.arange(200000) * (math.pi / 50)
    clean = 0.8 * np.exp(-gamma * tau) * np.cos(2.0 * tau)
    rng = np.random.Generator(np.random.Philox(5))
    noisy = clean + 0.1 * np.sqrt(np.mean(clean**2)) * rng.standard_normal(tau.size)
    noisy[0] = np.abs(noisy).max() * (1.0 + 1e-9)
    fwhm, _ = linewidth_fit(CorrelationCurve(lags=tau, values=noisy), 2.0003)
    assert fwhm == pytest.approx(2.0 * gamma, rel=0.02)


def test_linewidth_fit_reads_slow_core_of_two_timescale_envelope():
    # fast amplitude channel + slow coherence core: the default window skips
    # the fast transient and reports the core width that shapes the peak top
    tau = np.arange(200000) * (math.pi / 50)
    values = 0.6 * np.exp(-8e-3 * tau) * np.cos(2.0 * tau) + 0.2 * np.exp(
        -1e-4 * tau
    ) * np.cos(2.0 * tau + 0.2)
    fwhm, _ = linewidth_fit(CorrelationCurve(lags=tau, values=values), 2.0)
    assert fwhm == pytest.approx(2e-4, rel=0.01)


def test_linewidth_fit_validation():
    # the window keeps lags int(0.15 n) up to int(0.55 n): 24 of 60
    curve = _damped_cosine_curve(n=60)
    with pytest.raises(ValueError, match="fewer than 32"):
        linewidth_fit(curve, 2.0)


# --------------------------------------------------------------- waiting times --


def test_inverse_gaussian_fit_recovers_parameters():
    mu, lam = math.pi, 50.0
    law = sstats.invgauss(mu / lam, scale=lam)
    samples = law.rvs(size=20000, random_state=np.random.default_rng(7))
    fit = fit_inverse_gaussian(samples)
    assert fit.mean == pytest.approx(mu, rel=0.01)
    assert fit.variance == pytest.approx(mu**3 / lam, rel=0.05)
    assert fit.sample_count == 20000
    assert fit.ks_statistic < 0.02


@pytest.mark.parametrize(
    "size, ratio", [(100, 1e-3), (100, 1.0), (3000, 0.03), (3000, 0.5), (50000, 1e-3), (50000, 1.0)]
)
def test_inverse_gaussian_ks_statistic_equals_scipy(size, ratio):
    # ratio = mean/shape; scipy.stats is the oracle, and the value must match bit for bit
    mean = math.pi
    samples = np.random.default_rng(size).wald(mean, mean / ratio, size)
    fit = fit_inverse_gaussian(samples)
    mu = samples.mean()
    lam = 1.0 / (np.mean(1.0 / samples) - 1.0 / mu)
    law = sstats.invgauss(mu / lam, scale=lam)
    assert fit.ks_statistic == sstats.kstest(samples, law.cdf).statistic


def test_inverse_gaussian_fit_validation():
    with pytest.raises(ValueError, match=">= 100"):
        fit_inverse_gaussian(np.ones(50))
    bad = np.linspace(-1.0, 1.0, 200)
    with pytest.raises(ValueError, match="positive"):
        fit_inverse_gaussian(bad)
    with pytest.raises(ValueError, match="degenerate"):
        fit_inverse_gaussian(np.full(200, 2.0))


def test_accuracy_resolution_exponential_waits():
    rng = np.random.default_rng(11)
    waits = rng.exponential(math.pi, size=50000)
    N, nu = accuracy_resolution(waits)
    assert N == pytest.approx(1.0, rel=0.05)
    assert nu == pytest.approx(1.0 / waits.mean(), rel=1e-12)


def test_accuracy_resolution_degenerate_waits_warn():
    with pytest.warns(EstimatorWarning, match="zero-variance"):
        N, nu = accuracy_resolution(np.full(100, 2.0))
    assert math.isinf(N)
    assert nu == pytest.approx(0.5)
    with pytest.raises(ValueError):
        accuracy_resolution([1.0])


# -------------------------------------------------------------------- entropy --


def test_entropy_per_tick_uniform_density():
    table = make_synthetic_table(
        np.linspace(-2.0, 2.0, 21),
        friction=0.0,
        diffusion=0.0,
        current=0.7,
        tag="flat-current",
    )
    from nemclock.params import default_params

    params = default_params(100.0)
    density = np.full(21, 0.25)
    value = entropy_per_tick(params, density, table, nu=2.0)
    # beta * V * <I> / nu with a constant current column
    assert value == pytest.approx(0.1 * 100.0 * 0.7 / 2.0, rel=1e-12)
    with pytest.raises(ValueError, match="grid"):
        entropy_per_tick(params, np.full(20, 0.25), table, nu=2.0)
    with pytest.raises(ValueError, match="normalization"):
        entropy_per_tick(params, density * 1.1, table, nu=2.0)
    with pytest.raises(ValueError, match="rate"):
        entropy_per_tick(params, density, table, nu=0.0)


# --------------------------------------------------------------------- Allan --


def test_allan_deterministic_ticks_are_perfect():
    mu = 0.5
    ticks = _ticks(mu * np.arange(1, 4001))
    # windows commensurate with the period: the reading never deviates
    out = allan_variance(ticks, mu, [5.0 * mu, 20.0 * mu])
    for T, value in out:
        assert value == 0.0


def test_allan_poisson_matches_renewal_level():
    rng = np.random.default_rng(17)
    times = np.cumsum(rng.exponential(1.0, size=400000))
    mu = float(np.diff(times).mean())
    N, _ = accuracy_resolution(np.diff(times))
    for T, value in allan_variance(_ticks(times), mu, [200.0, 600.0]):
        assert value == pytest.approx(
            renewal_allan_asymptote(mu, N, T), rel=0.25
        )


def test_allan_validation():
    with pytest.raises(ValueError, match="at least two ticks"):
        allan_variance(_ticks([1.0]), 1.0, [1.0])
    ticks = _ticks(np.linspace(0.5, 10.0, 30))
    with pytest.raises(ValueError, match="shorter than 3T"):
        allan_variance(ticks, 0.33, [5.0])


def test_default_allan_grid_shape():
    grid = default_allan_grid(2.0, 600.0, per_decade=20)
    assert grid[0] == pytest.approx(4.0)
    assert grid[-1] == pytest.approx(200.0, rel=1e-6)
    # admissible under the 3T coverage rule by construction
    assert 600.0 >= 3.0 * grid[-1]
    assert grid.size == round(20 * math.log10(grid[-1] / grid[0])) + 1
    ratios = grid[1:] / grid[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)
    with pytest.raises(ValueError, match="too short"):
        default_allan_grid(2.0, 10.0)


def test_renewal_asymptote():
    assert renewal_allan_asymptote(2.0, 100.0, 4.0) == pytest.approx(0.005)
    with pytest.raises(ValueError):
        renewal_allan_asymptote(-1.0, 1.0, 1.0)
