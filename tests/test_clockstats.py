"""Estimator correctness: correlation/spectrum pipelines on closed-form
inputs, waiting-time fits on sampled laws, Allan variance identities."""
import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sfft
from scipy import special as sspecial
from scipy import stats as sstats

from nemclock import clockstats
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


@pytest.mark.parametrize(
    "members, length, max_lag, n_fft",
    [
        (3, 16, 0, 16),
        (3, 16, 15, 32),
        (4, 7, 0, 7),
        (4, 25, 24, 49),
        (2, 11, 0, 11),
        (2, 6, 5, 11),
        (5, 44, 43, 88),
    ],
)
def test_autocorrelation_equals_direct_lag_sums(members, length, max_lag, n_fft):
    # FFT lengths 2^k, 7^k and 11*2^k, at the shortest and the longest lag
    assert clockstats.next_fast_len(length + max_lag) == n_fft
    rng = np.random.Generator(np.random.Philox(length))
    series = rng.standard_normal((members, length)) + 3.0
    curve = autocorrelation(series, time_step=0.25, max_lag=max_lag)
    d = series - series.mean()
    direct = np.array([
        math.fsum(float(a @ b) for a, b in zip(d[:, : length - k], d[:, k:]))
        / (members * (length - k))
        for k in range(max_lag + 1)
    ])
    np.testing.assert_allclose(curve.values, direct, rtol=0, atol=1e-12 * direct[0])
    np.testing.assert_array_equal(curve.lags, np.arange(max_lag + 1) * 0.25)


def test_autocorrelation_max_lag_too_long():
    with pytest.raises(ValueError, match="cannot support"):
        autocorrelation(np.zeros((2, 100)), time_step=0.1, max_lag=100)


# ------------------------------------------------------------------ spectrum --


def _damped_cosine_curve(gamma=5e-3, omega=2.0, dt=0.2, n=20001, amp2=1.0):
    tau = np.arange(n) * dt
    return CorrelationCurve(
        lags=tau, values=amp2 * np.exp(-gamma * tau) * np.cos(omega * tau)
    )


def _scipy_fft_autocorrelation(series, max_lag):
    """The estimator's lag sums by scipy.fft: each row's power spectrum,
    summed in row order, then one inverse transform."""
    centered = series - series.mean()
    n_fft = sfft.next_fast_len(series.shape[1] + max_lag)
    power = np.zeros(n_fft // 2 + 1)
    for row in centered:
        spec = sfft.rfft(row, n_fft)
        power += spec.real**2 + spec.imag**2
    raw = sfft.irfft(power, n_fft)[: max_lag + 1]
    return raw / (series.shape[0] * (series.shape[1] - np.arange(max_lag + 1)))


def test_autocorrelation_and_spectrum_equal_scipy_fft():
    # run-sized rows: 4 members of 50001 samples, lags up to 20000
    dt = math.pi / 100
    rng = np.random.Generator(np.random.Philox(3))
    t = np.arange(50001) * dt
    series = np.cos(2.0 * t + rng.uniform(0, 2 * math.pi, (4, 1))) + rng.standard_normal((4, t.size))
    curve = autocorrelation(series, dt, max_lag=20000)
    np.testing.assert_array_equal(curve.values, _scipy_fft_autocorrelation(series, 20000))
    for window in ("none", "hann"):
        spec = power_spectrum(curve, 0.25, lag_window=window)
        values = curve.values
        if window == "hann":
            values = values * 0.5 * (1.0 + np.cos(np.pi * np.arange(values.size) / (values.size - 1)))
        sym = np.concatenate([values, values[-2:0:-1]])
        np.testing.assert_array_equal(spec.values, sfft.rfft(sym).real * dt + 0.25)
        np.testing.assert_array_equal(
            spec.frequencies, 2.0 * np.pi * sfft.rfftfreq(sym.size, d=dt)
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


_LONG_TAU = np.arange(200000) * (math.pi / 50)
_GAMMA = 5e-4


def _exact_rate_curve():
    tau = _LONG_TAU
    return CorrelationCurve(
        lags=tau, values=0.8 * np.exp(-_GAMMA * tau) * np.cos(2.0 * tau)
    )


def _sub_kernel_curve():
    tau = _LONG_TAU
    gamma = 0.125 / tau[-1]
    return CorrelationCurve(
        lags=tau, values=0.5 * np.exp(-gamma * tau) * np.cos(2.0 * tau)
    )


def _noisy_curve():
    tau = _LONG_TAU
    clean = 0.8 * np.exp(-_GAMMA * tau) * np.cos(2.0 * tau)
    rng = np.random.Generator(np.random.Philox(5))
    noisy = clean + 0.1 * np.sqrt(np.mean(clean**2)) * rng.standard_normal(tau.size)
    noisy[0] = np.abs(noisy).max() * (1.0 + 1e-9)
    return CorrelationCurve(lags=tau, values=noisy)


def _two_timescale_curve():
    tau = _LONG_TAU
    values = 0.6 * np.exp(-8e-3 * tau) * np.cos(2.0 * tau) + 0.2 * np.exp(
        -1e-4 * tau
    ) * np.cos(2.0 * tau + 0.2)
    return CorrelationCurve(lags=tau, values=values)


def _run_sized_curve():
    # the shape `nemclock run` fits at V = 100: 20001 lags of pi/100, a
    # slow coherence core under amplitude-relaxation and estimator noise
    tau = np.arange(20001) * (math.pi / 100)
    rng = np.random.Generator(np.random.Philox(11))
    values = (
        40.0 * np.exp(-2e-3 * tau) * np.cos(1.9994 * tau)
        + 15.0 * np.exp(-0.05 * tau) * np.cos(2.0 * tau + 0.3)
        + 0.5 * rng.standard_normal(tau.size)
    )
    values[0] = np.abs(values).max()
    return CorrelationCurve(lags=tau, values=values)


def _undamped_curve():
    # a line narrower than the fit's lower width bound, 0.02/max_lag: the
    # best fit in the box has its width on that bound
    tau = np.arange(20001) * (math.pi / 100)
    rng = np.random.Generator(np.random.Philox(13))
    values = 0.5 * np.cos(2.0 * tau) + 0.05 * rng.standard_normal(tau.size)
    values[0] = np.abs(values).max()
    return CorrelationCurve(lags=tau, values=values)


def test_linewidth_fit_recovers_exact_rate():
    fwhm, omega = linewidth_fit(_exact_rate_curve(), 2.0003)
    assert fwhm == pytest.approx(2.0 * _GAMMA, rel=1e-6)
    assert omega == pytest.approx(2.0, abs=1e-9)


def test_linewidth_fit_resolves_below_truncation_kernel():
    # a line 12x narrower than pi/max_lag: any frequency-domain half-maximum
    # readout floors at the kernel width; the lag-domain fit does not
    tau = _LONG_TAU
    gamma = 0.125 / tau[-1]
    kernel = math.pi / tau[-1]
    assert 2.0 * gamma < kernel / 6.0
    fwhm, _ = linewidth_fit(_sub_kernel_curve(), 2.0)
    assert fwhm == pytest.approx(2.0 * gamma, rel=1e-6)


def test_linewidth_fit_tolerates_noise():
    fwhm, _ = linewidth_fit(_noisy_curve(), 2.0003)
    assert fwhm == pytest.approx(2.0 * _GAMMA, rel=0.02)


def test_linewidth_fit_reads_slow_core_of_two_timescale_envelope():
    # fast amplitude channel + slow coherence core: the default window skips
    # the fast transient and reports the core width that shapes the peak top
    fwhm, _ = linewidth_fit(_two_timescale_curve(), 2.0)
    assert fwhm == pytest.approx(2e-4, rel=0.01)


def _nested_profile_scan(tau, y, gammas, omegas):
    """Oracle for ``_profile_scan``: one (gamma, omega) point at a time in
    gamma-major order, each computing its own envelope and trig rows, kept
    by a strict ``<``.  Returns ``(gamma, omega, alpha, beta)``, or None when
    no point has a finite cost."""
    best, chosen = math.inf, None
    for g in gammas:
        for w in omegas:
            env = np.exp(-0.5 * g * tau)
            c = env * np.cos(w * tau)
            s = env * np.sin(w * tau)
            g11, g12, g22 = c @ c, c @ s, s @ s
            r1, r2 = c @ y, s @ y
            det = g11 * g22 - g12 * g12
            if det <= 0.0:
                continue
            alpha = (g22 * r1 - g12 * r2) / det
            beta = (g11 * r2 - g12 * r1) / det
            resid = y - alpha * c - beta * s
            cost = float(resid @ resid)
            if cost < best:
                best, chosen = cost, (g, w, alpha, beta)
    return chosen


def _fit_window_and_grid(curve, omega_seed):
    """``linewidth_fit``'s lag window and its (gamma, omega) scan grid."""
    n = curve.values.size
    a, b = int(0.15 * n), int(0.55 * n)
    tau = curve.lags[a:b]
    y = curve.values[a:b]
    tau_max = float(curve.lags[-1])
    tau_span = float(tau[-1] - tau[0])
    half_window = 10.0 * math.pi / tau_max
    omegas = omega_seed + np.linspace(-half_window, half_window, 33)
    gammas = np.geomspace(0.2 / tau_max, 60.0 / tau_span, 25)
    return tau, y, gammas, omegas


def _nested_scan_linewidth_fit(curve, omega_seed):
    """Oracle: the profile scan as :func:`_nested_profile_scan`, then
    scipy's ``least_squares`` (TRF) from that start in the same box.
    Returns the chosen ``(g0, w0, alpha, beta)``, scipy's result and the
    residual function."""
    from scipy.optimize import least_squares

    tau, y, gammas, omegas = _fit_window_and_grid(curve, omega_seed)
    g0, w0, a0, b0 = _nested_profile_scan(tau, y, gammas, omegas) or (
        gammas[0], omega_seed, 0.0, 0.0
    )

    def residual(p):
        al, be, g, w = p
        env = np.exp(-0.5 * np.clip(g, 0.0, None) * tau)
        return al * env * np.cos(w * tau) + be * env * np.sin(w * tau) - y

    step = omegas[1] - omegas[0]
    fit = least_squares(
        residual,
        [a0, b0, g0, w0],
        bounds=(
            [-np.inf, -np.inf, gammas[0] / 10.0, w0 - 3.0 * step],
            [np.inf, np.inf, gammas[-1] * 10.0, w0 + 3.0 * step],
        ),
    )
    return (g0, w0, a0, b0), fit, residual


def _cost_resolution(residual, x):
    """Largest change of the cost when omega moves by one or two ulp from
    ``x``: the finest cost difference the evaluation of the model resolves
    there.  It is the rounding of omega*tau, and it matters only for a
    near-exact fit (on the two-timescale curve, cost 1.1e-11, it is 3.2e-9
    relative and not monotone in omega)."""
    cost = 0.5 * residual(x) @ residual(x)
    swings = []
    for k in (-2, -1, 1, 2):
        moved = np.array(x, dtype=float)
        moved[3] += k * np.spacing(moved[3])
        swings.append(abs(0.5 * residual(moved) @ residual(moved) - cost))
    return max(swings)


@pytest.mark.parametrize(
    "make_curve, omega_seed",
    [
        (_exact_rate_curve, 2.0003),
        (_sub_kernel_curve, 2.0),
        (_noisy_curve, 2.0003),
        (_two_timescale_curve, 2.0),
        (_run_sized_curve, 1.9993),
        (_undamped_curve, 2.0),
    ],
)
def test_linewidth_fit_equals_nested_scan(make_curve, omega_seed, monkeypatch):
    # the start is the nested scan's exactly; the refinement is held to
    # scipy's least_squares, which stops at its ftol = 1e-8, by tolerance;
    # a refinement that ends on a bound is compared too, and then refused
    curve = make_curve()
    chosen, fit, residual = _nested_scan_linewidth_fit(curve, omega_seed)
    starts, results = [], []
    scan, refine = clockstats._profile_scan, clockstats._damped_cosine_fit

    def recorded_scan(*args):
        starts.append(scan(*args))
        return starts[-1]

    def recorded_refine(*args):
        results.append(refine(*args))
        return results[-1]

    monkeypatch.setattr(clockstats, "_profile_scan", recorded_scan)
    monkeypatch.setattr(clockstats, "_damped_cosine_fit", recorded_refine)
    try:
        reported = linewidth_fit(curve, omega_seed)
    except ValueError as exc:
        assert "bound" in str(exc)
        reported = None
    assert starts == [chosen]
    fwhm, omega = results[0][2:]
    on_bound = make_curve is _undamped_curve
    assert reported == (None if on_bound else (fwhm, omega))
    assert fwhm == pytest.approx(fit.x[2], rel=1e-5)
    assert omega == pytest.approx(fit.x[3], rel=1e-9)
    cost = 0.5 * residual(results[0]) @ residual(results[0])
    assert cost <= fit.cost * (1 + 1e-9) + _cost_resolution(residual, fit.x)


_SCAN_TAU = np.arange(2000) * 0.1
_SCAN_GAMMAS = np.geomspace(1e-3, 1.0, 7)
_SCAN_OMEGAS = np.linspace(1.5, 2.5, 9)


def _scan_input(case):
    """``(tau, y, gammas, omegas)`` on which a screened scan can go wrong."""
    rng = np.random.Generator(np.random.Philox(17))
    line = np.exp(-0.01 * _SCAN_TAU) * np.cos(2.0 * _SCAN_TAU + 0.4)
    y, omegas = line + 0.1 * rng.standard_normal(_SCAN_TAU.size), _SCAN_OMEGAS
    if case == "zero":
        y = np.zeros_like(_SCAN_TAU)
    elif case == "nan":
        y[500] = np.nan
    elif case == "zero-omega":
        # a slow non-oscillating part that the omega = 0 column would fit
        y = np.exp(-0.005 * _SCAN_TAU) + 0.3 * line
        omegas = np.linspace(-0.5, 0.5, 9)
    elif case == "white-noise":
        y = rng.standard_normal(_SCAN_TAU.size)
    elif case == "repeated-omega":
        # an exact tie, and a grid off the screen's uniform rotation
        omegas = np.array([1.8, 1.9, 2.0, 2.0, 2.1])
    return _SCAN_TAU, y, _SCAN_GAMMAS, omegas


@pytest.mark.parametrize(
    "case", ["zero", "nan", "zero-omega", "white-noise", "repeated-omega"]
)
def test_profile_scan_equals_nested_scan(case):
    tau, y, gammas, omegas = _scan_input(case)
    chosen = _nested_profile_scan(tau, y, gammas, omegas)
    assert clockstats._profile_scan(tau, y, gammas, omegas) == chosen
    if case == "zero":  # every cost ties at 0: the first point wins
        assert chosen == (gammas[0], omegas[0], 0.0, 0.0)
    elif case == "nan":
        assert chosen is None
    elif case == "zero-omega":  # det = 0 there, so the column is skipped
        assert chosen[1] != 0.0


@pytest.mark.parametrize("omega_line", [0.9, 1.3, 1.6, 2.0, 2.2, 2.4])
def test_profile_scan_breaks_an_exact_tie_by_index(omega_line):
    # on a grid symmetric about 0, (gamma, -omega) and (gamma, omega) give
    # the same cos row, sin rows of opposite sign and so the same cost, bit
    # for bit: the lower index wins, whichever of the two that is
    tau, gammas = _SCAN_TAU, _SCAN_GAMMAS
    rng = np.random.Generator(np.random.Philox(19))
    y = np.exp(-0.01 * tau) * np.cos(omega_line * tau + 0.4)
    y += 0.1 * rng.standard_normal(tau.size)
    omegas = np.linspace(-2.5, 2.5, 21)
    g, w, alpha, beta = _nested_profile_scan(tau, y, gammas, omegas)
    assert w < 0.0
    assert _nested_profile_scan(tau, y, gammas, -omegas) == (g, -w, alpha, -beta)
    assert clockstats._profile_scan(tau, y, gammas, omegas) == (g, w, alpha, beta)
    assert clockstats._profile_scan(tau, y, gammas, -omegas) == (g, -w, alpha, -beta)


def test_screen_keeps_one_point_of_the_run_sized_fit():
    kept = clockstats._screen(*_fit_window_and_grid(_run_sized_curve(), 1.9993))
    assert np.count_nonzero(kept) == 1


def test_linewidth_fit_memory_peak():
    # the fit runs at a `run`'s memory peak: its largest block is one
    # envelope row per width, about 1.5 MiB here
    curve = _run_sized_curve()
    tracemalloc.start()
    try:
        linewidth_fit(curve, 1.9993)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


def test_damped_cosine_fit_holds_the_width_bound():
    # a bound the descent pushes against holds its parameter exactly, and
    # the other three are fitted without it: linewidth_fit's window and
    # width floor, from a start at the line
    curve = _undamped_curve()
    window = slice(int(0.15 * curve.values.size), int(0.55 * curve.values.size))
    floor = 0.2 / curve.lags[-1] / 10.0  # the lowest scan width / 10
    fit = clockstats._damped_cosine_fit(
        curve.lags[window], curve.values[window],
        np.array([0.5, 0.0, 10.0 * floor, 2.0]),
        np.array([-np.inf, -np.inf, floor, 1.999]),
        np.array([np.inf, np.inf, 1.0, 2.001]),
    )
    assert fit[2] == floor
    assert fit[3] == pytest.approx(2.0, abs=1e-4)


def test_linewidth_fit_stops_on_the_width_bound():
    # this curve's refinement ends on the width floor too (see the nested
    # scan test), and a box edge is no width
    with pytest.raises(ValueError, match="bound of its box"):
        linewidth_fit(_undamped_curve(), 2.0)


def test_linewidth_fit_from_singular_start(monkeypatch):
    # no finite-cost scan point: the refinement starts at alpha = beta = 0,
    # where the gamma and omega columns of the Jacobian vanish
    monkeypatch.setattr(clockstats, "_profile_scan", lambda *args: None)
    fwhm, omega = linewidth_fit(_exact_rate_curve(), 2.0)
    assert fwhm == pytest.approx(2.0 * _GAMMA, rel=1e-9)
    assert omega == pytest.approx(2.0, rel=1e-12)


def test_linewidth_fit_refuses_non_finite_curve():
    curve = _exact_rate_curve()
    values = curve.values.copy()
    values[100000] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        linewidth_fit(CorrelationCurve(lags=curve.lags, values=values), 2.0003)


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


def _scipy_ks_statistic(samples):
    mu = samples.mean()
    lam = 1.0 / (np.mean(1.0 / samples) - 1.0 / mu)
    law = sstats.invgauss(mu / lam, scale=lam)
    return sstats.kstest(samples, law.cdf).statistic


@pytest.mark.parametrize(
    "size, ratio", [(100, 1e-3), (100, 1.0), (3000, 0.03), (3000, 0.5), (50000, 1e-3), (50000, 1.0)]
)
def test_inverse_gaussian_ks_statistic_equals_scipy(size, ratio):
    # ratio = mean/shape; scipy.stats is the oracle.  The native log_ndtr
    # is within 8 ulp of scipy's, so the statistic is held within 2e-15
    mean = math.pi
    samples = np.random.default_rng(size).wald(mean, mean / ratio, size)
    fit = fit_inverse_gaussian(samples)
    assert abs(fit.ks_statistic - _scipy_ks_statistic(samples)) <= 2e-15


def test_inverse_gaussian_ks_statistic_on_random_wald_draws():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        size = int(rng.integers(100, 5000))
        ratio = 10.0 ** rng.uniform(-4.0, 0.5)
        samples = rng.wald(math.pi, math.pi / ratio, size)
        fit = fit_inverse_gaussian(samples)
        assert abs(fit.ks_statistic - _scipy_ks_statistic(samples)) <= 2e-15


def test_log_ndtr_against_scipy():
    a = np.concatenate(
        [
            -np.geomspace(1e6, 1e-6, 40001),
            [0.0, -1.0, np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0)],
            np.geomspace(1e-6, 37.0, 20001),
            np.linspace(-30.0, 37.0, 40001),
        ]
    )
    ours, ref = clockstats._log_ndtr(a), sspecial.log_ndtr(a)
    ulps = np.abs(ours - ref) / np.spacing(np.abs(ref))
    assert ulps[a <= -5.0].max() <= 1.0
    assert ulps[(a > -5.0) & (a <= 1.0)].max() <= 8.0
    high = a > 1.0
    assert np.max(np.abs(ours[high] / ref[high] - 1.0)) <= 1e-12
    special = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300])
    np.testing.assert_array_equal(clockstats._log_ndtr(special), sspecial.log_ndtr(special))
    assert np.signbit(clockstats._log_ndtr(np.array([np.inf]))[0])


def test_inverse_gaussian_fit_validation():
    with pytest.raises(ValueError, match=">= 100"):
        fit_inverse_gaussian(np.ones(50))
    bad = np.linspace(-1.0, 1.0, 200)
    with pytest.raises(ValueError, match="positive"):
        fit_inverse_gaussian(bad)
    with pytest.raises(ValueError, match="degenerate"):
        fit_inverse_gaussian(np.full(200, 2.0))
    # positive variance, but rounding puts mean(1/tau) - 1/mean at -5.6e-17
    jittered = math.pi + 1e-13 * np.random.default_rng(0).standard_normal(200)
    assert np.var(jittered) > 0
    with pytest.raises(ValueError, match="degenerate"):
        fit_inverse_gaussian(jittered)


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
