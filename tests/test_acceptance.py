"""End-to-end acceptance checks at desk scale.

Each test measures one headline property of the simulated clock — from the
equilibrium fluctuation-dissipation ratio of the transport coefficients to
thread-count determinism of the command-line pipeline — and appends a
one-line PASS/FAIL verdict, with the measured numbers, to the ``acceptance
criteria`` section that conftest prints after the run.

Four verdicts are expected to FAIL at this scale; each failing line carries
the measurement that shows why (see README, "Known failing checks").  The
thresholds are asserted exactly as written here; nothing is tuned to pass.

The three simulation corpora (conftest) are session-scoped, so the first
corpus-backed test pays the build cost (about a minute each at 4 threads)
and the rest reuse them.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import nemclock as nc
from nemclock import cli, tickinfo
from nemclock.pipeline import ensemble_allan, pooled_waiting_times

from conftest import ACCEPTANCE_LINES

pytestmark = pytest.mark.filterwarnings(
    "ignore::nemclock.params.AdiabaticityWarning"
)

TWO_PI = 2.0 * math.pi
SPECTRUM_WINDOW = (1.7, 2.3)


def _record(label: str, ok: bool, detail: str) -> None:
    line = f"[{label:>2}] {'PASS' if ok else 'FAIL'}  {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


# --------------------------------------------------------------- transport --


def test_equilibrium_fluctuation_dissipation(params_eq):
    """Near zero bias the noise kernel must obey beta*D = 2*m*gamma."""
    p = params_eq
    x_zp = 1.0 / math.sqrt(2.0 * p.oscillator_mass * p.oscillator_frequency)
    worst = 0.0
    for x in np.linspace(-2.0 * x_zp, 2.0 * x_zp, 9):
        gamma, diffusion = nc.friction_and_diffusion(x, p)
        lhs = p.inverse_temperature * diffusion
        worst = max(worst, abs(lhs - 2.0 * p.oscillator_mass * gamma) / lhs)
    _record(
        "1",
        worst < 0.1,
        f"max |beta*D - 2m*gamma|/(beta*D) = {worst:.4g} over 9 positions "
        f"in [-2,2]*x_zp at V=0.1 (bound 0.1)",
    )


def test_self_oscillation_onset_window():
    """The x=0 friction should turn negative (pumping) inside V in [25, 35]."""

    def gamma0(voltage: float) -> float:
        return nc.friction_and_diffusion(0.0, nc.default_params(voltage))[0]

    g25, g35 = gamma0(25.0), gamma0(35.0)
    ok = g25 * g35 < 0.0
    detail = f"gamma(V=25)={g25:.4e}, gamma(V=35)={g35:.4e}"
    if not ok and g25 > 0.0 and g35 > 0.0:
        g50 = gamma0(50.0)
        if g50 < 0.0:
            v_star = brentq(gamma0, 35.0, 50.0, xtol=1e-3)
            detail += f"; both still damping, sign change at V={v_star:.3f}"
    _record("2", ok, f"onset inside [25,35]: {detail}")


# ------------------------------------------------------- current spectrum --


def _current_spectrum(corpus) -> nc.Spectrum:
    dtc = corpus.current_time_step
    max_lag = min(corpus.currents.shape[1] - 1, int(round(6000.0 * TWO_PI / dtc)))
    curve = nc.autocorrelation(corpus.currents, dtc, max_lag=max_lag)
    return nc.power_spectrum(curve, 0.0)


def test_current_spectrum_peak_and_width_ordering(corpus100, corpus50):
    """Current spectrum peaks at 2*w0; the line should narrow with bias."""
    spec100 = _current_spectrum(corpus100[2])
    spec50 = _current_spectrum(corpus50[2])
    loc50, _ = nc.spectrum_peak(spec50, SPECTRUM_WINDOW)
    width100 = nc.spectrum_fwhm(spec100, SPECTRUM_WINDOW)
    width50 = nc.spectrum_fwhm(spec50, SPECTRUM_WINDOW)
    loc_err = abs(loc50 - 2.0) / 2.0
    loc_ok = loc_err < 0.05
    width_ok = width100 < width50
    _record(
        "3",
        loc_ok and width_ok,
        f"peak(V=50)={loc50:.5f} ({loc_err:.2%} from 2*w0); "
        f"fwhm V=100 {width100:.4e} vs V=50 {width50:.4e} at resolution "
        f"{spec50.resolution:.2e} — widths vary with the noise realization "
        f"(1.2e-4 to 7.4e-4 at six other seed pairs; ordering held at 2 of 6)",
    )


# ------------------------------------------------------------ tick statistics --


def test_waiting_time_inverse_gaussian_law(corpus100):
    """Far above threshold, waits are inverse-Gaussian with mean pi/w0."""
    ticks = corpus100[2].ticks
    n_ticks = sum(ts.tick_times.size for ts in ticks)
    waits = pooled_waiting_times(ticks)
    fit = nc.fit_inverse_gaussian(waits)
    mean_err = abs(float(waits.mean()) - math.pi) / math.pi
    ok = n_ticks >= 10_000 and fit.ks_statistic < 0.05 and mean_err < 0.05
    _record(
        "4",
        ok,
        f"{n_ticks} ticks; KS={fit.ks_statistic:.4f} (<0.05); "
        f"mean wait off pi/w0 by {mean_err:.3%} (<5%)",
    )


def test_accuracy_grows_with_bias(corpus100, corpus50, corpus5):
    """The accuracy N must rise with bias and sit in [1e3, 1e5] at V=100."""
    n_by_voltage = {}
    for voltage, fixture in ((100.0, corpus100), (50.0, corpus50), (5.0, corpus5)):
        waits = pooled_waiting_times(fixture[2].ticks)
        n_by_voltage[voltage], _ = nc.accuracy_resolution(waits)
    ordered = n_by_voltage[100.0] > n_by_voltage[50.0] > n_by_voltage[5.0]
    in_range = 1e3 <= n_by_voltage[100.0] <= 1e5
    _record(
        "5",
        ordered and in_range,
        f"N(100)={n_by_voltage[100.0]:.0f}, N(50)={n_by_voltage[50.0]:.0f}, "
        f"N(5)={n_by_voltage[5.0]:.0f}; increasing and N(100) in [1e3,1e5]",
    )


# ------------------------------------------------------------------- Allan --


def test_allan_poisson_reference():
    """For Poisson ticks the Allan variance must match sigma_y^2 = mu/T."""
    rng = np.random.default_rng(2024)
    policy = nc.DetectionPolicy(level=0.0, refractory=0.0)
    ticks = [
        nc.TickSeries(np.cumsum(rng.exponential(1.0, size=100_000)), policy)
        for _ in range(16)
    ]
    windows = np.geomspace(300.0, 3000.0, 9)
    pairs = ensemble_allan(ticks, 1.0, windows)
    ratios = [val * window for window, val in pairs]
    ok = all(0.8 <= r <= 1.25 for r in ratios)
    _record(
        "6a",
        ok,
        f"sigma_y^2*T/mu over T in [300,3000]mu: "
        f"min {min(ratios):.3f}, max {max(ratios):.3f} (band [0.8,1.25])",
    )


def test_allan_below_threshold_white_floor(corpus5):
    """Below threshold the Allan curve should sit on mu/(N*T) for T>=100mu."""
    ticks = corpus5[2].ticks
    waits = pooled_waiting_times(ticks)
    accuracy, _ = nc.accuracy_resolution(waits)
    mu = float(waits.mean())
    span = min(float(ts.tick_times[-1]) for ts in ticks)
    windows = [
        t for t in nc.default_allan_grid(mu, span, per_decade=20) if t >= 100.0 * mu
    ]
    pairs = ensemble_allan(ticks, mu, windows)
    ratios = [val * window * accuracy / mu for window, val in pairs]
    ok = all(0.8 <= r <= 1.25 for r in ratios)
    first_in_band = next(
        (w / mu for (w, _), r in zip(pairs, ratios) if 0.8 <= r <= 1.25), None
    )
    where = f"T~{first_in_band:.0f}mu" if first_in_band else "never"
    _record(
        "6b",
        ok,
        f"sigma_y^2*T*N/mu from T=100mu: starts {ratios[0]:.2f}, enters "
        f"[0.8,1.25] only at {where} (~N*mu={accuracy:.0f}mu, the dead-time "
        f"quantization floor N*mu/(4T))",
    )


def test_allan_above_threshold_beats_renewal(corpus100):
    """Above threshold the clock should average below the renewal line."""
    ticks = corpus100[2].ticks
    waits = pooled_waiting_times(ticks)
    accuracy, _ = nc.accuracy_resolution(waits)
    mu = float(waits.mean())
    span = min(float(ts.tick_times[-1]) for ts in ticks)
    windows = nc.default_allan_grid(mu, span, per_decade=20)
    pairs = ensemble_allan(ticks, mu, windows)
    ratios = [
        val / nc.renewal_allan_asymptote(mu, accuracy, window)
        for window, val in pairs
    ]
    # sub-renewal averaging: a full decade of windows below 0.9; an approach
    # to the floor afterwards: the largest-T ratio back inside [0.5, 1.5]
    # and above the deepest dip
    sub_renewal_decade = False
    decade_floor = math.inf
    for i in range(len(pairs)):
        j = next(
            (k for k in range(i + 1, len(pairs)) if pairs[k][0] >= 10.0 * pairs[i][0]),
            None,
        )
        if j is None:
            break
        window_ratios = ratios[i : j + 1]
        if max(window_ratios) < 0.9:
            sub_renewal_decade = True
            decade_floor = min(decade_floor, min(window_ratios))
    approaches = 0.5 <= ratios[-1] <= 1.5 and ratios[-1] > decade_floor
    i_min = int(np.argmin(ratios))
    _record(
        "6c",
        sub_renewal_decade and approaches,
        f"sigma_y^2 / renewal floor: min {ratios[i_min]:.1f} at "
        f"T={pairs[i_min][0] / mu:.0f}mu, {ratios[-1]:.1f} at largest T "
        f"(need a sub-0.9 decade, then a return to [0.5,1.5]); slow "
        f"amplitude noise adds correlated excess",
    )


# ------------------------------------------------------- wait correlations --


def test_wait_correlations_kl_and_mi(corpus100):
    """n-sums drift from the independent-wait prediction; adjacent waits
    share more information than distant or shuffled ones."""
    per_member = [np.diff(ts.tick_times) for ts in corpus100[2].ticks]
    pooled = np.concatenate(per_member)
    base = tickinfo.Histogram.from_samples(pooled)
    kl = {}
    for order in (2, 4, 8):
        predicted = tickinfo.n_fold_convolution(base, order)
        sums = np.concatenate([tickinfo.n_sum_samples(w, order) for w in per_member])
        measured = tickinfo.Histogram.from_samples(
            sums, edges=predicted.edges, clip=True
        )
        kl[order] = tickinfo.kl_divergence(measured, predicted)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([424242, 0], dtype=np.uint64))
    )
    mi_near, mi_far, mi_shuffled = [], [], []
    for w in per_member:
        mi_near.append(tickinfo.pairwise_mutual_information(w, 1))
        mi_far.append(tickinfo.pairwise_mutual_information(w, 100))
        mi_shuffled.append(
            tickinfo.pairwise_mutual_information(rng.permutation(w), 1)
        )
    mi1, mi100, mish = map(lambda v: float(np.mean(v)), (mi_near, mi_far, mi_shuffled))
    kl_ok = kl[2] < kl[4] < kl[8]
    mi_ok = mi1 > mi100 > mish
    _record(
        "7",
        kl_ok and mi_ok,
        f"KL(n=2,4,8)={kl[2]:.2e},{kl[4]:.2e},{kl[8]:.2e} rising; "
        f"MI lag1 {mi1:.3e} > lag100 {mi100:.3e} > shuffled {mish:.3e}",
    )


# ------------------------------------------------------------- toy oracles --


def test_reduced_model_oracles():
    """The toy samplers must reproduce their own closed forms."""
    # (i) amplitude channel: stationary variance over a 1e6-step path
    cyc = nc.ReducedCycle(
        amplitude=4.0,
        amplitude_damping=1.0,
        amplitude_diffusion=2.0,
        phase_diffusion=0.05,
    )
    _, path = nc.simulate_toy(nc.OUAmplitude(cyc), 5.0e5, 0.5, seed=81)
    var_err = abs(float(path.var()) - cyc.amplitude_variance) / cyc.amplitude_variance
    ok_var = var_err < 0.02

    # (ii) telegraph autocorrelation against the closed form at 20 lags
    tp = nc.TelegraphParams(rates=(0.5, 1.5), levels=(0.0, 1.0))
    dt, members = 0.05, 64
    lag_idx = np.arange(1, 21) * 5
    expected = nc.telegraph_correlation(tp, lag_idx * dt)
    sampled = np.empty((members, lag_idx.size))
    for s in range(members):
        _, x = nc.simulate_toy(tp, 400.0, dt, seed=1000 + s)
        xc = x - x.mean()
        sampled[s] = [float(np.mean(xc[:-k] * xc[k:])) for k in lag_idx]
    sem = sampled.std(axis=0, ddof=1) / math.sqrt(members)
    z_telegraph = float(np.max(np.abs(sampled.mean(axis=0) - expected) / sem))
    ok_telegraph = z_telegraph < 3.0

    # (iii) phase-diffusion variance growth: Var(phi_T - w*T) = D_phi*T
    pd_cyc = nc.ReducedCycle(
        amplitude=1.0,
        amplitude_damping=1.0,
        amplitude_diffusion=0.0,
        phase_diffusion=0.04,
    )
    finals = np.empty(256)
    for s in range(256):
        times, phi = nc.simulate_toy(
            nc.PhaseDiffusion(pd_cyc), 100.0, 0.05, seed=2000 + s, frequency=1.3
        )
        finals[s] = phi[-1] - 1.3 * times[-1]
    slope = float(finals.var(ddof=1)) / 100.0
    sigma_slope = pd_cyc.phase_diffusion * math.sqrt(2.0 / 255.0)
    z_slope = abs(slope - pd_cyc.phase_diffusion) / sigma_slope
    ok_slope = z_slope < 3.0

    # (iv) position autocorrelation of the combined process vs the closed form
    pos_cyc = nc.ReducedCycle(
        amplitude=3.0,
        amplitude_damping=0.5,
        amplitude_diffusion=1.0,
        phase_diffusion=0.2,
    )
    dt4, members4 = 0.02, 96
    idx = np.arange(0, 1001, 67)
    expected4 = nc.analytic_position_autocorrelation(pos_cyc, 1.0, idx * dt4)
    sampled4 = np.empty((members4, idx.size))
    for s in range(members4):
        _, x = nc.simulate_toy(nc.OffsetModelParams(cycle=pos_cyc), 40.0, dt4, seed=5000 + s)
        curve = nc.autocorrelation(x[None, :], dt4, max_lag=1000)
        sampled4[s] = curve.values[idx]
    sem4 = sampled4.std(axis=0, ddof=1) / math.sqrt(members4)
    z_position = float(np.max(np.abs(sampled4.mean(axis=0) - expected4) / sem4))
    ok_position = z_position < 3.0

    _record(
        "8",
        ok_var and ok_telegraph and ok_slope and ok_position,
        f"amplitude var err {var_err:.5f} (<0.02); telegraph max|z|="
        f"{z_telegraph:.2f}; phase-slope z={z_slope:.2f}; position-curve "
        f"max|z|={z_position:.2f} (all <3)",
    )


def test_reduced_coefficients_match_simulation(corpus100):
    """The deterministic cycle radius must match the simulated amplitude
    histogram, and the cycle must be in the narrow-line regime."""
    params, table, corpus = corpus100
    radius = nc.limit_cycle_amplitude(table, params)
    cycle = nc.reduced_coefficients(table, params, radius)
    w0 = params.oscillator_frequency
    rec = corpus.record
    amplitudes = np.sqrt(rec.positions**2 + (rec.velocities / w0) ** 2).ravel()
    hist = tickinfo.Histogram.from_samples(amplitudes)
    peak = float(hist.midpoints[np.argmax(hist.masses)])
    radius_err = abs(peak - radius) / radius
    ok = radius_err < 0.10 and cycle.quality_ratio < 0.1
    _record(
        "9",
        ok,
        f"cycle radius {radius:.4f} vs histogram peak {peak:.4f} "
        f"({radius_err:.2%} off, <10%); D_phi/(4*gamma_A)={cycle.quality_ratio:.4f} (<0.1)",
    )


# ------------------------------------------------------------ determinism --


def test_thread_count_invariance(tmp_path):
    """The full pipeline must be byte-identical for any --threads value."""
    params = nc.default_params(5.0)
    gamma0, diffusion0 = nc.friction_and_diffusion(0.0, params)
    spread = math.sqrt(diffusion0 / (2.0 * gamma0))
    payload = {
        "version": 1,
        "system": {"voltage": 5.0},
        "grid": {"x_max": 12.0 * spread, "nodes": 41},
        "simulation": {
            "burn_in": 10.0 * math.pi,
            "duration": 210.0 * math.pi,
            "seed": 31,
            "ensemble_size": 4,
            "record_stride": 2,
        },
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    outs = []
    for threads, name in ((1, "serial"), (4, "threaded")):
        out = tmp_path / name
        code = cli.main(
            ["run", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]
        )
        assert code == 0
        outs.append(out)
    serial_names = sorted(p.name for p in outs[0].iterdir())
    threaded_names = sorted(p.name for p in outs[1].iterdir())
    identical = [
        name
        for name in serial_names
        if (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    ]
    ok = serial_names == threaded_names and len(identical) == len(serial_names)
    _record(
        "10",
        ok,
        f"{len(identical)}/{len(serial_names)} artifacts byte-identical "
        f"between --threads 1 and --threads 4",
    )
