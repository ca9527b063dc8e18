"""Reduced-model extraction: exact closed forms on synthetic tables, frozen
operating-point regressions, analytic correlators, and toy-process sampling."""
import math

import numpy as np
import pytest

from conftest import make_synthetic_table
from nemclock import toymodels
from nemclock.params import default_params
from nemclock.toymodels import (
    OUAmplitude,
    OffsetModelParams,
    PhaseDiffusion,
    ReducedCycle,
    TelegraphParams,
    analytic_position_autocorrelation,
    limit_cycle_amplitude,
    offset_model_correlation,
    reduced_coefficients,
    simulate_toy,
    telegraph_correlation,
    telegraph_statics,
)

# Reduced coefficients of the default operating points, frozen from the
# package build that matches the transport regression constants.
FROZEN = {
    100.0: dict(
        amplitude=21.829317941437825,
        damping=3.0294588996293965e-4,
        amp_diffusion=1.0640051577791538e-2,
        phase_diffusion=3.659485519318203e-5,
    ),
    50.0: dict(
        amplitude=11.122690872638296,
        damping=2.489418335041961e-4,
        amp_diffusion=9.093752777089896e-3,
        phase_diffusion=8.813463595254545e-5,
    ),
}


def _quartic_table(a=0.5, b=0.125, diffusion=0.0, x_max=8.0):
    # friction -a + b x^2: cycle-averaged radial drift a*A/2 - b*A^3/8
    # vanishes at A0 = 2*sqrt(a/b) with slope -a (exact trigonometric moments)
    return make_synthetic_table(
        np.linspace(-x_max, x_max, 33),
        friction=lambda x: -a + b * x * x,
        diffusion=diffusion,
        tag="quartic",
    )


@pytest.fixture(scope="module")
def params():
    return default_params(100.0)


# --------------------------------------------------------------- extraction --


def test_limit_cycle_amplitude_exact(params):
    a, b = 0.5, 0.125
    table = _quartic_table(a, b)
    amp = limit_cycle_amplitude(table, params)
    assert amp == pytest.approx(2.0 * math.sqrt(a / b), rel=1e-9)


def _brent_cases(table100, params100):
    """Bracketed functions: the radial drift of the V = 100 and quartic
    tables, plus smooth, steep, flat and kinked shapes."""
    drift = toymodels._drift_function(table100, params100)
    quartic = toymodels._drift_function(_quartic_table(), params100)
    return [
        (lambda a: float(drift(a)[0]), 1.0, 30.0),
        (lambda a: float(drift(a)[0]), 20.0, 23.0),
        (lambda a: float(quartic(a)[0]), 0.5, 5.3),
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (math.cos, 0.0, 3.0),
        (lambda x: math.exp(x) - 1e6, -5.0, 30.0),
        (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0),
        (lambda x: x**3 - 1e-9, -1.0, 2.0),
        (lambda x: abs(x - 0.7) - 0.2, 0.7, 5.0),
        (lambda x: x, -1.0, 0.0),
    ]


def test_brentq_equals_scipy(table100, params100):
    from scipy.optimize import brentq as scipy_brentq

    for f, a, b in _brent_cases(table100, params100):
        assert toymodels.brentq(f, a, b) == scipy_brentq(f, a, b)
        assert toymodels.brentq(f, b, a) == scipy_brentq(f, b, a)
    with pytest.raises(ValueError, match="different signs"):
        toymodels.brentq(math.cos, 0.0, 1.0)
    # a flat ninth-power root exhausts both within the 100 iterations
    for brentq in (toymodels.brentq, scipy_brentq):
        with pytest.raises(RuntimeError, match="converge"):
            brentq(lambda x: (x - 1e-3) ** 9, -1.0, 2.0)


def test_reduced_coefficients_exact(params):
    a, b, D = 0.5, 0.125, 0.35
    table = _quartic_table(a, b, diffusion=D)
    # constant diffusion shifts the root: the radial drift is
    # a*A/2 - b*A^3/8 + D/(4*A), so b*A^4/8 - a*A^2/2 - D/4 = 0 at the cycle
    amp = limit_cycle_amplitude(table, params)
    assert b / 8.0 * amp**4 - a / 2.0 * amp**2 - D / 4.0 == pytest.approx(
        0.0, abs=1e-9
    )
    cycle = reduced_coefficients(table, params, amp)
    # exact cycle averages for constant diffusion
    assert cycle.amplitude_diffusion == pytest.approx(D / 2.0, rel=1e-9)
    assert cycle.phase_diffusion == pytest.approx(
        D / (2.0 * amp**2), rel=1e-9
    )
    # damping = -d(drift)/dA at the root, from the same closed form
    expected_damping = -(a / 2.0 - 3.0 * b * amp**2 / 8.0 - D / (4.0 * amp**2))
    assert cycle.amplitude_damping == pytest.approx(expected_damping, rel=1e-6)


def test_no_cycle_below_threshold(params):
    table = make_synthetic_table(
        np.linspace(-8.0, 8.0, 17), friction=0.3, diffusion=0.1, tag="damped"
    )
    assert limit_cycle_amplitude(table, params) is None


def test_unbounded_growth_reports_grid(params):
    table = make_synthetic_table(
        np.linspace(-8.0, 8.0, 17), friction=-0.1, diffusion=0.0, tag="runaway"
    )
    with pytest.raises(RuntimeError, match="enlarge"):
        limit_cycle_amplitude(table, params)


def test_amplitude_outside_coverage(params):
    table = _quartic_table()
    with pytest.raises(ValueError, match="coverage"):
        reduced_coefficients(table, params, 9.5)


def test_phase_grid_resolution_converged(monkeypatch, table100, params100):
    amp = limit_cycle_amplitude(table100, params100)
    c256 = reduced_coefficients(table100, params100, amp)
    monkeypatch.setattr(toymodels, "PHASE_POINTS", 512)
    assert toymodels._phase_grid()[0].size == 512
    fine = limit_cycle_amplitude(table100, params100)
    assert abs(fine - amp) < 1e-8
    c512 = reduced_coefficients(table100, params100, amp)
    assert c512.amplitude_damping == pytest.approx(
        c256.amplitude_damping, rel=1e-8
    )


@pytest.mark.parametrize("voltage", [100.0, 50.0])
def test_operating_point_regression(voltage, table100, table50, params100, params50):
    table = {100.0: table100, 50.0: table50}[voltage]
    params = {100.0: params100, 50.0: params50}[voltage]
    frozen = FROZEN[voltage]
    amp = limit_cycle_amplitude(table, params)
    assert amp == pytest.approx(frozen["amplitude"], rel=5e-3)
    cycle = reduced_coefficients(table, params, amp)
    assert cycle.amplitude_damping == pytest.approx(frozen["damping"], rel=5e-3)
    assert cycle.amplitude_diffusion == pytest.approx(
        frozen["amp_diffusion"], rel=5e-3
    )
    assert cycle.phase_diffusion == pytest.approx(
        frozen["phase_diffusion"], rel=5e-3
    )
    # the slow expansion is self-consistent: relaxation well below the
    # carrier and phase spread per relaxation time well below a radian
    assert cycle.amplitude_damping < 0.01
    assert cycle.quality_ratio < 0.1


def test_reduced_cycle_properties_and_validation():
    cycle = ReducedCycle(
        amplitude=2.0,
        amplitude_damping=0.5,
        amplitude_diffusion=0.1,
        phase_diffusion=0.02,
    )
    assert cycle.amplitude_variance == pytest.approx(0.1)
    assert cycle.quality_ratio == pytest.approx(0.01)
    with pytest.raises(ValueError, match="amplitude"):
        ReducedCycle(
            amplitude=0.0,
            amplitude_damping=0.5,
            amplitude_diffusion=0.1,
            phase_diffusion=0.0,
        )
    with pytest.raises(ValueError, match="stable cycle"):
        ReducedCycle(
            amplitude=1.0,
            amplitude_damping=0.0,
            amplitude_diffusion=0.1,
            phase_diffusion=0.0,
        )
    with pytest.raises(ValueError, match=">= 0"):
        ReducedCycle(
            amplitude=1.0,
            amplitude_damping=0.5,
            amplitude_diffusion=-0.1,
            phase_diffusion=0.0,
        )


# ----------------------------------------------------------------- analytics --


def test_position_autocorrelation_closed_form():
    cycle = ReducedCycle(
        amplitude=3.0,
        amplitude_damping=0.2,
        amplitude_diffusion=0.08,
        phase_diffusion=0.05,
    )
    t = np.array([0.0, 1.0, 4.0])
    got = analytic_position_autocorrelation(cycle, 1.0, t)
    var = 0.08 / 0.4
    expected = (
        0.5
        * (9.0 + var * np.exp(-0.4 * t))
        * np.cos(t)
        * np.exp(-0.025 * t)
    )
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    # even in the lag
    np.testing.assert_allclose(
        analytic_position_autocorrelation(cycle, 1.0, -t), got, rtol=1e-12
    )


def test_telegraph_statics_and_correlation():
    p = TelegraphParams(rates=(0.4, 1.6), levels=(0.0, 1.0))
    stationary, kernel = telegraph_statics(p)
    np.testing.assert_allclose(stationary, [0.8, 0.2])
    np.testing.assert_allclose(kernel(0.0), np.eye(2), atol=1e-12)
    far = kernel(50.0)
    np.testing.assert_allclose(far[0], stationary, atol=1e-12)
    np.testing.assert_allclose(far.sum(axis=1), 1.0, atol=1e-12)
    # C(0) equals the stationary variance of the emitted level
    var = stationary[0] * stationary[1]
    assert telegraph_correlation(p, 0.0) == pytest.approx(var)
    assert telegraph_correlation(p, 1.0) == pytest.approx(var * math.exp(-2.0))
    with pytest.raises(ValueError, match="two states"):
        TelegraphParams(rates=(1.0,), levels=(0.0,))
    with pytest.raises(ValueError, match="> 0"):
        TelegraphParams(rates=(1.0, -1.0), levels=(0.0, 1.0))


def test_offset_model_correlation_composition():
    cycle = ReducedCycle(
        amplitude=3.0,
        amplitude_damping=0.2,
        amplitude_diffusion=0.08,
        phase_diffusion=0.05,
    )
    t = np.linspace(0.0, 5.0, 11)
    base = analytic_position_autocorrelation(cycle, 1.0, t)
    combined = offset_model_correlation(
        OffsetModelParams(cycle=cycle, offset=0.7, baseline=5.0), 1.0, t
    )
    extra = 0.49 * cycle.amplitude_variance * np.exp(-0.4 * t)
    np.testing.assert_allclose(combined, base + extra, rtol=1e-12)
    # baseline never enters the covariance
    shifted = offset_model_correlation(
        OffsetModelParams(cycle=cycle, offset=0.7, baseline=-2.0), 1.0, t
    )
    np.testing.assert_allclose(shifted, combined, rtol=1e-12)


# ------------------------------------------------------------------ sampling --


def _cycle():
    return ReducedCycle(
        amplitude=4.0,
        amplitude_damping=0.6,
        amplitude_diffusion=0.3,
        phase_diffusion=0.04,
    )


def test_simulate_determinism():
    spec = OUAmplitude(_cycle())
    t1, s1 = simulate_toy(spec, 50.0, 0.01, seed=3)
    t2, s2 = simulate_toy(spec, 50.0, 0.01, seed=3)
    np.testing.assert_array_equal(s1, s2)
    _, s3 = simulate_toy(spec, 50.0, 0.01, seed=4)
    assert not np.array_equal(s1, s3)
    with pytest.raises(ValueError):
        simulate_toy(spec, -1.0, 0.01, seed=0)
    with pytest.raises(ValueError):
        simulate_toy(spec, 1.0, 0.0, seed=0)


def test_ar1_recursion_equals_lfilter():
    # the toy OU amplitude's recursion rounds as scipy's lfilter
    from scipy.signal import lfilter

    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 4099):
        noise = rng.standard_normal((n, 2))[:, 0]  # a strided column
        for rho, scale, start in ((0.995, 0.31, -0.7), (math.exp(-0.05), 2.0, 0.0)):
            want, _ = lfilter([scale], [1.0, -rho], noise, zi=[start])
            assert np.array_equal(toymodels._ar1_loop(noise, rho, scale, start), want)


def test_ou_amplitude_moments():
    cycle = _cycle()
    _, series = simulate_toy(OUAmplitude(cycle), 4000.0, 0.02, seed=11)
    burn = 2000
    tail = series[burn:]
    assert tail.mean() == pytest.approx(cycle.amplitude, abs=0.05)
    assert tail.var() == pytest.approx(cycle.amplitude_variance, rel=0.1)


def test_phase_diffusion_increments():
    cycle = _cycle()
    freq = 1.3
    dt = 0.05
    _, phase = simulate_toy(
        PhaseDiffusion(cycle), 2000.0, dt, seed=21, frequency=freq
    )
    inc = np.diff(phase)
    assert inc.mean() == pytest.approx(freq * dt, rel=0.01)
    assert inc.var() == pytest.approx(cycle.phase_diffusion * dt, rel=0.05)


def test_telegraph_path_statistics():
    p = TelegraphParams(rates=(0.4, 1.6), levels=(0.0, 1.0))
    _, series = simulate_toy(p, 20000.0, 0.05, seed=31)
    assert set(np.unique(series)) <= {0.0, 1.0}
    assert series.mean() == pytest.approx(0.2, abs=0.02)


def test_offset_model_mean_level():
    cycle = _cycle()
    spec = OffsetModelParams(cycle=cycle, offset=0.25, baseline=2.0)
    means = []
    for seed in range(8):
        _, series = simulate_toy(spec, 600.0, 0.02, seed=seed)
        means.append(series.mean())
    # E[A (cos(phi) - offset) + baseline] = baseline - offset*E[A]
    assert np.mean(means) == pytest.approx(
        2.0 - 0.25 * cycle.amplitude, abs=0.05
    )
