"""Steady-state electronic coefficients: closed forms, frozen refinement
oracles, symmetries, equilibrium identities, and the table round-trip.

The frozen constants were produced by an independent adaptive-quadrature
refinement (scipy.integrate.quad with hand-placed breakpoints and widened
integration windows) and are stated here to their converged digits.
"""
import dataclasses
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemclock import langevin, pipeline, transport
from nemclock.params import AdiabaticityWarning, default_params
from nemclock.quadrature import integrate, kronrod
from nemclock.transport import (
    CHUNK,
    RTOL,
    CoefficientTable,
    GridSpec,
    build_coefficient_table,
    charge_noise_spectrum,
    fermi_dirac,
    friction_and_diffusion,
    lead_self_energy,
    spectral_density,
    table_fingerprint,
    transmission,
    _resonance_denominator,
)

# Independent refinement oracle values (converged against window size and
# tolerance; see docstring above).
CURRENT_V100_X0 = 4.377222897661056
CURRENT_V100_X1 = 4.366397404355147
SHOT_V50_X0 = 2.682489074845226
NOISE_V100_X0_W0 = 0.014980196655622773
NOISE_V100_X0_W1 = 0.014279521725778491
OCCUPATION_V100_X1 = 0.4883000  # converged to the printed digits


@pytest.fixture(scope="module")
def p100():
    return default_params(100.0)


@pytest.fixture(scope="module")
def p50():
    return default_params(50.0)


# ----------------------------------------------------------- local pieces --


def test_fermi_dirac_anchors():
    assert fermi_dirac(2.0, 2.0, 0.5) == pytest.approx(0.5)
    assert fermi_dirac(1e4, 0.0, 0.5) == pytest.approx(0.0, abs=1e-300)
    assert fermi_dirac(-1e4, 0.0, 0.5) == pytest.approx(1.0)
    vals = fermi_dirac(np.linspace(-5, 5, 11), 0.0, 2.0)
    assert np.all(np.diff(vals) < 0)  # strictly decreasing in energy


def test_fermi_dirac_extreme_arguments_do_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = fermi_dirac(np.array([-1e6, 1e6]), 0.0, 10.0)
    assert out[0] == pytest.approx(1.0)
    assert out[1] == pytest.approx(0.0, abs=1e-300)


def test_spectral_density_peak_value_and_shape(p100):
    # at the band center the density equals the peak rate
    assert spectral_density(2.5, p100.left) == pytest.approx(10.0, rel=1e-14)
    # at the opposite band center, one bandwidth pattern: G*d^2/(25+25)
    assert spectral_density(-2.5, p100.left) == pytest.approx(
        10.0 * 25.0 / (25.0 + 25.0), rel=1e-14
    )
    # device anchor: each lead contributes 8 at E=0
    assert spectral_density(0.0, p100.left) == pytest.approx(8.0, rel=1e-14)
    assert spectral_density(0.0, p100.right) == pytest.approx(8.0, rel=1e-14)


def test_self_energy_imaginary_part_is_half_density(p100):
    E = np.linspace(-40.0, 40.0, 401)
    for lead in (p100.left, p100.right):
        chi = lead_self_energy(E, lead)
        kappa = spectral_density(E, lead)
        np.testing.assert_allclose(chi.imag, -0.5 * kappa, rtol=1e-13)
        # real part: dispersive Lorentzian wing
        expected_re = (
            lead.peak_rate * lead.bandwidth / 2.0 * (E - lead.band_center)
        ) / ((E - lead.band_center) ** 2 + lead.bandwidth**2)
        np.testing.assert_allclose(chi.real, expected_re, rtol=1e-12)


def test_transmission_is_unity_on_resonance_symmetric_point(p100):
    assert transmission(0.0, 0.0, p100) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    energy=st.floats(min_value=-60, max_value=60, allow_nan=False),
    position=st.floats(min_value=-40, max_value=40, allow_nan=False),
)
def test_transmission_bounded(energy, position):
    t = transmission(energy, position, default_params(100.0))
    assert 0.0 <= t <= 1.0 + 1e-12


def test_sum_rule_spectral_weight(p100):
    # integral of |response|^2 * (total level width) / 2pi equals one
    x = 0.9

    def integrand(E):
        den = _resonance_denominator(E, p100) + p100.force * x
        dos = spectral_density(E, p100.left) + spectral_density(E, p100.right)
        return dos / (np.abs(den) ** 2 * 2.0 * np.pi)

    res = integrate(
        kronrod(integrand),
        -600.0,
        600.0,
        rtol=1e-10,
        breakpoints=[p100.left.band_center, p100.right.band_center, -p100.force * x],
    )
    assert res.value == pytest.approx(1.0, abs=1e-5)


# ------------------------------------------------------- frozen refinements --


def _at(params, x, name):
    """One coefficient at one position, from a one-node table."""
    return build_coefficient_table(params, [x]).column(name)[0]


def test_occupation_neutral_point_is_half(p100):
    excess = _at(p100, 0.0, "excess_occupation")
    total = excess + transport._baseline_occupation(p100)
    assert total == pytest.approx(0.5, abs=1e-4)
    assert excess == 0.0


def test_occupation_frozen_value(p100):
    excess = _at(p100, 1.0, "excess_occupation")
    total = excess + transport._baseline_occupation(p100)
    assert total == pytest.approx(OCCUPATION_V100_X1, abs=5e-5)
    assert excess == pytest.approx(total - 0.4999921, abs=5e-5)


def test_excess_occupation_is_odd(p100):
    for x in (0.5, 1.7, 3.0):
        plus = _at(p100, x, "excess_occupation")
        minus = _at(p100, -x, "excess_occupation")
        assert plus == pytest.approx(-minus, abs=1e-7)


def test_current_frozen_values(p100):
    assert _at(p100, 0.0, "current") == pytest.approx(CURRENT_V100_X0, rel=1e-9)
    assert _at(p100, 1.0, "current") == pytest.approx(CURRENT_V100_X1, rel=1e-9)


def test_current_antisymmetric_under_bias_reversal(p100):
    for x in (0.0, 0.7):
        assert _at(p100.with_voltage(-100.0), x, "current") == pytest.approx(
            -_at(p100, x, "current"), rel=1e-9
        )


def test_current_mirror_symmetry(p100):
    # flipping the sign of the coupling mirrors the device in x
    flipped = dataclasses.replace(p100, coupling=-p100.coupling)
    for x in (0.4, 1.3):
        assert _at(flipped, x, "current") == pytest.approx(
            _at(p100, -x, "current"), rel=1e-9
        )


def test_current_vanishes_at_zero_bias():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        p0 = default_params(0.0)
        current = _at(p0, 0.8, "current")
    assert current == pytest.approx(0.0, abs=1e-12)


def test_table_build_repeats_no_adiabaticity_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        p0 = default_params(0.0)
        assert [w.category for w in caught] == [AdiabaticityWarning]
        # the zero-coupling baseline is computed on a cold cache
        transport._baseline_occupation.cache_clear()
        build_coefficient_table(p0, [0.8])
    assert len(caught) == 1


def test_shot_noise_frozen_value_and_split(p50):
    total = _at(p50, 0.0, "shot_noise")
    assert total == pytest.approx(SHOT_V50_X0, rel=1e-9)
    # the column is the thermal plus the partition piece of one quadrature pass
    _, _, thermal, partition, *_ = transport._family_batch([0.0], [0.0], p50)
    assert thermal[0] >= 0.0 and partition[0] >= 0.0
    assert thermal[0] + partition[0] == pytest.approx(total, rel=1e-12)


def test_shot_noise_positive_across_positions(p100):
    for x in (-3.0, -0.5, 0.0, 1.5, 4.0):
        assert _at(p100, x, "shot_noise") > 0.0


def test_charge_noise_frozen_values(p100):
    assert charge_noise_spectrum(0.0, 0.0, p100) == pytest.approx(
        NOISE_V100_X0_W0, rel=1e-9
    )
    assert charge_noise_spectrum(0.0, 1.0, p100) == pytest.approx(
        NOISE_V100_X0_W1, rel=1e-9
    )


def test_charge_noise_warns_outside_slow_regime(p100):
    with pytest.warns(AdiabaticityWarning):
        charge_noise_spectrum(0.0, 4.0, p100)


def test_detailed_balance_at_equilibrium():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        p0 = default_params(0.0)
    beta = p0.inverse_temperature
    for omega in (0.5, 1.0, 2.0):
        s_plus = charge_noise_spectrum(0.0, omega, p0)
        s_minus = charge_noise_spectrum(0.0, -omega, p0)
        assert s_minus == pytest.approx(
            math.exp(-beta * omega) * s_plus, rel=1e-9
        )


def test_fluctuation_dissipation_near_equilibrium():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        peq = default_params(0.1)
    beta = peq.inverse_temperature
    m = peq.oscillator_mass
    for x in (0.0, 0.7, 1.4):
        gamma, diffusion = friction_and_diffusion(x, peq)
        assert beta * diffusion == pytest.approx(2.0 * m * gamma, rel=0.02)


# -------------------------------------------------- friction and diffusion --


def test_friction_frozen_value_and_diffusion_identity(p100):
    gamma, diffusion = friction_and_diffusion(0.0, p100)
    assert gamma == pytest.approx(-4.839917354e-4, rel=1e-6)
    # the diffusion coefficient is the zero-frequency noise level
    assert diffusion == pytest.approx(NOISE_V100_X0_W0, rel=1e-9)


def test_friction_sign_pattern_across_bias():
    signs = {}
    for V in (5.0, 42.0, 43.0, 100.0):
        gamma, _ = friction_and_diffusion(0.0, default_params(V))
        signs[V] = gamma
    assert signs[5.0] > 0.0
    assert signs[100.0] < 0.0
    # regression pin for the damping sign change: between 42 and 43
    assert signs[42.0] > 0.0
    assert signs[43.0] < 0.0


# x = 0 and a position near the limit cycle: its radius is 11.1 at V = 50
# and 21.8 at V = 100; V = 5 has none and reuses the V = 50 radius
@pytest.mark.parametrize(
    "voltage,x",
    [(5.0, 0.0), (5.0, 11.0), (50.0, 0.0), (50.0, 11.0), (100.0, 0.0), (100.0, 22.0)],
)
def test_friction_matches_spectrum_slope(voltage, x):
    params = default_params(voltage)
    h = 0.01

    def central(k):
        upper = charge_noise_spectrum(x, k, params)
        lower = charge_noise_spectrum(x, -k, params)
        return (upper - lower) / (2.0 * k), max(upper, lower), (upper + lower) / 2.0

    coarse, s_coarse, even_coarse = central(h)
    fine, s_fine, even_fine = central(h / 2)
    richardson = (4.0 * fine - coarse) / 3.0
    slope = friction_and_diffusion(x, params)[0] * params.oscillator_mass
    # Each S value carries a quadrature error of at most RTOL * S, so a
    # central difference at step k is off by at most RTOL * S_max / k and the
    # Richardson combination by (4/3) RTOL S_max / (h/2) + (1/3) RTOL S_max / h
    # = 3 RTOL S_max / h; the slope itself is good to RTOL * |slope|.  The
    # O(h^4) truncation left after Richardson is below 1e-11 at h = 0.01.
    s_max = max(s_coarse, s_fine)
    bound = 3.0 * RTOL * s_max / h + RTOL * abs(slope)
    assert abs(slope - richardson) <= bound
    # The omega = 0 row reuses the integrand's unshifted factors; the even
    # part (S(k) + S(-k))/2 = S(0) + O(k^2) comes from the shifted-energy
    # path.  Its Richardson limit met S(0) within 1.6e-10 relative at these
    # six points (the largest at V = 100, x = 22; 1.5e-12 at x = 0), while
    # the even part at k = h/2 alone is off by up to 6e-6.
    limit = (4.0 * even_fine - even_coarse) / 3.0
    assert charge_noise_spectrum(x, 0.0, params) == pytest.approx(limit, rel=1e-9)


def test_one_quadrature_pass(monkeypatch, p100):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(transport, "integrate", counting)
    transport._baseline_occupation.cache_clear()
    spec = GridSpec(x_max=5.0, nodes=21)
    spans = transport._spans(spec.positions(), p100)
    build_coefficient_table(p100, spec)
    # one pass per span, plus the zero-coupling baseline on a cold cache
    assert len(calls) == len(spans) + 1
    calls.clear()
    build_coefficient_table(p100, spec)
    assert len(calls) == len(spans)
    calls.clear()
    friction_and_diffusion(0.0, p100)
    assert len(calls) == 1


# spans of about 5 positions at V = 100: |F| = 0.5, narrowest bandwidth 5
WIDE = GridSpec(x_max=60.0, nodes=49)


def test_spans_follow_level_shift_reach(monkeypatch, p100):
    transport._baseline_occupation(p100)  # warm: no pass of its own
    batches, calls = [], []
    batch = transport._family_batch

    def recording(positions, *args):
        batches.append(np.array(positions))
        return batch(positions, *args)

    def counting(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(transport, "_family_batch", recording)
    monkeypatch.setattr(transport, "integrate", counting)
    build_coefficient_table(p100, WIDE)
    np.testing.assert_array_equal(np.concatenate(batches), WIDE.positions())
    reach = min(p100.left.bandwidth, p100.right.bandwidth)
    for xs in batches:
        assert xs.size <= CHUNK
        assert abs(p100.force) * (xs[-1] - xs[0]) <= reach * (1.0 + 1e-12)
    assert len(batches) > 1 and len(calls) == len(batches)


def test_spans_without_force_are_plain_blocks(p100):
    free = dataclasses.replace(p100, coupling=0.0)
    spans = transport._spans(np.arange(150.0), free)
    assert spans == [(0, CHUNK), (CHUNK, 2 * CHUNK), (2 * CHUNK, 150)]


def test_diffusion_positive_on_coarse_scan(p100):
    for x in (-20.0, -5.0, 0.0, 5.0, 20.0):
        _, diffusion = friction_and_diffusion(x, p100)
        assert diffusion > 0.0


# ------------------------------------------------------------------ tables --


@pytest.fixture(scope="module")
def small_table(p100):
    return build_coefficient_table(p100, GridSpec(x_max=5.0, nodes=21))


def test_table_grid_and_columns(small_table):
    assert small_table.grid[0] == -5.0 and small_table.grid[-1] == 5.0
    assert np.all(np.diff(small_table.grid) > 0)
    for name in ("friction", "diffusion", "excess_occupation", "current",
                 "shot_noise"):
        col = small_table.column(name)
        assert col.shape == small_table.grid.shape
        assert np.all(np.isfinite(col))
    with pytest.raises(KeyError):
        small_table.column("no_such_column")


def test_table_rejects_bad_columns(small_table):
    grid = small_table.grid
    columns = dict(small_table.columns)
    with pytest.raises(ValueError, match="grid length"):
        CoefficientTable(grid=grid[:-1], columns=columns, params_hash="x")
    del columns["current"]
    with pytest.raises(ValueError, match="columns must be exactly"):
        CoefficientTable(grid=grid, columns=columns, params_hash="x")


def test_table_matches_pointwise_evaluation(small_table, p100):
    i = 7
    x = small_table.grid[i]
    gamma, diffusion = friction_and_diffusion(x, p100)
    assert small_table.column("friction")[i] == pytest.approx(gamma, rel=1e-12)
    assert small_table.column("diffusion")[i] == pytest.approx(diffusion, rel=1e-12)
    assert small_table.column("current")[i] == pytest.approx(
        _at(p100, x, "current"), rel=1e-12
    )


def test_table_threads_do_not_change_values(p100):
    # several spans, so the pool runs more than one task
    t1 = build_coefficient_table(p100, WIDE, threads=1)
    t3 = build_coefficient_table(p100, WIDE, threads=3)
    for name in ("friction", "diffusion", "excess_occupation", "current",
                 "shot_noise"):
        np.testing.assert_array_equal(t1.column(name), t3.column(name))
    assert t1.params_hash == t3.params_hash


def test_table_round_trip(tmp_path, small_table, p100):
    path = tmp_path / "coeffs.npz"
    small_table.save(path)
    loaded = CoefficientTable.load(path, expected_hash=small_table.params_hash)
    np.testing.assert_array_equal(loaded.grid, small_table.grid)
    for name in ("friction", "diffusion", "excess_occupation", "current",
                 "shot_noise"):
        np.testing.assert_array_equal(
            loaded.column(name), small_table.column(name)
        )
    assert loaded.params_hash == small_table.params_hash


def test_table_load_rejects_other_parameters(tmp_path, small_table):
    path = tmp_path / "coeffs.npz"
    small_table.save(path)
    with pytest.raises(ValueError, match="different parameters"):
        CoefficientTable.load(path, expected_hash="0" * 64)


def test_table_load_rejects_corruption(tmp_path, small_table):
    path = tmp_path / "coeffs.npz"
    small_table.save(path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="corrupt"):
        CoefficientTable.load(path, expected_hash=small_table.params_hash)
    # a missing file is not corruption: callers distinguish the two
    with pytest.raises(FileNotFoundError):
        CoefficientTable.load(tmp_path / "absent.npz")


def test_fingerprint_tracks_inputs(p100, p50):
    grid = np.linspace(-5, 5, 21)
    base = table_fingerprint(p100, grid)
    assert base == table_fingerprint(p100, grid)
    assert base != table_fingerprint(p50, grid)
    assert base != table_fingerprint(p100, grid * 1.001)


# ---------------------------------------------------- compiled panel rule --


def _same(a, b):
    """Equal bit for bit up to NaN payloads: values, NaNs and zero signs."""
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a[~np.isnan(a)]), np.signbit(b[~np.isnan(b)]))
    )


@pytest.fixture
def panel_kernel():
    kernel = langevin._kernel()
    if kernel is None:
        pytest.skip("compiled kernel unavailable")
    return kernel


def _both_rules(kernel, lo, hi, xs, omegas, params, force):
    """(kron, err) of the compiled panel rule and of ``kronrod`` over the
    NumPy integrand rows, its oracle."""
    xs, omegas = np.asarray(xs, dtype=float), np.asarray(omegas, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    fast = transport._panel_rule(xs, omegas, params, force, kernel)(lo, hi)
    reference = kronrod(
        lambda energy: transport._integrand_rows(energy, xs, omegas, params, force)
    )(lo, hi)
    return fast, reference


@pytest.mark.parametrize("voltage", [5.0, 50.0, 100.0])
def test_panel_kernel_matches_numpy_rule(panel_kernel, voltage):
    params = default_params(voltage)
    rng = np.random.default_rng(int(voltage))
    x_max = pipeline.default_grid(params).x_max
    lo, hi, _ = transport._window(params)
    batches = [
        rng.uniform(-x_max, x_max, 17),  # two full position tiles and a ragged one
        [0.0],  # n_x = 1
        [-x_max, x_max],  # the grid's edges
        np.linspace(-x_max, x_max, 64),
    ]
    # a ragged panel count: random panels over the window, one panel, two
    edges = np.sort(rng.uniform(lo, hi, 34))
    for panels in ((edges[:-1], edges[1:]), ([lo], [hi]), (edges[3:5], edges[4:6])):
        for xs in batches:
            for omegas in ([], [0.0]):
                for force in (params.force, 0.0):
                    fast, reference = _both_rules(panel_kernel, *panels, xs, omegas, params, force)
                    assert fast[0].shape == ((5 + len(omegas)) * len(xs), len(panels[0]))
                    for mine, theirs in zip(fast, reference):
                        assert _same(mine, theirs), (len(xs), omegas, force)


def test_panel_kernel_matches_numpy_rule_at_non_finite_energies(panel_kernel, p100):
    # panels whose nodes overflow, sit at +-inf or are NaN, and a subnormal one
    lo = [1e300, -1.7e308, 1e308, -np.inf, 0.0, np.nan, -5e-324, -np.inf]
    hi = [1.7e308, -1e300, np.inf, 0.0, np.inf, 1.0, 5e-324, np.inf]
    with np.errstate(all="ignore"):
        fast, reference = _both_rules(panel_kernel, lo, hi, [-3.0, 0.0, 2.5], [0.0], p100, p100.force)
    assert not np.all(np.isfinite(reference[0]))
    for mine, theirs in zip(fast, reference):
        assert _same(mine, theirs)


@pytest.mark.parametrize("compiled", [True, False])
def test_panel_rules_do_not_depend_on_the_batch(panel_kernel, p100, compiled):
    # a panel's (kron, err) has the same bits alone or anywhere in a batch
    rng = np.random.default_rng(11)
    lo, hi, _ = transport._window(p100)
    edges = np.sort(rng.uniform(lo, hi, 42))
    lo, hi = edges[:-1], edges[1:]
    xs = rng.uniform(-30.0, 30.0, 11)
    rule = transport._panel_rule(
        xs, np.array([0.0]), p100, p100.force, panel_kernel if compiled else None
    )
    kron, err = rule(lo, hi)
    for i in range(lo.size):
        one_kron, one_err = rule(lo[i:i + 1], hi[i:i + 1])
        assert np.array_equal(one_kron[:, 0], kron[:, i])
        assert np.array_equal(one_err[:, 0], err[:, i])
    order = rng.permutation(lo.size)
    part = order[: lo.size // 3]
    part_kron, part_err = rule(lo[part], hi[part])
    assert np.array_equal(part_kron, kron[:, part])
    assert np.array_equal(part_err, err[:, part])


def _tables(voltage):
    """The probe table (when the voltage has one) and the main table."""
    params = default_params(voltage)
    probes = []

    def recording(*args, **kwargs):
        probes.append(transport.build_coefficient_table(*args, **kwargs))
        return probes[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "build_coefficient_table", recording)
        grid = pipeline.default_grid(params)
    return [*probes, build_coefficient_table(params, grid)]


# "the rows kernel" below is nemclock_panels, which evaluates the integrand
# rows inside its panel sums


@pytest.mark.parametrize("voltage", [5.0, 50.0, 100.0])
def test_tables_equal_with_the_rows_kernel_off(monkeypatch, panel_kernel, voltage):
    transport._baseline_occupation.cache_clear()
    fast = _tables(voltage)
    assert len(fast) == (1 if voltage == 5.0 else 2)
    monkeypatch.setattr(langevin, "_kernel", lambda: None)
    transport._baseline_occupation.cache_clear()
    reference = _tables(voltage)
    for one, two in zip(fast, reference):
        assert np.array_equal(one.grid, two.grid)
        for name in transport.COLUMNS:
            assert np.array_equal(one.column(name), two.column(name)), name


def test_onset_scan_friction_equal_with_the_rows_kernel_off(monkeypatch, panel_kernel):
    # scripts/onset_scan.py's voltages: single-position quadrature passes
    voltages = np.linspace(10.0, 60.0, 26)
    fast = [friction_and_diffusion(0.0, default_params(float(v))) for v in voltages]
    monkeypatch.setattr(langevin, "_kernel", lambda: None)
    reference = [friction_and_diffusion(0.0, default_params(float(v))) for v in voltages]
    assert fast == reference


@pytest.mark.skipif(not os.path.exists(langevin._CC), reason="no C compiler")
def test_tables_use_the_rows_kernel(monkeypatch, p100):
    # a broken build would otherwise pass every test on the NumPy rule
    kernel = langevin._kernel()
    assert kernel is not None
    calls = []

    class Counting:
        def nemclock_panels(self, *args):
            calls.append(args[0])
            return kernel.nemclock_panels(*args)

    monkeypatch.setattr(langevin, "_kernel", Counting)
    build_coefficient_table(p100, [0.0, 0.5])
    assert 2 in calls  # both positions in one pass
