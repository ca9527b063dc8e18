"""Steady-state electronic coefficients: closed forms, frozen refinement
oracles, symmetries, equilibrium identities, and the table round-trip.

The frozen constants were produced by an independent adaptive-quadrature
refinement (scipy.integrate.quad with hand-placed breakpoints and widened
integration windows) and are stated here to their converged digits.
"""
import dataclasses
import hashlib
import inspect
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from nemclock import cli, langevin, pipeline, transport
from nemclock.params import AdiabaticityWarning, LeadSpec, SystemParams, default_params
from nemclock.quadrature import integrate, kronrod
from nemclock.transport import (
    COLUMNS,
    CoefficientTable,
    GridSpec,
    build_coefficient_table,
    friction_and_diffusion,
    table_fingerprint,
)
from oracle import _integrand_rows, _lead_factors, _window, fermi_dirac

# Independent refinement oracle values (converged against window size and
# tolerance; see docstring above).
CURRENT_V100_X0 = 4.377222897661056
CURRENT_V100_X1 = 4.366397404355147
SHOT_V50_X0 = 2.682489074845226
NOISE_V100_X0_W0 = 0.014980196655622773
NOISE_V100_X0_W1 = 0.014279521725778491
OCCUPATION_V100_X1 = 0.4883000  # converged to the printed digits


# S_x at omega != 0, which only the tests need: adaptive quadrature of the
# integrand rows over the window padded by |omega|, seeded at the window's
# breakpoints, to the relative tolerance RTOL with the absolute floor ATOL
RTOL = 1e-8
ATOL = 1e-14


def _spectrum(x, omega, params):
    """S_x(omega) at position ``x``, the last of the six integrand rows."""
    xs = np.array([x], dtype=float)
    lo, hi, seeds = _window(params, pad=abs(omega))
    result = integrate(
        kronrod(lambda energy: _integrand_rows(energy, xs, params, params.force, omega)),
        lo, hi, rtol=RTOL, atol=ATOL, breakpoints=seeds,
    )
    return float(result.value.reshape(6, 1)[5, 0])


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
    assert _lead_factors(2.5, p100.left)[0] == pytest.approx(10.0, rel=1e-14)
    # at the opposite band center, one bandwidth pattern: G*d^2/(25+25)
    assert _lead_factors(-2.5, p100.left)[0] == pytest.approx(
        10.0 * 25.0 / (25.0 + 25.0), rel=1e-14
    )
    # device anchor: each lead contributes 8 at E=0
    assert _lead_factors(0.0, p100.left)[0] == pytest.approx(8.0, rel=1e-14)
    assert _lead_factors(0.0, p100.right)[0] == pytest.approx(8.0, rel=1e-14)


def test_self_energy_imaginary_part_is_half_density(p100):
    E = np.linspace(-40.0, 40.0, 401)
    for lead in (p100.left, p100.right):
        kappa, _, chi, _ = _lead_factors(E, lead)
        np.testing.assert_allclose(chi.imag, -0.5 * kappa, rtol=1e-13)
        # real part: dispersive Lorentzian wing
        expected_re = (
            lead.peak_rate * lead.bandwidth / 2.0 * (E - lead.band_center)
        ) / ((E - lead.band_center) ** 2 + lead.bandwidth**2)
        np.testing.assert_allclose(chi.real, expected_re, rtol=1e-12)


def test_sum_rule_spectral_weight(p100):
    # integral of |response|^2 * (total level width) / 2pi equals one
    x = 0.9

    def integrand(E):
        kl, _, chi_l, _ = _lead_factors(E, p100.left)
        kr, _, chi_r, _ = _lead_factors(E, p100.right)
        den = np.asarray(E, dtype=complex) - p100.dot_energy - chi_l - chi_r + p100.force * x
        return (kl + kr) / (np.abs(den) ** 2 * 2.0 * np.pi)

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
    total = excess + transport._pole_rows(np.zeros(1), p100, p100.force)[0, 0]
    assert total == pytest.approx(0.5, abs=1e-12)
    assert excess == 0.0


def test_occupation_frozen_value(p100):
    excess = _at(p100, 1.0, "excess_occupation")
    total = excess + transport._pole_rows(np.zeros(1), p100, p100.force)[0, 0]
    assert total == pytest.approx(OCCUPATION_V100_X1, abs=5e-5)
    assert excess == pytest.approx(total - 0.5, abs=1e-12)


def test_excess_occupation_is_odd(p100):
    for x in (0.5, 1.7, 3.0):
        plus = _at(p100, x, "excess_occupation")
        minus = _at(p100, -x, "excess_occupation")
        assert plus == pytest.approx(-minus, abs=1e-12)


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
        build_coefficient_table(p0, [0.8])
    assert len(caught) == 1


def test_shot_noise_frozen_value_and_split(p50):
    total = _at(p50, 0.0, "shot_noise")
    assert total == pytest.approx(SHOT_V50_X0, rel=1e-9)
    # the column is the thermal plus the partition piece of one pole-sum pass
    _, _, thermal, partition, *_ = transport._pole_rows(np.zeros(1), p50, p50.force)
    assert thermal[0] >= 0.0 and partition[0] >= 0.0
    assert thermal[0] + partition[0] == pytest.approx(total, rel=1e-12)


def test_shot_noise_positive_across_positions(p100):
    for x in (-3.0, -0.5, 0.0, 1.5, 4.0):
        assert _at(p100, x, "shot_noise") > 0.0


def test_charge_noise_frozen_values(p100):
    # omega = 0 is the diffusion, pinned with the friction below
    assert _spectrum(0.0, 1.0, p100) == pytest.approx(NOISE_V100_X0_W1, rel=1e-9)


def test_detailed_balance_at_equilibrium():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        p0 = default_params(0.0)
    beta = p0.inverse_temperature
    for omega in (0.5, 1.0, 2.0):
        s_plus = _spectrum(0.0, omega, p0)
        s_minus = _spectrum(0.0, -omega, p0)
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
        upper = _spectrum(x, k, params)
        lower = _spectrum(x, -k, params)
        return (upper - lower) / (2.0 * k), max(upper, lower), (upper + lower) / 2.0

    coarse, s_coarse, even_coarse = central(h)
    fine, s_fine, even_fine = central(h / 2)
    richardson = (4.0 * fine - coarse) / 3.0
    gamma, diffusion = friction_and_diffusion(x, params)
    slope = gamma * params.oscillator_mass
    # Each S value carries a quadrature error of at most RTOL * S, so a
    # central difference at step k is off by at most RTOL * S_max / k and the
    # Richardson combination by (4/3) RTOL S_max / (h/2) + (1/3) RTOL S_max / h
    # = 3 RTOL S_max / h; the slope itself is good to RTOL * |slope|.  The
    # O(h^4) truncation left after Richardson is below 1e-11 at h = 0.01.
    s_max = max(s_coarse, s_fine)
    bound = 3.0 * RTOL * s_max / h + RTOL * abs(slope)
    assert abs(slope - richardson) <= bound
    # The diffusion is the pole sum of S(0); the even part
    # (S(k) + S(-k))/2 = S(0) + O(k^2) comes from the shifted-energy
    # quadrature.  Its Richardson limit met S(0) within 1.6e-10 relative at
    # these six points (the largest at V = 100, x = 22; 1.5e-12 at x = 0),
    # while the even part at k = h/2 alone is off by up to 6e-6.
    limit = (4.0 * even_fine - even_coarse) / 3.0
    assert diffusion == pytest.approx(limit, rel=1e-9)


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
    assert small_table.values.shape == (len(transport.COLUMNS), small_table.grid.size)
    assert small_table.values.flags.c_contiguous
    assert np.all(np.diff(small_table.grid) > 0)
    for name in ("friction", "diffusion", "excess_occupation", "current",
                 "shot_noise"):
        col = small_table.column(name)
        assert col.shape == small_table.grid.shape
        assert np.all(np.isfinite(col))
    with pytest.raises(KeyError):
        small_table.column("no_such_column")


def test_table_rejects_bad_columns(small_table):
    # values must be one row per column in COLUMNS order, one value per node
    grid, values = small_table.grid, small_table.values
    for bad_grid, bad_values in [
        (grid[:-1], values),  # a row longer than the grid
        (grid, values[1:]),  # a column missing
        (grid, values.T),  # transposed: a column per coefficient
        (grid, values[0]),  # one flat row
    ]:
        with pytest.raises(ValueError, match="values must have shape"):
            CoefficientTable(grid=bad_grid, values=bad_values, params_hash="x")


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
    wide = GridSpec(x_max=60.0, nodes=49)
    t1 = build_coefficient_table(p100, wide, threads=1)
    t3 = build_coefficient_table(p100, wide, threads=3)
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


def test_saved_table_members_and_checksum(tmp_path, small_table):
    # the archive layout of every coeffs.npz, from before the columnar table too
    path = tmp_path / "coeffs.npz"
    small_table.save(path)
    with np.load(path) as data:
        assert data.files == ["header", "grid", *transport.COLUMNS]
        header = json.loads(bytes(data["header"]).decode())
        digest = hashlib.sha256(data["grid"].tobytes())
        for name in sorted(transport.COLUMNS):
            digest.update(name.encode())
            digest.update(data[name].tobytes())
            assert np.array_equal(data[name], small_table.column(name))
    assert header["checksum"] == digest.hexdigest()


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
        CoefficientTable.load(tmp_path / "absent.npz", expected_hash=small_table.params_hash)


def test_fingerprint_tracks_inputs(p100, p50):
    grid = np.linspace(-5, 5, 21)
    base = table_fingerprint(p100, grid)
    assert base == table_fingerprint(p100, grid)
    assert base != table_fingerprint(p50, grid)
    assert base != table_fingerprint(p100, grid * 1.001)


# -------------------------------------------------------------- pole sums --


def _oracle(xs, params, force=None, scale=np.ones(6), rtol=1e-13, atol=1e-15):
    """The six rows by adaptive quadrature of the NumPy integrand rows over
    the window widened by 1e6 on each side, each to ``rtol`` or to ``atol``
    times its ``scale``.

    Sixty geometric breakpoints per side keep the first panels of each tail
    small: over a plainly widened window the Kronrod-Gauss error of the huge
    first panels misses the tail mass, and the rows come out 2-4e-5 off.
    """
    xs = np.asarray(xs, dtype=float)
    force = params.force if force is None else force
    lo, hi, seeds = _window(params)
    tail = np.geomspace(1.0, 1e6, 60)
    per_row = np.repeat(scale, xs.size)[:, None]
    result = integrate(
        kronrod(lambda energy: _integrand_rows(energy, xs, params, force) / per_row),
        lo - 1e6, hi + 1e6, rtol=rtol, atol=atol,
        breakpoints=[*seeds, *(lo - tail), *(hi + tail), *(params.dot_energy - force * xs)],
        max_panels=200_000,
    )
    return result.value.reshape(6, xs.size) * scale[:, None]


def _quiet(build, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        return build(*args)


# the leads of test_params, and a device with no symmetry left
ROW_CASES = {
    "V=5": default_params(5.0),
    "V=100": default_params(100.0),
    "reversed bias": default_params(-100.0),
    "no coupling": dataclasses.replace(default_params(100.0), coupling=0.0),
    "test_params leads": SystemParams(
        left=LeadSpec(band_center=1.0, bandwidth=2.0, peak_rate=3.0, chemical_potential=7.0),
        right=LeadSpec(band_center=-1.0, bandwidth=2.0, peak_rate=3.0, chemical_potential=3.0),
        inverse_temperature=0.1, coupling=0.5,
    ),
    "skewed leads": SystemParams(
        left=LeadSpec(band_center=4.0, bandwidth=3.0, peak_rate=6.0, chemical_potential=20.0),
        right=LeadSpec(band_center=-1.0, bandwidth=1.5, peak_rate=3.5, chemical_potential=-35.0),
        inverse_temperature=0.25, coupling=0.8, dot_energy=0.7,
    ),
}


@pytest.mark.parametrize("case", ROW_CASES)
def test_pole_sums_match_the_quadrature_oracle(case):
    params = ROW_CASES[case]
    xs = np.array([-8.0, 0.0, 5.0])
    rows = transport._pole_rows(xs, params, params.force)
    want = _oracle(xs, params)
    assert np.max(np.abs(rows[0] - want[0])) <= 2e-15
    for got, row in zip(rows[1:], want[1:]):
        assert np.max(np.abs(got - row)) <= 1e-13 * np.max(np.abs(row))


def test_rows_through_zero_bias():
    xs = np.array([-3.0, 0.0, 1.7])
    params = {v: _quiet(default_params, v) for v in (0.0, 1e-6, 0.1, 0.6, 0.7)}
    zero = transport._pole_rows(xs, params[0.0], params[0.0].force)
    assert not np.any(zero[1]) and not np.any(zero[3])
    # 0.6 and 0.7 straddle NEAR_BIAS, where the divided difference of psi
    # switches from its series to the plain difference
    for v in (1e-6, 0.1, 0.6, 0.7):
        rows = transport._pole_rows(xs, params[v], params[v].force)
        want = _oracle(xs, params[v])
        scale = np.max(np.abs(want), axis=1)
        for i in (0, 2, 4, 5):
            assert np.max(np.abs(rows[i] - want[i])) <= 1e-12 * scale[i], (v, i)
        # the oracle's f_L - f_R carries about 1e-16 / V relative round-off
        assert np.max(np.abs(rows[1] - want[1])) <= 1e-9 * scale[1], v
        # the partition noise is O(V^2), held against the thermal noise
        assert np.max(np.abs(rows[3] - want[3])) <= 1e-12 * scale[2], v
    # continuous through zero: linear current, quadratic partition noise
    small = transport._pole_rows(xs, params[1e-6], params[1e-6].force)
    assert np.max(np.abs(small[[0, 2, 4, 5]] - zero[[0, 2, 4, 5]])) <= 1e-6
    p_tiny = _quiet(default_params, 1e-3)
    tiny = transport._pole_rows(xs, p_tiny, p_tiny.force)
    np.testing.assert_allclose(small[1] / 1e-6, tiny[1] / 1e-3, rtol=1e-6)
    assert np.all(small[3] >= 0.0) and np.all(small[3] <= 1e-10 * small[2])


def test_pole_sums_refuse_nearly_coincident_poles():
    # equal bands with W = 2 (Gamma_L + Gamma_R) have a double pole at
    # E = c - iW/2 when the shifted level sits on the band centre, x = 0
    lead = dict(band_center=0.0, bandwidth=12.0, peak_rate=3.0)
    params = SystemParams(
        left=LeadSpec(chemical_potential=5.0, **lead),
        right=LeadSpec(chemical_potential=-5.0, **lead),
        inverse_temperature=0.1, coupling=0.5,
    )
    with pytest.raises(RuntimeError, match=r"x=array\(\[0\.001, 0\.\s*\]\)"):
        build_coefficient_table(params, [-0.3, 0.001, 0.3])
    # poles 0.057 of their depth apart are still held to the bar
    xs = np.array([-0.3, 0.01, 0.3])
    rows, want = transport._pole_rows(xs, params, params.force), _oracle(xs, params)
    for got, row in zip(rows, want):
        assert np.max(np.abs(got - row)) <= 1e-9 * np.max(np.abs(row))


def test_polygammas_match_scipy():
    from scipy import special

    x = np.linspace(0.5, 40.0, 400)
    psi = transport._polygammas(x, 6)
    assert not np.any(psi.imag)
    # psi crosses zero near 1.46, so it is held absolutely there
    np.testing.assert_allclose(psi[0].real, special.psi(x), rtol=1e-14, atol=1e-15)
    for n in range(1, 7):
        np.testing.assert_allclose(psi[n].real, special.polygamma(n, x), rtol=4e-15)
    rng = np.random.default_rng(3)
    z = rng.uniform(0.5, 12.0, 300) + 1j * rng.uniform(-60.0, 60.0, 300)
    np.testing.assert_allclose(transport._polygammas(z, 0)[0], special.psi(z), rtol=4e-15)


def test_complex_polygammas_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    z = rng.uniform(0.5, 12.0, 60) + 1j * rng.uniform(-60.0, 60.0, 60)
    psi = transport._polygammas(z, 6)
    for n in range(1, 7):
        want = np.array([complex(mpmath.polygamma(n, complex(v))) for v in z])
        np.testing.assert_allclose(psi[n], want, rtol=4e-15)


def test_pole_sums_do_not_depend_on_the_batch(p100):
    # a position's rows have the same bits alone or anywhere in a batch
    rng = np.random.default_rng(11)
    xs = rng.uniform(-60.0, 60.0, 37)
    rows = transport._pole_rows(xs, p100, p100.force)
    for i in range(xs.size):
        assert np.array_equal(transport._pole_rows(xs[i:i + 1], p100, p100.force)[:, 0], rows[:, i])
    part = rng.permutation(xs.size)[:12]
    assert np.array_equal(transport._pole_rows(xs[part], p100, p100.force), rows[:, part])


@pytest.mark.parametrize("shifted", [False, True])
def test_panel_rules_do_not_depend_on_the_batch(p100, shifted):
    # the NumPy panel rule at omega = 0 (the pole sums' oracle) and at
    # omega = 1 (the spectrum's): a panel's (kron, err) has the same bits alone
    # or anywhere in a batch
    rng = np.random.default_rng(11)
    lo, hi, _ = _window(p100, pad=1.0)
    edges = np.sort(rng.uniform(lo, hi, 42))
    lo, hi = edges[:-1], edges[1:]
    xs = rng.uniform(-30.0, 30.0, 11)
    omega = 1.0 if shifted else 0.0
    rule = kronrod(lambda energy: _integrand_rows(energy, xs, p100, p100.force, omega))
    kron, err = rule(lo, hi)
    for i in range(lo.size):
        one_kron, one_err = rule(lo[i:i + 1], hi[i:i + 1])
        assert np.array_equal(one_kron[:, 0], kron[:, i])
        assert np.array_equal(one_err[:, 0], err[:, i])
    part = rng.permutation(lo.size)[: lo.size // 3]
    part_kron, part_err = rule(lo[part], hi[part])
    assert np.array_equal(part_kron, kron[:, part])
    assert np.array_equal(part_err, err[:, part])


def test_force_free_rules_have_zero_friction_and_spectrum_rows(p100):
    # the baseline: both rows carry F^2 / 2 pi, so they vanish exactly, in
    # the pole sums and in the NumPy panel rule
    xs = np.array([-3.0, 0.0, 2.5])
    assert not np.any(transport._pole_rows(xs, p100, 0.0)[4:])
    lo, hi, _ = _window(p100)
    edges = np.linspace(lo, hi, 9)
    rule = kronrod(lambda energy: _integrand_rows(energy, xs, p100, 0.0))
    for part in rule(edges[:-1], edges[1:]):
        assert not np.any(part.reshape(6, xs.size, -1)[4:])


@pytest.mark.parametrize("omega", [0.01, -1.0, 2.0])
def test_spectrum_row_alone_depends_on_omega(p100, omega):
    lo, hi, _ = _window(p100, pad=abs(omega))
    edges = np.linspace(lo, hi, 9)
    xs = np.array([-3.0, 0.0, 2.5])

    def rule(w):
        rows = lambda energy: _integrand_rows(energy, xs, p100, p100.force, w)
        return kronrod(rows)(edges[:-1], edges[1:])

    five = slice(0, 5 * xs.size)
    for zero, other in zip(rule(0.0), rule(omega)):
        assert np.array_equal(zero[five], other[five])
        assert not np.array_equal(zero[five.stop:], other[five.stop:])


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


@pytest.mark.parametrize("voltage", [5.0, 50.0, 100.0, 150.0, 200.0, 300.0])
def test_tables_match_the_quadrature_oracle(voltage):
    # every stored column within 1e-9 of its largest value, on the probe and
    # the main grid, at both edges and at seven nodes between them.  Far out
    # on the probe grid the level is a narrow resonance near E = V/2, where
    # the friction row's |Kronrod - Gauss| sums stall at about 1e-10 of the
    # value (at V = 300, x = -296.25, while its estimate at rtol 1e-9 meets
    # the pole sum within 4e-14), so there the oracle is asked for 1e-9 of
    # the value or 1e-10 of the column the row enters.
    params = default_params(voltage)
    baseline = _oracle([0.0], params, force=0.0)[0, 0]
    for table in _tables(voltage):
        picks = np.linspace(0, table.grid.size - 1, 9).round().astype(int)
        largest = np.max(np.abs(table.values), axis=1)
        scale = np.array([1.0, *largest[[1, 2, 2, 3]], largest[4]])
        scale[4] *= params.oscillator_mass
        occ, cur, thermal, partition, slope, spec = np.concatenate([
            _oracle([x], params, scale=scale, rtol=1e-9, atol=1e-10)
            for x in table.grid[picks]
        ], axis=1)
        want = [occ - baseline, cur, thermal + partition,
                slope / params.oscillator_mass, np.maximum(spec, 0.0)]
        for name, row, top in zip(COLUMNS, want, largest):
            assert np.max(np.abs(table.column(name)[picks] - row)) <= 1e-9 * top, name


# the tables and the onset scan's friction do not depend on the compiled
# kernel: they are the same bits with it unavailable.  The pole sums are
# NumPy alone, but at V = 50 and 100 the probe table's cycle search
# (limit_cycle_amplitude) evaluates its splines through the kernel, or
# through the NumPy evaluation when it is off


@pytest.mark.parametrize("voltage", [5.0, 50.0, 100.0])
def test_tables_equal_with_the_kernel_off(monkeypatch, voltage):
    fast = _tables(voltage)
    assert len(fast) == (1 if voltage == 5.0 else 2)
    monkeypatch.setattr(langevin, "_kernel", lambda: None)
    reference = _tables(voltage)
    for one, two in zip(fast, reference):
        assert np.array_equal(one.grid, two.grid)
        for name in transport.COLUMNS:
            assert np.array_equal(one.column(name), two.column(name)), name


def test_onset_scan_friction_equal_with_the_kernel_off(monkeypatch):
    # scripts/onset_scan.py's voltages: single-position pole sums
    voltages = np.linspace(10.0, 60.0, 26)
    fast = [friction_and_diffusion(0.0, default_params(float(v))) for v in voltages]
    monkeypatch.setattr(langevin, "_kernel", lambda: None)
    reference = [friction_and_diffusion(0.0, default_params(float(v))) for v in voltages]
    assert fast == reference


# ----------------------------------------------------------- reachability --


def _transport_functions():
    """The code object of every def and lambda in transport.py, at any
    depth; class bodies and comprehensions run at import or with the
    function around them, so they are left out."""
    path = transport.__file__
    found, todo = [], [compile(Path(path).read_text(), path, "exec")]
    while todo:
        for const in todo.pop().co_consts:
            if inspect.iscode(const):
                todo.append(const)
                if const.co_flags & inspect.CO_OPTIMIZED and (
                    not const.co_name.startswith("<") or const.co_name == "<lambda>"
                ):
                    found.append(const)
    return path, found


def test_every_transport_function_runs_on_the_cli_path(tmp_path):
    # a tiny `run` and then `analyze`, in-process under a profiler: every
    # function transport.py defines must be entered, so code only the
    # tests' oracle needs cannot sit in the production module
    path, functions = _transport_functions()
    assert len(functions) >= 10
    config = {
        "version": 1,
        "system": {"voltage": 5.0},
        "simulation": {"burn_in": 2.0 * math.pi, "duration": 40.0 * math.pi,
                       "seed": 3, "ensemble_size": 2, "record_stride": 2},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    base = ["--config", str(cfg_path), "--out", str(tmp_path / "out")]
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == path:
            entered.add((frame.f_code.co_name, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        codes = [cli.main(["run", *base]), cli.main(["analyze", *base])]
    finally:
        sys.setprofile(None)
    assert codes == [0, 0]
    missed = sorted(
        f"{code.co_name} (line {code.co_firstlineno})" for code in functions
        if (code.co_name, code.co_firstlineno) not in entered
    )
    assert not missed, f"never entered by run and analyze: {missed}"
