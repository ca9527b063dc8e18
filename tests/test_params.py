"""Parameter container: defaults, derived quantities, validation, hashing."""
import dataclasses
import warnings

import pytest

from nemclock.params import (
    AdiabaticityWarning,
    LeadSpec,
    SystemParams,
    default_params,
    fingerprint,
)


def test_default_anchor_values():
    p = default_params(100.0)
    assert p.voltage == pytest.approx(100.0)
    assert p.left.chemical_potential == pytest.approx(50.0)
    assert p.right.chemical_potential == pytest.approx(-50.0)
    assert p.left.band_center == pytest.approx(2.5)
    assert p.right.band_center == pytest.approx(-2.5)
    assert p.left.bandwidth == p.right.bandwidth == pytest.approx(5.0)
    assert p.left.peak_rate == p.right.peak_rate == pytest.approx(10.0)
    assert p.inverse_temperature == pytest.approx(0.1)
    assert p.coupling == pytest.approx(0.5)
    assert p.dot_energy == 0.0
    assert p.oscillator_mass == 1.0
    assert p.oscillator_frequency == 1.0


def test_force_is_coupling_times_zero_point_scales():
    p = default_params(100.0)
    # with m = w0 = 1 the force reduces to the bare coupling
    assert p.force == pytest.approx(p.coupling)
    q = dataclasses.replace(p, oscillator_mass=4.0)
    assert q.force == pytest.approx(p.coupling * 2.0)


def test_voltage_is_potential_difference():
    p = SystemParams(
        left=LeadSpec(band_center=1.0, bandwidth=2.0, peak_rate=3.0,
                      chemical_potential=7.0),
        right=LeadSpec(band_center=-1.0, bandwidth=2.0, peak_rate=3.0,
                       chemical_potential=3.0),
        inverse_temperature=0.1,
        coupling=0.5,
    )
    assert p.voltage == pytest.approx(4.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("inverse_temperature", 0.0),
        ("inverse_temperature", -1.0),
        ("oscillator_mass", 0.0),
        ("oscillator_frequency", -2.0),
    ],
)
def test_system_validation(field, value):
    p = default_params(100.0)
    with pytest.raises(ValueError):
        dataclasses.replace(p, **{field: value})


@pytest.mark.parametrize("field, value", [("bandwidth", 0.0), ("peak_rate", -1.0)])
def test_lead_validation(field, value):
    good = dict(band_center=0.0, bandwidth=5.0, peak_rate=10.0,
                chemical_potential=0.0)
    with pytest.raises(ValueError):
        LeadSpec(**{**good, field: value})


def test_frozen():
    p = default_params(100.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.coupling = 1.0


def test_adiabaticity_warns_only_when_separation_is_weak():
    with pytest.warns(AdiabaticityWarning):
        default_params(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default_params(100.0)
        default_params(5.0)


def test_adiabaticity_margins_contents():
    p = default_params(100.0)
    m = p.adiabaticity_margins()
    # bath scale saturates at 1/beta = 10, tunnelling rate is 10; the slow
    # scale is max(w0, coupling) = 1
    assert set(m.values()) == {10.0}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        weak = default_params(0.1)
    assert min(weak.adiabaticity_margins().values()) == pytest.approx(0.1)


def test_fingerprint_stability_and_sensitivity():
    p = default_params(100.0)
    assert fingerprint(p) == fingerprint(default_params(100.0))
    assert fingerprint(p) != fingerprint(default_params(50.0))
    assert fingerprint(p) != fingerprint(dataclasses.replace(p, coupling=0.6))
    assert fingerprint(p) != fingerprint(p, extra={"rtol": 1e-8})
    assert fingerprint(p, extra={"a": 1}) == fingerprint(p, extra={"a": 1})
    assert fingerprint(p, extra={"a": 1}) != fingerprint(p, extra={"a": 2})
    digest = fingerprint(p)
    assert isinstance(digest, str) and len(digest) >= 32
    int(digest, 16)  # hex digest
