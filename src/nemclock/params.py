"""Device parameter records and reduced-unit conventions.

Energies are measured in units of the oscillator quantum (hbar = k_B = e = 1,
omega_0 = 1, m = 1 unless stated otherwise), so every rate and time below is
dimensionless in those units.
"""
from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import asdict, dataclass

__all__ = [
    "AdiabaticityWarning",
    "LeadSpec",
    "SystemParams",
    "default_params",
    "fingerprint",
]

# Scale separation demanded of the fast electronic variables relative to the
# mechanical ones before the adiabatic elimination becomes questionable.
ADIABATIC_MARGIN = 3.0


class AdiabaticityWarning(UserWarning):
    """Electronic relaxation is not comfortably faster than the oscillator."""


@dataclass(frozen=True)
class LeadSpec:
    """One metallic lead: a single Lorentzian band of states.

    Parameters
    ----------
    band_center:
        Energy at which the lead's spectral density peaks.
    bandwidth:
        Half-width of the Lorentzian band (> 0).
    peak_rate:
        Tunnelling rate at the band center (> 0).
    chemical_potential:
        Electrochemical potential of the lead.
    """

    band_center: float
    bandwidth: float
    peak_rate: float
    chemical_potential: float

    def __post_init__(self) -> None:
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth}")
        if not self.peak_rate > 0:
            raise ValueError(f"peak_rate must be > 0, got {self.peak_rate}")


@dataclass(frozen=True)
class SystemParams:
    """All physical constants of the dot + oscillator + leads device.

    ``coupling`` is the electromechanical coupling strength lambda; the force
    per unit charge on the oscillator is ``force = coupling * sqrt(m * w0)``.
    """

    left: LeadSpec
    right: LeadSpec
    inverse_temperature: float
    coupling: float
    dot_energy: float = 0.0
    oscillator_mass: float = 1.0
    oscillator_frequency: float = 1.0

    def __post_init__(self) -> None:
        if not self.inverse_temperature > 0:
            raise ValueError("inverse_temperature must be > 0")
        if not self.oscillator_mass > 0:
            raise ValueError("oscillator_mass must be > 0")
        if not self.oscillator_frequency > 0:
            raise ValueError("oscillator_frequency must be > 0")
        margins = self.adiabaticity_margins()
        weakest = min(margins, key=margins.get)
        if margins[weakest] < ADIABATIC_MARGIN:
            warnings.warn(
                "quasi-adiabatic separation is weak: "
                f"{weakest} margin {margins[weakest]:.3g} < {ADIABATIC_MARGIN}",
                AdiabaticityWarning,
                stacklevel=2,
            )

    @property
    def force(self) -> float:
        return self.coupling * math.sqrt(
            self.oscillator_mass * self.oscillator_frequency
        )

    @property
    def voltage(self) -> float:
        return self.left.chemical_potential - self.right.chemical_potential

    def adiabaticity_margins(self) -> dict[str, float]:
        """Ratios of fast electronic scales to slow mechanical ones.

        The elimination of the electrons requires min(1/beta, V) and the
        tunnelling rate to dominate both the oscillator frequency and the
        coupling; each entry is (fast scale)/(slow scale).
        """
        slow = max(self.oscillator_frequency, abs(self.coupling))
        rate = min(self.left.peak_rate, self.right.peak_rate)
        fast_thermal = min(1.0 / self.inverse_temperature, abs(self.voltage))
        return {
            "bath (min(1/beta, V))": fast_thermal / slow,
            "tunnelling rate": rate / slow,
        }


def default_params(voltage: float = 100.0) -> SystemParams:
    """Reference operating point: symmetric two-band device.

    Bands of half-width 5 centred at +-2.5 with peak tunnelling rate 10,
    temperature 10, coupling 0.5, symmetric bias split, dot level at zero.
    """
    return SystemParams(
        left=LeadSpec(
            band_center=2.5,
            bandwidth=5.0,
            peak_rate=10.0,
            chemical_potential=+0.5 * voltage,
        ),
        right=LeadSpec(
            band_center=-2.5,
            bandwidth=5.0,
            peak_rate=10.0,
            chemical_potential=-0.5 * voltage,
        ),
        inverse_temperature=0.1,
        coupling=0.5,
    )


def _canonical(obj):
    if isinstance(obj, float):
        # repr round-trips doubles exactly; canonical for hashing
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def fingerprint(params: SystemParams, extra: dict | None = None) -> str:
    """Stable hex digest of the physical parameters plus numerical settings."""
    payload = {"params": _canonical(asdict(params))}
    if extra:
        payload["extra"] = _canonical(extra)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
