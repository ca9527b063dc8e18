"""The quadrature oracle of the transport pole sums: the energy integrands
of the six transport rows, the lead factors they are built from, the Fermi
function and the integration window.

:mod:`nemclock.transport` evaluates the six energy integrals in closed form,
as sums over the poles of N(E) (see its docstring).  The tests hold those
sums to these integrands, integrated by :mod:`nemclock.quadrature`: at
omega = 0 as the oracle of ``transport._pole_rows``, and at omega != 0 as
the spectrum S_x(omega) whose slope the friction row must match.  No
package code path calls anything here.
"""
from __future__ import annotations

import types
from dataclasses import fields

import numpy as np

from nemclock.params import LeadSpec, SystemParams


def fermi_dirac(energy, chemical_potential, inverse_temperature):
    """Occupancy 1/(e^{beta(E-mu)}+1), safe against exp overflow."""
    if inverse_temperature <= 0:
        raise ValueError("inverse_temperature must be > 0")
    arg = 0.5 * inverse_temperature * (np.asarray(energy) - chemical_potential)
    return 0.5 * (1.0 - np.tanh(arg))


def _lead_factors(energy, lead: LeadSpec):
    """A lead's rate k, its slope dk/dE, its self-energy chi and the slope
    dchi/dE at ``energy``, all from one detuning E - c.

    k = Gamma W^2 / ((E - c)^2 + W^2) is a Lorentzian, so dk/dE =
    -2 (E - c) k / ((E - c)^2 + W^2); chi = (Gamma W / 2) / (E - c + iW) and
    dchi/dE = -(Gamma W / 2) / (E - c + iW)^2.
    """
    detune = np.asarray(energy) - lead.band_center
    bw2 = lead.bandwidth**2
    lorentz = detune**2 + bw2
    rate = lead.peak_rate * bw2 / lorentz
    pole = detune + 1j * lead.bandwidth
    half_width_rate = 0.5 * lead.peak_rate * lead.bandwidth
    return (
        rate,
        -2.0 * detune * rate / lorentz,
        half_width_rate / pole,
        -half_width_rate / pole**2,
    )


def _window(params: SystemParams, pad: float = 0.0):
    """Integration window and panel seeds covering bands and bias edges."""
    anchors = [
        params.left.band_center,
        params.right.band_center,
        params.left.chemical_potential,
        params.right.chemical_potential,
        params.dot_energy,
    ]
    reach = 10.0 * max(
        params.left.bandwidth,
        params.right.bandwidth,
        1.0 / params.inverse_temperature,
    )
    lo = min(anchors) - reach - pad
    hi = max(anchors) + reach + pad
    seeds = anchors + [
        params.left.band_center - params.left.bandwidth,
        params.left.band_center + params.left.bandwidth,
        params.right.band_center - params.right.bandwidth,
        params.right.band_center + params.right.bandwidth,
    ]
    return lo, hi, seeds


def _both_leads(params: SystemParams):
    """The two leads of ``params`` as one lead whose every field is a (2, 1)
    column, left then right, so that :func:`_lead_factors` and
    :func:`fermi_dirac` make one NumPy pass over both."""
    return types.SimpleNamespace(**{
        field.name: np.array([[getattr(params.left, field.name)],
                              [getattr(params.right, field.name)]])
        for field in fields(LeadSpec)
    })


def _integrand_rows(energy, xs, params: SystemParams, force, omega=0.0):
    """The transport integrand at the flat ``energy`` array for the positions
    ``xs``: six rows of len(xs) each, stacked into one
    (6 * len(xs), len(energy)) array.

    The rows are occupation, current, the thermal and partition shot noise,
    the friction slope dS_x/domega at omega = 0, and S_x(omega).  The tests
    integrate them under :func:`~nemclock.quadrature.kronrod`: at omega = 0
    as the oracle of ``transport._pole_rows``, and at omega != 0 as the
    spectrum whose slope the friction row must match.
    """
    beta = params.inverse_temperature
    c4 = force**2 / (2.0 * np.pi)
    fx = force * xs
    leads = _both_leads(params)

    def factors(e):
        # the leads' rates, rate slopes, Fermi functions and self-energy
        # slopes; the parts of D = E - eps - chi_L - chi_R + F x and
        # g2 = 1/|D|^2 for every (x, E) pair
        rate, slope, chi, dchi = _lead_factors(e, leads)
        fermi = fermi_dirac(e, leads.chemical_potential, beta)
        base = np.asarray(e, dtype=complex) - params.dot_energy - chi[0] - chi[1]
        re, im = base.real + fx[:, None], base.imag + 0.0
        return (*rate, *slope, *fermi, *dchi), (re, im, 1.0 / (re * re + im * im))

    (kl, kr, dkl, dkr, fl, fr, dchi_l, dchi_r), (den_re, den_im, g2) = factors(energy)
    el, er = 1.0 - fl, 1.0 - fr
    w_less = kl * fl + kr * fr
    w_more = kl * el + kr * er
    fwin = fl - fr
    # d/dE of g2 * w_more: df/dE = -beta f (1 - f), d|D|^-2/dE =
    # -2 Re(conj(D) D') |D|^-4 with D' = 1 - chi_L' - chi_R'
    dw_more = dkl * el + dkr * er + beta * (kl * fl * el + kr * fr * er)
    dden = 1.0 - dchi_l - dchi_r
    tau = (kl * kr) * g2
    sigma_less = g2 * w_less
    dg2 = -2.0 * (den_re * dden.real + den_im * dden.imag) * g2**2
    if omega == 0.0:
        # energy + 0 == energy, so S_x(0) reuses g2 and w_more
        g2_w, more_w = g2, w_more
    else:
        (ks, kt, _, _, fs, ft, _, _), (_, _, g2_w) = factors(energy + omega)
        more_w = ks * (1.0 - fs) + kt * (1.0 - ft)
    return np.concatenate([
        g2 * (w_less / (2.0 * np.pi)),
        tau * (fwin / np.pi),
        tau * ((fl * el + fr * er) * (2.0 / np.pi)),
        tau * (1.0 - tau) * (fwin**2 * (2.0 / np.pi)),
        sigma_less * (dg2 * w_more + g2 * dw_more) * c4,
        sigma_less * (g2_w * more_w) * c4,
    ], axis=0)
