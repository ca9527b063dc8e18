"""Steady-state electron transport conditioned on the oscillator position.

Everything here treats the oscillator coordinate x as a frozen parameter: the
dot level is shifted to ``dot_energy - force * x`` and the resulting
single-level scattering problem is evaluated exactly.  The outputs — excess
occupation, current, shot noise, friction and diffusion — feed the Langevin
integrator through :class:`CoefficientTable`.

Sign conventions: the charge-noise spectrum S_x(omega) obeys detailed balance
S_x(-w) = exp(-betaw) S_x(w) at zero bias, which makes the zero-frequency
slope (the friction) positive in equilibrium.

The friction needs only that slope.  With S_x(w) = F^2/2pi int sigma<(E)
g2(E+w) w_more(E+w) dE, where g2 = 1/|D|^2 is the resonant factor and
w_more the lead emptiness weight, it is exact under the integral:

    dS_x/dw (0) = F^2/2pi int sigma<(E) d/dE[g2(E) w_more(E)] dE,

and every factor has a closed-form derivative (Lorentzian rates, Fermi
functions, the Lorentzian self-energies inside D), so the slope is one more
row of the same quadrature pass that yields occupation, current, shot noise
and S_x(0).

A quadrature pass hands :func:`~nemclock.quadrature.integrate` a panel rule
(see :func:`_panel_rule`): for a batch of panels, each row's Kronrod
estimate and |Kronrod - Gauss|.  Its compiled form, ``nemclock_panels`` of
the kernel that :mod:`~nemclock.langevin` loads, forms D = base + F x and
|D|^2 = re^2 + im^2, evaluates the six rows and sums their node values in
node order, bit for bit equal to ``kronrod`` over the NumPy rows of
:func:`_integrand_rows`, which are its oracle and its fallback.  NumPy keeps
the energy-only factors (:func:`_energy_factors`): the Fermi functions
(``tanh``) and the complex divisions of the self-energies are NumPy's own
SIMD code, which C does not reproduce portably.  The shifted-energy rows of
a nonzero omega have no compiled form.  No step of either rule mixes one
panel's values with another's, so a table's bits depend neither on how many
panels share a sweep nor on a BLAS build.
"""
from __future__ import annotations

import functools
import hashlib
import json
import types
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import langevin
from .params import AdiabaticityWarning, LeadSpec, SystemParams, fingerprint
from .quadrature import QuadratureError, integrate, kronrod, panel_nodes

__all__ = [
    "COLUMNS",
    "GridSpec",
    "CoefficientTable",
    "fermi_dirac",
    "spectral_density",
    "lead_self_energy",
    "transmission",
    "charge_noise_spectrum",
    "friction_and_diffusion",
    "build_coefficient_table",
]

RTOL = 1e-8          # relative quadrature tolerance
ATOL = 1e-14         # absolute floor so identically-zero integrands converge
CHUNK = 64           # most grid positions per quadrature pass of a table build


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


def spectral_density(energy, lead: LeadSpec):
    """Lorentzian tunnelling rate of one lead band."""
    return _lead_factors(energy, lead)[0]


def lead_self_energy(energy, lead: LeadSpec):
    """Retarded self-energy of a Lorentzian band, in closed form.

    Its imaginary part equals -spectral_density/2 identically, which is the
    regression handle for the principal-value (real) part.
    """
    return _lead_factors(energy, lead)[2]


def _resonance_denominator(energy, params: SystemParams):
    """E - eps - chi_L - chi_R, before the position shift is added."""
    return (
        np.asarray(energy, dtype=complex)
        - params.dot_energy
        - lead_self_energy(energy, params.left)
        - lead_self_energy(energy, params.right)
    )


def transmission(energy, position, params: SystemParams):
    """Landauer transmission of the shifted resonant level, in [0, 1]."""
    kl = spectral_density(energy, params.left)
    kr = spectral_density(energy, params.right)
    den = np.abs(_resonance_denominator(energy, params) + params.force * position) ** 2
    tau = kl * kr / den
    over = np.max(tau) if np.ndim(tau) else tau
    if over > 1.0 + 1e-12:
        warnings.warn(
            f"transmission exceeded unity by {over - 1.0:.3e}; clipping",
            RuntimeWarning,
            stacklevel=2,
        )
    return np.clip(tau, 0.0, 1.0)


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


def _energy_factors(energy, params: SystemParams, leads):
    """The energy-only factors of the transport integrand at the flat
    ``energy`` array, packed as the compiled panel rule reads them;
    ``leads`` is ``_both_leads(params)``.

    Returns ``real``, shape (6, n): the leads' rates kl, kr, their slopes
    dkl, dkr and their Fermi functions fl, fr; and ``cplx``, shape (3, n):
    base = E - eps - chi_L - chi_R, and the self-energy slopes dchi_L and
    dchi_R.
    """
    real = np.empty((3, 2, energy.size))
    cplx = np.empty((3, energy.size), dtype=complex)
    real[0], real[1], chi, cplx[1:] = _lead_factors(energy, leads)
    real[2] = fermi_dirac(energy, leads.chemical_potential, params.inverse_temperature)
    cplx[0] = np.asarray(energy, dtype=complex) - params.dot_energy - chi[0] - chi[1]
    return real.reshape(6, energy.size), cplx


def _inverse_square(base, fx):
    """The parts of D = base + force x as NumPy's complex add forms them,
    and g2 = 1/|D|^2 with |D|^2 = re^2 + im^2, for every (x, E) pair."""
    re, im = base.real + fx[:, None], base.imag + 0.0
    return re, im, 1.0 / (re * re + im * im)


def _integrand_rows(energy, xs, omegas, params: SystemParams, force):
    """The transport integrand at the flat ``energy`` array for the positions
    ``xs``: 5 + len(omegas) rows of len(xs) each, stacked into one
    (rows * len(xs), len(energy)) array.

    The rows are occupation, current, the thermal and partition shot noise,
    the friction slope dS_x/domega at omega = 0, and S_x at each omega.
    Under :func:`~nemclock.quadrature.kronrod` these rows are the oracle of
    the compiled panel rule (see :func:`_panel_rule`) and its fallback.
    """
    beta = params.inverse_temperature
    c4 = force**2 / (2.0 * np.pi)
    fx = force * xs
    leads = _both_leads(params)
    (kl, kr, dkl, dkr, fl, fr), (base, dchi_l, dchi_r) = _energy_factors(energy, params, leads)
    el, er = 1.0 - fl, 1.0 - fr
    w_less = kl * fl + kr * fr
    w_more = kl * el + kr * er
    fwin = fl - fr
    # d/dE of g2 * w_more: df/dE = -beta f (1 - f), d|D|^-2/dE =
    # -2 Re(conj(D) D') |D|^-4 with D' = 1 - chi_L' - chi_R'
    dw_more = dkl * el + dkr * er + beta * (kl * fl * el + kr * fr * er)
    dden = 1.0 - dchi_l - dchi_r
    den_re, den_im, g2 = _inverse_square(base, fx)
    tau = (kl * kr) * g2
    sigma_less = g2 * w_less
    dg2 = -2.0 * (den_re * dden.real + den_im * dden.imag) * g2**2
    rows = [
        g2 * (w_less / (2.0 * np.pi)),
        tau * (fwin / np.pi),
        tau * ((fl * el + fr * er) * (2.0 / np.pi)),
        tau * (1.0 - tau) * (fwin**2 * (2.0 / np.pi)),
        sigma_less * (dg2 * w_more + g2 * dw_more) * c4,
    ]
    for w in omegas:
        if w == 0.0:
            # energy + 0 == energy, so the row reuses g2 and w_more
            rows.append(sigma_less * (g2 * w_more) * c4)
            continue
        (ks, kt, _, _, fs, ft), (base_s, _, _) = _energy_factors(energy + w, params, leads)
        more_s = ks * (1.0 - fs) + kt * (1.0 - ft)
        rows.append(sigma_less * (_inverse_square(base_s, fx)[2] * more_s) * c4)
    return np.concatenate(rows, axis=0)


def _panel_rule(xs, omegas, params: SystemParams, force, kernel):
    """The quadrature's panel rule for the integrand rows at the positions
    ``xs``: ``kronrod`` of :func:`_integrand_rows`, or with ``kernel`` the
    same sums, bit for bit, in one ``nemclock_panels`` call per sweep.

    The compiled rule serves only the omega = 0 rows (at most one omega, and
    it 0); NumPy computes the energy-only factors it reads.
    """
    if kernel is None:
        return kronrod(lambda energy: _integrand_rows(energy, xs, omegas, params, force))
    n_rows = (5 + omegas.size) * xs.size
    fx = force * xs
    beta, c4 = params.inverse_temperature, force**2 / (2.0 * np.pi)
    leads = _both_leads(params)

    def rule(lo, hi):
        energy, half = panel_nodes(lo, hi)
        real, cplx = _energy_factors(energy, params, leads)
        out = np.empty((2, 6 * xs.size, lo.size))
        kernel.nemclock_panels(
            xs.size, lo.size, fx.ctypes.data, real.ctypes.data, cplx.ctypes.data,
            half.ctypes.data, beta, c4, out.ctypes.data,
        )
        return out[0, :n_rows], out[1, :n_rows]

    return rule


def _family_batch(positions, omegas, params: SystemParams, force=None):
    """All transport integrals for a batch of positions in one adaptive pass.

    Returns (occupation, current, shot_thermal, shot_partition, slope,
    spectrum): ``slope`` is dS_x/domega at omega = 0 and spectrum has shape
    (len(omegas), len(positions)).  Components share one panel subdivision,
    so the integrator refines for the worst of them.  ``force`` overrides
    ``params.force``.
    """
    xs = np.asarray(positions, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    n_x, n_w = xs.size, omegas.size
    force = params.force if force is None else force
    # the shifted-energy rows of omega != 0 have no compiled form
    kernel = langevin._kernel() if n_w <= 1 and not np.any(omegas) else None
    pad = float(np.max(np.abs(omegas))) if n_w else 0.0
    lo, hi, seeds = _window(params, pad=pad)
    try:
        result = integrate(
            _panel_rule(xs, omegas, params, force, kernel),
            lo, hi, rtol=RTOL, atol=ATOL, breakpoints=seeds,
        )
    except QuadratureError as exc:
        raise QuadratureError(
            f"transport quadrature failed for positions {xs!r}: {exc} "
            f"(achieved {exc.achieved:.3e}, requested {exc.requested:.3e})",
            achieved=exc.achieved,
            requested=exc.requested,
        ) from None
    vals = result.value.reshape(5 + n_w, n_x)
    return vals[0], vals[1], vals[2], vals[3], vals[4], vals[5:]


@functools.lru_cache(maxsize=128)
def _baseline_occupation(params: SystemParams) -> float:
    """Dot occupation with the electromechanical force removed."""
    occ, *_ = _family_batch([0.0], [], params, force=0.0)
    return float(occ[0])


def charge_noise_spectrum(position, omega, params: SystemParams):
    """Force-noise spectrum S_x(omega) of the occupation fluctuations.

    Valid as a slow-variable input only for |omega| well below the
    tunnelling rate; a warning marks evaluations outside that regime.
    """
    rate = min(params.left.peak_rate, params.right.peak_rate)
    if abs(omega) > rate / 3.0:
        warnings.warn(
            f"spectrum requested at |omega|={abs(omega):.3g}, comparable to "
            f"the tunnelling rate {rate:.3g}; slow-variable treatment is "
            "unreliable there",
            AdiabaticityWarning,
            stacklevel=2,
        )
    *_, spec = _family_batch([position], [omega], params)
    return float(spec[0, 0])


def friction_and_diffusion(position, params: SystemParams):
    """(gamma_x, D_x): zero-frequency slope and value of S_x.

    The friction is gamma_x = m^-1 dS_x/domega at omega = 0, integrated
    exactly as F^2/2pi int sigma<(E) d/dE[g2(E) w_more(E)] dE in the same
    quadrature pass as S_x(0); the diffusion is S_x(0), floored at zero
    against quadrature round-off.
    """
    _, _, _, _, slope, spec = _family_batch([position], [0.0], params)
    gamma = slope[0] / params.oscillator_mass
    if not np.isfinite(gamma):
        raise RuntimeError(f"non-finite friction estimate at x={position!r}")
    return float(gamma), float(np.maximum(spec[0, 0], 0.0))


@dataclass(frozen=True)
class GridSpec:
    """Uniform symmetric position grid: ``nodes`` points on [-x_max, x_max]."""

    x_max: float
    nodes: int = 801

    def __post_init__(self):
        if not self.x_max > 0:
            raise ValueError("x_max must be > 0")
        if self.nodes < 4:
            raise ValueError("need at least 4 grid nodes")

    def positions(self) -> np.ndarray:
        return np.linspace(-self.x_max, self.x_max, self.nodes)


# the tabulated coefficients, in archive order
COLUMNS = ("excess_occupation", "current", "shot_noise", "friction", "diffusion")


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Transport coefficients tabulated on a strictly increasing grid.

    ``columns`` maps every name in :data:`COLUMNS` to one array of values at
    the grid nodes.
    """

    grid: np.ndarray
    columns: dict
    params_hash: str

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be a strictly increasing 1-D array")
        if sorted(self.columns) != sorted(COLUMNS):
            raise ValueError(f"columns must be exactly {COLUMNS}")
        cols = {name: np.asarray(self.columns[name], dtype=float) for name in COLUMNS}
        if any(col.shape != grid.shape for col in cols.values()):
            raise ValueError("every column must match the grid length")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "columns", cols)

    def column(self, name: str) -> np.ndarray:
        """One coefficient across the grid, as an array."""
        return self.columns[name]

    def save(self, path) -> None:
        checksum = _table_checksum(self.grid, self.columns)
        header = json.dumps(
            {"params_hash": self.params_hash, "checksum": checksum}
        )
        with open(path, "wb") as fh:
            np.savez(fh, header=np.frombuffer(header.encode(), dtype=np.uint8),
                     grid=self.grid, **self.columns)

    @classmethod
    def load(cls, path, *, expected_hash: str | None = None) -> "CoefficientTable":
        try:
            with np.load(path) as data:
                header = json.loads(bytes(data["header"]).decode())
                grid = data["grid"]
                cols = {name: data[name] for name in COLUMNS}
        except FileNotFoundError:
            raise
        except Exception as exc:
            # any unreadable archive counts as corruption, so cache users can
            # rebuild instead of crashing
            raise ValueError(
                f"coefficient cache {path} is corrupt ({exc})"
            ) from exc
        if _table_checksum(grid, cols) != header["checksum"]:
            raise ValueError(f"coefficient cache {path} is corrupt (checksum)")
        if expected_hash is not None and header["params_hash"] != expected_hash:
            raise ValueError(
                f"coefficient cache {path} was built for different parameters"
            )
        return cls(grid=grid, columns=cols, params_hash=header["params_hash"])


def _table_checksum(grid, cols: dict) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(grid).tobytes())
    for name in sorted(cols):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(cols[name]).tobytes())
    return digest.hexdigest()


def table_fingerprint(params: SystemParams, grid: np.ndarray) -> str:
    grid = np.ascontiguousarray(grid, dtype=float)
    return fingerprint(
        params,
        extra={"rtol": RTOL, "grid_sha": hashlib.sha256(grid.tobytes()).hexdigest()},
    )


def _spans(grid: np.ndarray, params: SystemParams) -> list:
    """Contiguous (lo, hi) index spans that tile ``grid``, one quadrature pass
    each.

    All positions of a span share one panel set, which has to resolve every
    shifted resonance at -F x, so a span holds at most :data:`CHUNK`
    positions whose level shifts lie within the narrowest lead bandwidth:
    |F| (x_last - x_first) <= min(W_L, W_R).
    """
    width = min(params.left.bandwidth, params.right.bandwidth)
    reach = width / abs(params.force) if params.force else np.inf
    spans, lo = [], 0
    while lo < grid.size:
        fits = int(np.searchsorted(grid, grid[lo] + reach, side="right"))
        spans.append((lo, min(lo + CHUNK, fits)))
        lo = spans[-1][1]
    return spans


def build_coefficient_table(
    params: SystemParams,
    grid_spec,
    *,
    threads: int = 1,
) -> CoefficientTable:
    """Tabulate every transport coefficient over a position grid.

    ``grid_spec`` is a :class:`GridSpec` or an explicit strictly increasing
    array of positions.  Work is split into contiguous spans sized by the
    level shift they cover (see :func:`_spans`), computed one after another
    on the calling thread.  ``threads`` has no effect: each span is an
    adaptive quadrature whose panel sums run in the compiled kernel,
    which ctypes calls without the GIL, but whose other steps are many small
    numpy operations that hold it, so a pool only adds contention.
    """
    if isinstance(grid_spec, GridSpec):
        grid = grid_spec.positions()
    else:
        grid = np.asarray(grid_spec, dtype=float)
    if grid.ndim != 1 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be a strictly increasing 1-D array")

    cols = {name: np.empty_like(grid) for name in COLUMNS}
    baseline = _baseline_occupation(params)

    for lo, hi in _spans(grid, params):
        o, c, th, pa, slope, spec = _family_batch(grid[lo:hi], [0.0], params)
        cols["excess_occupation"][lo:hi] = o - baseline
        cols["current"][lo:hi] = c
        cols["shot_noise"][lo:hi] = th + pa
        cols["friction"][lo:hi] = slope / params.oscillator_mass
        cols["diffusion"][lo:hi] = np.maximum(spec[0], 0.0)

    stacked = np.stack([cols[name] for name in COLUMNS])
    if not np.all(np.isfinite(stacked)):
        bad = grid[~np.all(np.isfinite(stacked), axis=0)]
        raise RuntimeError(f"non-finite table column at x={bad!r}")
    return CoefficientTable(
        grid=grid, columns=cols, params_hash=table_fingerprint(params, grid)
    )
