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

The integrand's per-(position, energy) arithmetic runs in ``nemclock_rows``
of the compiled kernel that :mod:`~nemclock.langevin` loads, bit for bit
equal to the NumPy rows of :func:`_integrand_rows`, which are its oracle and
its fallback.  NumPy keeps what C cannot reproduce portably: the Fermi
functions (``tanh``) and the complex divisions of the self-energies, which
are NumPy's own SIMD code, and ``abs`` of the complex denominator, which
NumPy computes differently from ``hypot`` on some CPUs.  The shifted-energy
rows of a nonzero omega have no compiled form.
"""
from __future__ import annotations

import functools
import hashlib
import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import langevin
from .params import AdiabaticityWarning, LeadSpec, SystemParams, fingerprint
from .quadrature import QuadratureError, integrate

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


def _integrand_rows(energy, xs, omegas, params: SystemParams, force, kernel):
    """The transport integrand at the flat ``energy`` array for the positions
    ``xs``: 5 + len(omegas) rows of len(xs) each, stacked into one
    (rows * len(xs), len(energy)) array.

    The rows are occupation, current, the thermal and partition shot noise,
    the friction slope dS_x/domega at omega = 0, and S_x at each omega.  The
    lead factors, the Fermi functions and |D| are NumPy's.  With ``kernel``
    (the compiled ``nemclock_rows``, usable only when every omega is 0 and
    there is at most one) the products and sums built from them run in C;
    otherwise in NumPy, which is the oracle and the fallback.  Both give the
    same bits.
    """
    mu_l = params.left.chemical_potential
    mu_r = params.right.chemical_potential
    beta = params.inverse_temperature
    c4 = force**2 / (2.0 * np.pi)
    fx = force * xs
    kl, dkl, chi_l, dchi_l = _lead_factors(energy, params.left)
    kr, dkr, chi_r, dchi_r = _lead_factors(energy, params.right)
    fl = fermi_dirac(energy, mu_l, beta)
    fr = fermi_dirac(energy, mu_r, beta)
    base = np.asarray(energy, dtype=complex) - params.dot_energy - chi_l - chi_r
    absden = np.abs(base[None, :] + fx[:, None])
    if kernel is not None:
        out = np.empty((6 * xs.size, absden.shape[1]))
        kernel.nemclock_rows(
            xs.size, absden.shape[1], absden.ctypes.data, fx.ctypes.data,
            *(a.ctypes.data for a in (base, kl, kr, dkl, dkr, fl, fr, dchi_l, dchi_r)),
            beta, c4, out.ctypes.data,
        )
        return out[: (5 + omegas.size) * xs.size]
    el, er = 1.0 - fl, 1.0 - fr
    w_less = kl * fl + kr * fr
    w_more = kl * el + kr * er
    fwin = fl - fr
    # d/dE of g2 * w_more: df/dE = -beta f (1 - f), d|D|^-2/dE =
    # -2 Re(conj(D) D') |D|^-4 with D' = 1 - chi_L' - chi_R'
    dw_more = dkl * el + dkr * er + beta * (kl * fl * el + kr * fr * er)
    dden = 1.0 - dchi_l - dchi_r
    g2 = 1.0 / absden**2
    tau = (kl * kr) * g2
    sigma_less = g2 * w_less
    # the parts of D = base + force x as NumPy's complex add forms them
    den_re, den_im = base.real + fx[:, None], base.imag + 0.0
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
        shifted = energy + w
        ks = spectral_density(shifted, params.left)
        kt = spectral_density(shifted, params.right)
        fs = fermi_dirac(shifted, mu_l, beta)
        ft = fermi_dirac(shifted, mu_r, beta)
        base_s = _resonance_denominator(shifted, params)
        g2_s = 1.0 / np.abs(base_s[None, :] + fx[:, None]) ** 2
        more_s = ks * (1.0 - fs) + kt * (1.0 - ft)
        rows.append(sigma_less * (g2_s * more_s) * c4)
    return np.concatenate(rows, axis=0)


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

    def integrand(energy):
        return _integrand_rows(energy, xs, omegas, params, force, kernel)

    pad = float(np.max(np.abs(omegas))) if n_w else 0.0
    lo, hi, seeds = _window(params, pad=pad)
    try:
        result = integrate(
            integrand, lo, hi, rtol=RTOL, atol=ATOL, breakpoints=seeds
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
    adaptive quadrature whose integrand rows run in the compiled kernel,
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
