"""Steady-state electron transport conditioned on the oscillator position.

Everything here treats the oscillator coordinate x as a frozen parameter: the
dot level is shifted to ``dot_energy - force * x`` and the resulting
single-level scattering problem is evaluated exactly.  The outputs — excess
occupation, current, shot noise, friction and diffusion — feed the Langevin
integrator through :class:`CoefficientTable`, one row per coefficient of a
single (5, nodes) array.

Sign conventions: the charge-noise spectrum S_x(omega) obeys detailed balance
S_x(-w) = exp(-betaw) S_x(w) at zero bias, which makes the zero-frequency
slope (the friction) positive in equilibrium.

Six energy integrals make the coefficients: occupation, current, thermal
and partition shot noise, the friction slope dS_x/domega at omega = 0 and
S_x(omega).  Each lead's self-energy is g_l / Q_l with Q_l = E - c_l + i W_l
and g_l = Gamma_l W_l / 2, so D(E) Q_L Q_R is the monic cubic

    N(E) = (E - eps + F x) Q_L Q_R - g_L Q_R - g_R Q_L,

whose roots r_k lie below the real axis.  With g2 = 1/|D|^2 and the lead
rates k_l, the three rationals every row is built from are

    A_L = g2 k_L = Gamma_L W_L^2 |Q_R|^2 / |N|^2,   A_R likewise,
    tau = g2 k_L k_R = Gamma_L Gamma_R W_L^2 W_R^2 / |N|^2,

each a sum of simple poles at r_k and their mirror images.  At omega = 0
:func:`_pole_rows` integrates every row in closed form, in NumPy,
vectorised over the positions.  Products of Fermi functions become terms
linear in f_L, f_R, f_L' and f_R': f(1 - f) = -f'/beta and
f_L (1 - f_R) + f_R (1 - f_L) = (f_L - f_R) coth(beta V / 2).  The
friction, F^2/2pi int sigma< d(sigma>)/dE with sigma< + sigma> = A_L + A_R
= A, integrates by parts to F^2/2pi int sigma< A' dE.  A real rational R with poles r_k of order j and Laurent
coefficients a_kj, decaying at least as E^-2, then integrates against a
Fermi function (Ozaki, PRB 75, 035123 (2007)) as

    int R f_mu dE = sum_kj 2 Re[a_kj s^(j-1) psi^(j-1)(z_k) / (j-1)!]
                    + pi sum_k Im a_k1,   z_k = 1/2 + s (r_k - mu),

with s = i beta / 2pi, and an f' factor takes one more derivative of psi.
The f_L - f_R terms use the divided difference of psi between the two
chemical potentials, which a Taylor series carries through zero bias.  The
tests hold every stored column of the V = 5 ... 300 tables to 1e-9 of its
largest value against a quadrature oracle of the energy integrands, which
lives with them in ``tests/oracle.py``; where two poles come so close that
the sums lose accuracy, :func:`_pole_rows` raises and names the position.

The coefficients need S_x only at omega = 0: the oscillator is slow, so the
friction and the diffusion are its slope and its value there.

Tables and points take the pole sums from the compiled kernel (``_stepper.c``,
which :mod:`nemclock.langevin` loads), one position at a time, through
:func:`_pole_sums`.  The kernel reproduces the NumPy pass bit for bit,
NumPy's fused complex products included, so it is checked against that pass
at fixed positions before its first use; where the check fails, or the
kernel is unavailable, one RuntimeWarning says so and the NumPy pass, its
test oracle, sums every later pass.
"""
from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .params import AdiabaticityWarning, SystemParams, default_params, fingerprint

__all__ = [
    "COLUMNS",
    "GridSpec",
    "CoefficientTable",
    "friction_and_diffusion",
    "build_coefficient_table",
    "table_fingerprint",
]

# the closest two poles may come, as a share of the larger one's distance
# from the real axis: the triple-pole friction sum loses about 2e-16/share^4
POLE_SEPARATION = 0.05
NEAR_BIAS = 0.01     # |z_L - z_R| below which psi's divided difference is a series
# B_2, B_4, ..., B_20, and the coefficients of 1/w^2k (k = 1 ... 10) in the
# asymptotic series of psi^(n) for n = 0 ... 6: B_2k / 2k for psi itself,
# B_2k (2k + n - 1)! / (2k)! for its derivatives
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
              -3617 / 510, 43867 / 798, -174611 / 330)
_SERIES = [[b / (2 * k) for k, b in enumerate(_BERNOULLI, 1)]] + [
    [b * math.factorial(2 * k + n - 1) / math.factorial(2 * k)
     for k, b in enumerate(_BERNOULLI, 1)]
    for n in range(1, 7)
]
_SERIES_DOUBLES = [term for terms in _SERIES for term in terms]
# the cube roots of unity, which turn Cardano's one cube root into three
_UNITY = np.exp(2j * np.pi / 3.0 * np.arange(3))
_CLOSE_POLES = (
    "transport pole sums cannot hold their accuracy at x={!r}: two poles are "
    f"closer than {POLE_SEPARATION} of their distance from the real axis"
)
_NON_FINITE = "non-finite transport pole sums at x={!r}"
# the compiled pole sums must equal the NumPy pass at these positions, at a
# bias that takes the plain divided difference of psi and one that takes
# its Taylor series, before they are used
_PROBE_VOLTAGES = (100.0, 1e-6)
_PROBE_POSITIONS = (-40.0, -3.5, 0.0, 12.25, 60.0)


def _polygammas(z, top):
    """psi^(n)(z) for n = 0 ... top, stacked on a new first axis, for complex
    ``z`` with Re z > 0.

    Ten steps of the recurrence psi^(n)(z) = psi^(n)(z + 1) - (-1)^n n! /
    z^(n+1) carry every z to Re z > 10, where ten terms of the asymptotic
    series (A&S 6.3.18 and 6.4.11) hold psi^(n) to about 1e-15 relative for
    n <= 6.  Every element takes the same steps, so its bits do not depend
    on the rest of the batch.
    """
    z = np.asarray(z, dtype=complex)
    shift = 10
    out = np.zeros((top + 1, *z.shape), dtype=complex)
    for m in range(shift):
        inv = 1.0 / (z + m)
        power = inv
        for n in range(top + 1):
            out[n] -= (-1) ** n * math.factorial(n) * power
            power = power * inv
    inv = 1.0 / (z + shift)
    inv2 = inv * inv
    for n in range(top + 1):
        series = 0.0
        for term in reversed(_SERIES[n]):
            series = series * inv2 + term
        if n == 0:
            out[0] += np.log(z + shift) - 0.5 * inv - series * inv2
        else:
            lead = math.factorial(n - 1) + 0.5 * math.factorial(n) * inv + series * inv2
            out[n] += (-1) ** (n + 1) * lead * inv**n
    return out


def _leads(params: SystemParams):
    """Each lead's pole c_l - i W_l and weight g_l = Gamma_l W_l / 2:
    (pl, pr, gl, gr)."""
    pl = params.left.band_center - 1j * params.left.bandwidth
    pr = params.right.band_center - 1j * params.right.bandwidth
    gl = 0.5 * params.left.peak_rate * params.left.bandwidth
    gr = 0.5 * params.right.peak_rate * params.right.bandwidth
    return pl, pr, gl, gr


def _bias(params: SystemParams):
    """s = i beta / 2pi, h = z_L - z_R, u coth u with u = beta V / 2, and
    whether |h| is not at least :data:`NEAR_BIAS`, where psi's divided
    difference is a series."""
    beta = params.inverse_temperature
    s = 0.5j * beta / np.pi
    bias = params.left.chemical_potential - params.right.chemical_potential
    h, u = -s * bias, 0.5 * beta * bias
    qcoth = u / math.tanh(u) if u else 1.0
    return s, h, qcoth, not abs(h) >= NEAR_BIAS


def _poles(params: SystemParams, fx):
    """The roots of N(E) (see the module docstring) for each level shift
    ``fx`` = F x, shape (3, len(fx)): Cardano's formula, then two Newton
    steps on the factored cubic."""
    pl, pr, gl, gr = _leads(params)
    e0 = params.dot_energy - fx
    # N = E^3 + b E^2 + c E + d, and its depressed form t^3 + p t + q
    b = -(e0 + pl + pr)
    c = e0 * (pl + pr) + pl * pr - gl - gr
    d = gl * pr + gr * pl - e0 * pl * pr
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    root = np.sqrt(0.25 * q * q + p**3 / 27.0)
    # the larger of -q/2 +- root, whose cube root does not cancel
    u = np.where(np.abs(root - 0.5 * q) >= np.abs(root + 0.5 * q), root - 0.5 * q, -root - 0.5 * q)
    cube = _UNITY[:, None] * u ** (1.0 / 3.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = cube - p / (3.0 * cube) - b / 3.0
        for _ in range(2):
            ql, qr, de = e - pl, e - pr, e - e0
            e = e - (de * ql * qr - gl * qr - gr * ql) / (ql * qr + de * (ql + qr) - gl - gr)
    return e


def _pole_rows(xs, params: SystemParams, force):
    """The six transport integrals at omega = 0 for the positions ``xs`` as
    sums over the poles of N, shape (6, len(xs)); see the module docstring.

    Raises RuntimeError, naming the positions, where two poles are closer
    than :data:`POLE_SEPARATION` of their distance from the real axis, or
    where a pole or a row is not finite.
    """
    left, right = params.left, params.right
    beta = params.inverse_temperature
    r = _poles(params, force * xs)
    gap = r[:, None] - r[None, :]  # r_k - r_l
    mirror = r[:, None] - r.conj()[None, :]  # r_k - conj(r_l)
    one, two = [0, 0, 1], [1, 2, 2]
    with np.errstate(invalid="ignore"):
        share = np.abs(gap[one, two]) / np.maximum(-r.imag[one], -r.imag[two])
    held = (share >= POLE_SEPARATION).all(axis=0) & (r.imag < 0.0).all(axis=0)
    _refuse(xs, ~held, _CLOSE_POLES)
    # NumPy's reductions over complex axes round differently with the batch
    # size, so every sum and product over poles below is spelled out
    nxt, far = [1, 2, 0], [2, 0, 1]
    ahead, behind = gap[[0, 1, 2], nxt], gap[[0, 1, 2], far]  # r_k - r_k+1, r_k - r_k+2
    # residues at r_k of A_L, A_R and tau: numerator / (N'(r_k) conj-N(r_k))
    alpha = np.array([
        left.peak_rate * left.bandwidth**2 * ((r - right.band_center) ** 2 + right.bandwidth**2),
        right.peak_rate * right.bandwidth**2 * ((r - left.band_center) ** 2 + left.bandwidth**2),
        np.full(r.shape, left.peak_rate * right.peak_rate * (left.bandwidth * right.bandwidth) ** 2),
    ]) / (ahead * behind * mirror[:, 0] * mirror[:, 1] * mirror[:, 2])
    # the constant and linear Taylor terms at r_k of the other five poles
    c0 = alpha[:, nxt] / ahead + alpha[:, far] / behind
    c1 = alpha[:, nxt] / ahead**2 + alpha[:, far] / behind**2
    for l in range(3):
        c0 = c0 + alpha[:, l:l + 1].conj() / mirror[:, l]
        c1 = c1 + alpha[:, l:l + 1].conj() / mirror[:, l] ** 2
    c1 = -c1
    (al, ar, at), (c0l, c0r, c0t), (c1l, c1r, _) = alpha, c0, c1
    a, c1a = al + ar, c1l + c1r

    s, h, qcoth, near = _bias(params)
    mu = np.array([left.chemical_potential, right.chemical_potential])
    psi = _polygammas(0.5 + s * (r - mu[:, None, None]), 2)  # (order, lead, pole, x)
    # (psi^(n)(z_L) - psi^(n)(z_R)) / h for n = 0, 1, a Taylor series about
    # the midpoint at small bias
    if not near:
        divided = (psi[:2, 0] - psi[:2, 1]) / h
    else:
        mid = _polygammas(0.5 + s * (r - 0.5 * (mu[0] + mu[1])), 6)
        divided = mid[1:3] + h * h / 24.0 * mid[3:5] + h**4 / 1920.0 * mid[5:7]

    def pole_sum(parts, values):
        # sum_kj 2 Re[a_kj s^(j-1) / (j-1)! values[j-1]_k]
        total = sum((a_j * (s**n / math.factorial(n)) * values[n]).real
                    for n, a_j in enumerate(parts))
        return 2.0 * (total[0] + total[1] + total[2])

    def filled(parts, lead):  # int R f_lead dE
        im = parts[0].imag
        return pole_sum(parts, psi[:, lead]) + np.pi * (im[0] + im[1] + im[2])

    def edge(parts, lead):  # int R f_lead' dE
        return pole_sum(parts, s * psi[1:, lead])

    # every ``parts`` list below holds a rational's Laurent coefficients
    # [a_k1, a_k2, a_k3] at r_k, multiplied out from A_L, A_R, tau = alpha/t
    # + c0 + c1 t + ... (t = E - r_k) and A' = -alpha/t^2 + c1 + ...
    c4 = force**2 / (2.0 * np.pi)
    # (f_L - f_R)^2 = (f_L - f_R) coth(u) + (f_L' + f_R') / beta: a second
    # divided difference, exactly 0 at zero bias
    partition = pole_sum(
        [at - 2.0 * at * c0t, -at * at],
        (0.5j / np.pi) * (psi[1:, 0] + psi[1:, 1] - 2.0 * qcoth * divided),
    )
    rows = np.array([
        (filled([al], 0) + filled([ar], 1)) / (2.0 * np.pi),
        pole_sum([at], h * divided) / np.pi,
        (edge([at], 0) + edge([at], 1)) * (-2.0 / (np.pi * beta)),
        partition * (2.0 / np.pi),
        # F^2/2pi int sigma< A' dE, with sigma< = A_L f_L + A_R f_R
        c4 * (filled([al * c1a - c1l * a, -c0l * a, -al * a], 0)
              + filled([ar * c1a - c1r * a, -c0r * a, -ar * a], 1)),
        # F^2/2pi int sigma< sigma> dE
        c4 * (pole_sum([al * c0r + c0l * ar, al * ar], (-1j * qcoth / np.pi) * divided)
              - (edge([2.0 * al * c0l, al * al], 0) + edge([2.0 * ar * c0r, ar * ar], 1)) / beta),
    ])
    _refuse(xs, ~np.isfinite(rows).all(axis=0), _NON_FINITE)
    return rows


def _refuse(xs, bad, message: str):
    """Raise RuntimeError with ``message`` naming the positions ``xs[bad]``,
    if there are any."""
    if bad.any():
        raise RuntimeError(message.format(xs[bad]))


def _pole_constants(params: SystemParams, force):
    """The kernel's ``pole_consts_t`` for ``params`` and ``force``: every
    scalar of :func:`_pole_rows` that depends on the operating point alone,
    by the pass's own expression, in float64 with each complex value split
    into its real and imaginary parts."""
    left, right = params.left, params.right
    beta = params.inverse_temperature
    pl, pr, gl, gr = _leads(params)
    s, h, qcoth, near = _bias(params)
    mu = np.array([left.chemical_potential, right.chemical_potential])
    fields = [
        force, params.dot_energy, pl, pr, gl, gr, pl + pr, pl * pr, gl * pr + gr * pl,
        *_UNITY,
        left.peak_rate * left.bandwidth**2, right.peak_rate * right.bandwidth**2,
        left.peak_rate * right.peak_rate * (left.bandwidth * right.bandwidth) ** 2,
        left.band_center, right.band_center, left.bandwidth**2, right.bandwidth**2,
        s, *mu, 0.5 * (mu[0] + mu[1]), *(s**n / math.factorial(n) for n in range(3)),
        float(near), h, h * h / 24.0, h**4 / 1920.0, 2.0 * qcoth,
        0.5j / np.pi, -1j * qcoth / np.pi,
        2.0 * np.pi, np.pi, -2.0 / (np.pi * beta), 2.0 / np.pi, force**2 / (2.0 * np.pi),
        beta, POLE_SEPARATION,
    ]
    parts = [(v.real, v.imag) if isinstance(v, complex) else (v,) for v in fields]
    return np.array([x for part in parts for x in part] + _SERIES_DOUBLES)


def _probe_pole_sums(kernel):
    """``kernel``, once its pole sums equal :func:`_pole_rows` bit for bit
    at :data:`_PROBE_POSITIONS` and :data:`_PROBE_VOLTAGES`."""
    from . import langevin  # at module level, a circular import

    xs = np.array(_PROBE_POSITIONS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AdiabaticityWarning)
        probes = [default_params(v) for v in _PROBE_VOLTAGES]
    for params in probes:
        rows, status = langevin._pole_rows_compiled(
            kernel, xs, _pole_constants(params, params.force)
        )
        want = _pole_rows(xs, params, params.force)
        if status.any() or rows.tobytes() != want.tobytes():
            raise ValueError("its rows differ from the NumPy pass")
    return kernel


def _pole_sums(xs, params: SystemParams, force):
    """:func:`_pole_rows` at the float64 positions ``xs``, summed by the
    compiled kernel, or by NumPy when the kernel is unavailable or failed
    its probe: the same bits, and the same errors."""
    from . import langevin  # at module level, a circular import

    kernel = langevin._kernel()
    if kernel is not None:
        kernel = langevin._compiled_part(
            "pole sums", lambda: _probe_pole_sums(kernel), "summing transport poles in NumPy"
        )
    if kernel is None:
        return _pole_rows(xs, params, force)
    rows, status = langevin._pole_rows_compiled(kernel, xs, _pole_constants(params, force))
    _refuse(xs, status == 1, _CLOSE_POLES)
    _refuse(xs, status == 2, _NON_FINITE)
    return rows


def friction_and_diffusion(position, params: SystemParams):
    """(gamma_x, D_x): zero-frequency slope and value of S_x.

    The friction is gamma_x = m^-1 dS_x/domega at omega = 0, the exact
    F^2/2pi int sigma<(E) d/dE[g2(E) w_more(E)] dE, summed over the poles
    with S_x(0); the diffusion is S_x(0), floored at zero against round-off.
    """
    slope, spec = _pole_sums(np.array([position], dtype=float), params, params.force)[4:, 0]
    return float(slope / params.oscillator_mass), float(np.maximum(spec, 0.0))


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


# the tabulated coefficients, in archive order and in a table's row order
COLUMNS = ("excess_occupation", "current", "shot_noise", "friction", "diffusion")


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Transport coefficients tabulated on a strictly increasing grid.

    ``values`` is one C-contiguous (len(COLUMNS), len(grid)) array: its row
    ``ROWS[name]`` holds the coefficient ``name`` at the grid nodes, the rows
    in :data:`COLUMNS` order.
    """

    ROWS: ClassVar[dict] = {name: row for row, name in enumerate(COLUMNS)}

    grid: np.ndarray
    values: np.ndarray
    params_hash: str

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be a strictly increasing 1-D array")
        values = np.ascontiguousarray(self.values, dtype=float)
        shape = (len(COLUMNS), grid.size)
        if values.shape != shape:
            raise ValueError(f"values must have shape {shape}, a row per column")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def column(self, name: str) -> np.ndarray:
        """One coefficient across the grid, as a row of ``values``."""
        return self.values[self.ROWS[name]]

    def save(self, path) -> None:
        checksum = _table_checksum(self.grid, self.values)
        header = json.dumps(
            {"params_hash": self.params_hash, "checksum": checksum}
        )
        with open(path, "wb") as fh:
            np.savez(fh, header=np.frombuffer(header.encode(), dtype=np.uint8),
                     grid=self.grid, **dict(zip(COLUMNS, self.values)))

    @classmethod
    def load(cls, path, *, expected_hash: str) -> "CoefficientTable":
        try:
            with np.load(path) as data:
                header = json.loads(bytes(data["header"]).decode())
                grid = data["grid"]
                values = np.stack([data[name] for name in COLUMNS])
        except FileNotFoundError:
            raise
        except Exception as exc:
            # any unreadable archive counts as corruption, so the CLI's
            # hand-off answers it with exit 2 instead of crashing
            raise ValueError(
                f"coefficient table {path} is corrupt ({exc})"
            ) from exc
        if _table_checksum(grid, values) != header["checksum"]:
            raise ValueError(f"coefficient table {path} is corrupt (checksum)")
        if header["params_hash"] != expected_hash:
            raise ValueError(
                f"coefficient table {path} was built for different parameters"
            )
        return cls(grid=grid, values=values, params_hash=header["params_hash"])


def _table_checksum(grid, values) -> str:
    """SHA-256 of the grid, then of each column's name and row by name."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(grid).tobytes())
    for name, row in sorted(CoefficientTable.ROWS.items()):
        digest.update(name.encode())
        digest.update(values[row].tobytes())
    return digest.hexdigest()


def table_fingerprint(params: SystemParams, grid: np.ndarray) -> str:
    """Identity of a table: the parameters, the grid and the transport
    method, which the CLI's hand-off checks against the one an ensemble names."""
    grid = np.ascontiguousarray(grid, dtype=float)
    return fingerprint(
        params,
        extra={
            "transport": "pole sums",
            "grid_sha": hashlib.sha256(grid.tobytes()).hexdigest(),
        },
    )


def build_coefficient_table(
    params: SystemParams,
    grid_spec,
    *,
    threads: int = 1,
) -> CoefficientTable:
    """Tabulate every transport coefficient over a position grid.

    ``grid_spec`` is a :class:`GridSpec` or an explicit strictly increasing
    array of positions.  The whole grid is one pass of pole sums (see
    :func:`_pole_sums`) on the calling thread, in the compiled kernel or, as
    its fallback, in NumPy; ``threads`` has no effect.
    """
    if isinstance(grid_spec, GridSpec):
        grid = grid_spec.positions()
    else:
        grid = np.asarray(grid_spec, dtype=float)
    if grid.ndim != 1 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be a strictly increasing 1-D array")

    # one pass over the grid and, last, the rest position x = 0, whose
    # occupation is the baseline of the excess
    rows = _pole_sums(np.append(grid, 0.0), params, params.force)
    occ, cur, thermal, partition, slope, spec = rows[:, :-1]
    # the rows in COLUMNS order
    values = np.array([
        occ - rows[0, -1], cur, thermal + partition,
        slope / params.oscillator_mass, np.maximum(spec, 0.0),
    ])
    return CoefficientTable(
        grid=grid, values=values, params_hash=table_fingerprint(params, grid)
    )
