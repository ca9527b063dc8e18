"""Vectorised adaptive panel integration on a Gauss-Kronrod 15(7) rule.

This is the tests' oracle of the transport pole sums: no package module
imports it.  The oracle integrates families of energy integrals that share
one integration window (one integrand value per oscillator position), so
the integrator works on vector-valued panel estimates and refines a panel
when *any* component of the family still misses its error budget.

:func:`integrate` takes a panel rule: ``rule(lo, hi)`` returns, for a batch
of panels, each component's Kronrod estimate and its distance |K - G| from
the embedded Gauss estimate, as arrays of shape ``(panels,)`` or
``(k, panels)``.  All panels of one refinement sweep go to one rule call.
:func:`kronrod` makes the rule of a pointwise integrand.  It sums each
panel's 15 (and 7) weighted node values in node order, one multiply and one
add per node, and only then scales by the panel's half width.  So a panel's
estimate depends on its own node values alone: not on the other panels of
the sweep and not on a BLAS build.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuadResult", "QuadratureError", "integrate", "kronrod", "panel_nodes"]

# 15-point Kronrod abscissae (ascending) with the embedded 7-point Gauss rule
# on the odd indices.
_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_KRONROD_W = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
_GAUSS_IDX = np.arange(1, 15, 2)
_GAUSS_W = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before the tolerance."""

    def __init__(self, message: str, achieved: float, requested: float):
        super().__init__(message)
        self.achieved = achieved
        self.requested = requested


@dataclass(frozen=True)
class QuadResult:
    """Integral estimate with its error bound and work counters."""

    value: np.ndarray
    error: np.ndarray
    panels: int
    evaluations: int


def panel_nodes(lo: np.ndarray, hi: np.ndarray):
    """The 15 Kronrod abscissae of every panel, flat and panel by panel, and
    each panel's half width."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * _NODES[None, :]).ravel(), half


def kronrod(f):
    """The panel rule of the pointwise integrand ``f``.

    ``f`` maps a flat array of abscissae to values of shape ``(n,)`` or
    ``(k, n)`` for a family of k integrands sharing them; the rule makes one
    ``f`` call per batch of panels.  Each estimate is the node-order sum
    ``((0 + v0 w0) + v1 w1) + ...`` times the half width.
    """

    def rule(lo, hi):
        points, half = panel_nodes(lo, hi)
        raw = np.asarray(f(points), dtype=float)
        vals = raw.reshape(raw.shape[:-1] + (lo.size, _NODES.size))
        kron = gauss = 0.0
        for k, w in enumerate(_KRONROD_W):
            kron = kron + vals[..., k] * w
        for k, w in zip(_GAUSS_IDX, _GAUSS_W):
            gauss = gauss + vals[..., k] * w
        kron = kron * half
        return kron, np.abs(kron - gauss * half)

    return rule


def integrate(
    rule,
    lower: float,
    upper: float,
    *,
    rtol: float = 1e-8,
    atol: float = 0.0,
    breakpoints=None,
    max_panels: int = 4096,
) -> QuadResult:
    """Adaptively integrate the panel rule ``rule`` over ``[lower, upper]``.

    Parameters
    ----------
    rule:
        Callable mapping the panels' lower and upper ends to their Kronrod
        estimates and errors |K - G|, each of shape ``(panels,)`` or
        ``(k, panels)`` for a family of k integrands; :func:`kronrod` makes
        one from a pointwise integrand.
    breakpoints:
        Optional interior points (band edges, chemical potentials) used to
        seed the initial panel layout.
    max_panels:
        Past it the estimate stands if each component's summed error meets
        its ``tol``; otherwise :class:`QuadratureError` is raised.

    Notes
    -----
    A panel is split while its error exceeds ``tol / (2 * n_panels)`` for any
    component, where ``tol = max(atol, rtol * |integral|)`` is refreshed from
    the current global estimate each sweep.
    """
    if not upper > lower:
        raise ValueError(f"empty integration window [{lower}, {upper}]")
    edges = [lower, upper]
    if breakpoints is not None:
        edges += [float(p) for p in breakpoints if lower < p < upper]
    # np.unique's sort-and-compare steps, without its masked-array check,
    # which imports numpy.ma
    edges = np.asarray(edges, dtype=float)
    edges.sort()
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    lo, hi = edges[:-1].copy(), edges[1:].copy()

    kron, err = rule(lo, hi)
    evaluations = lo.size * _NODES.size
    while True:
        total = kron.sum(axis=-1)
        scale = np.maximum(atol, rtol * np.abs(total))
        tol = np.atleast_1d(scale)[:, None] / (2.0 * lo.size)
        bad = (np.atleast_2d(err) > tol).any(axis=0)
        if not bad.any():
            break
        if lo.size + bad.sum() > max_panels:
            error, need = np.atleast_1d(err.sum(axis=-1)), np.atleast_1d(scale)
            if (error <= need).all():
                break
            with np.errstate(divide="ignore", invalid="ignore"):
                row = int(np.nanargmax(error / need))
            raise QuadratureError(
                f"needed more than {max_panels} panels over [{lower}, {upper}]",
                achieved=float(error[row]), requested=float(need[row]),
            )
        mid = 0.5 * (lo[bad] + hi[bad])
        new_lo = np.concatenate([lo[bad], mid])
        new_hi = np.concatenate([mid, hi[bad]])
        new_kron, new_err = rule(new_lo, new_hi)
        evaluations += new_lo.size * _NODES.size
        keep = ~bad
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        kron = np.concatenate([kron[..., keep], new_kron], axis=-1)
        err = np.concatenate([err[..., keep], new_err], axis=-1)
    return QuadResult(total, err.sum(axis=-1), lo.size, evaluations)
