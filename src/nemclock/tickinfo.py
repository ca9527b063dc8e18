"""Information-theoretic diagnostics of tick streams.

Works on binned waiting-time distributions: divergence of n-tick sums from
the independent-gap prediction, and mutual information between separated
waits.  All histograms live on uniform grids so n-fold convolutions stay
exact bin arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy import fft  # loaded here, not inside the first timed transform

from .langevin import _stream

__all__ = [
    "Histogram",
    "n_fold_convolution",
    "kl_divergence",
    "n_sum_samples",
    "pairwise_mutual_information",
    "mi_bias_bound",
    "block_bootstrap_se",
]


@dataclass(frozen=True, eq=False)
class Histogram:
    """Probability masses on a uniform bin grid."""

    edges: np.ndarray
    masses: np.ndarray
    total_count: int

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        if edges.ndim != 1 or masses.ndim != 1 or edges.size != masses.size + 1:
            raise ValueError("need n+1 edges for n masses")
        widths = np.diff(edges)
        if not np.all(widths > 0):
            raise ValueError("edges must be strictly increasing")
        if not np.allclose(widths, widths[0], rtol=1e-9, atol=0.0):
            raise ValueError("bins must be uniform")
        if np.any(masses < 0):
            raise ValueError("masses must be non-negative")
        total = masses.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses sum to {total!r}, not 1")
        if self.total_count < 1:
            raise ValueError("total_count must be >= 1")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "masses", masses / total)

    @property
    def bin_width(self) -> float:
        return float(self.edges[1] - self.edges[0])

    @property
    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @classmethod
    def from_samples(cls, samples, *, edges=None, clip=False) -> "Histogram":
        """Bin samples on a uniform grid.

        Without ``edges`` the bin count follows the Freedman-Diaconis rule.
        Explicit ``edges`` must be uniform and must cover every sample unless
        ``clip`` moves strays into the end bins (appropriate when the grid's
        midpoint convention trims the support).
        """
        x = np.asarray(samples, dtype=float)
        if x.size < 2:
            raise ValueError("need at least two samples")
        if edges is not None:
            edges = np.asarray(edges, dtype=float)
            if clip:
                x = np.clip(x, edges[0], np.nextafter(edges[-1], -np.inf))
            elif x.min() < edges[0] or x.max() > edges[-1]:
                raise ValueError("explicit edges do not cover the samples")
            counts, edges = np.histogram(x, bins=edges)
        else:
            iqr = float(np.subtract(*np.percentile(x, [75, 25])))
            if iqr == 0.0:
                bins = max(1, int(math.ceil(math.sqrt(x.size))))
            else:
                width = 2.0 * iqr / x.size ** (1.0 / 3.0)
                bins = max(1, int(math.ceil((x.max() - x.min()) / width)))
            counts, edges = np.histogram(x, bins=bins)
        return cls(
            edges=edges,
            masses=counts / counts.sum(),
            total_count=int(x.size),
        )


def next_fast_len(target: int) -> int:
    """Smallest 11-smooth length >= ``target``, the value of
    ``scipy.fft.next_fast_len(target)``.

    NumPy's real transforms have no radix-7 or radix-11 pass, so such a
    length is not always the fastest for ``rfft``/``irfft`` (one row's pair:
    2.0 ms at 60025 = 5**2 * 7**4, 1.5 ms at 61440, on a 2-core x86-64 VM).
    It stays because ``n_fold_convolution``'s round-off, and through its
    exact zeros the KL divergence, depend on the length.

    Each product of powers of 3, 5, 7 and 11 below the best length so far is
    doubled up to ``target``; the least of those is the answer.
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    best = 1 << (target - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    length = p3 << ((target - 1) // p3).bit_length()
                    if length < best:
                        best = length
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def n_fold_convolution(hist: Histogram, n: int) -> Histogram:
    """Distribution of the sum of n independent draws from ``hist``.

    Bin values are treated as point masses at bin midpoints, so the sum
    lives on the same bin width; the first output edge is
    n*e0 + (n-1)*width/2.  Mass is conserved to 1e-9 and tiny negative
    round-off is clipped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return hist
    m = hist.masses.size
    out_len = n * (m - 1) + 1
    n_fft = next_fast_len(out_len)
    masses = fft.irfft(fft.rfft(hist.masses, n_fft) ** n, n_fft)[:out_len]
    if masses.min() < -1e-9:
        raise RuntimeError(f"convolution produced mass {masses.min():.3e}")
    masses = np.clip(masses, 0.0, None)
    total = masses.sum()
    if abs(total - 1.0) > 1e-9:
        raise RuntimeError(f"convolution lost mass: sum={total!r}")
    w = hist.bin_width
    first = n * hist.edges[0] + (n - 1) * w / 2.0
    return Histogram(
        edges=first + w * np.arange(out_len + 1),
        masses=masses / total,
        total_count=hist.total_count,
    )


def _common_grid(p: Histogram, q: Histogram) -> None:
    if p.edges.size != q.edges.size or not np.allclose(
        p.edges, q.edges, rtol=1e-9, atol=1e-12
    ):
        raise ValueError("histograms live on different grids")


def kl_divergence(p: Histogram, q: Histogram) -> float:
    """KL divergence D(p || q) in nats on a shared grid.

    Empty q-bins that carry p-mass get a pseudo-mass of one tenth of a count
    in q before renormalizing, so finite samples never produce an infinite
    divergence; the result is clipped at 0.
    """
    _common_grid(p, q)
    qm = q.masses.copy()
    needy = (qm == 0.0) & (p.masses > 0.0)
    if np.any(needy):
        qm[needy] = 1.0 / (10.0 * q.total_count)
        qm /= qm.sum()
    mask = p.masses > 0.0
    value = float(np.sum(p.masses[mask] * np.log(p.masses[mask] / qm[mask])))
    return max(0.0, value)


def n_sum_samples(waits, n: int) -> np.ndarray:
    """Sliding sums of n consecutive waiting times."""
    tau = np.asarray(waits, dtype=float)
    if n < 1:
        raise ValueError("n must be >= 1")
    if tau.size < n:
        raise ValueError(f"need at least {n} waits, got {tau.size}")
    if n == 1:
        return tau.copy()
    c = np.concatenate([[0.0], np.cumsum(tau)])
    return c[n:] - c[:-n]


def _plugin_entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log(p)))


def pairwise_mutual_information(waits, separation: int) -> float:
    """Plug-in mutual information between waits m ticks apart, in nats.

    Pairs (tau_i, tau_{i+m}) are binned on a B x B grid with B = K^(1/3)
    rounded up (K pairs); both axes share edges built from the pooled
    coordinates.  Returns max(0, H[X] + H[Y] - H[X,Y]) with the two marginal
    entropies estimated from the pooled marginal histogram.
    """
    tau = np.asarray(waits, dtype=float)
    m = int(separation)
    if m < 1:
        raise ValueError("separation must be >= 1")
    if tau.size <= m + 1000:
        raise ValueError(
            f"need more than {m + 1000} waits for separation {m}, got {tau.size}"
        )
    x = tau[:-m]
    y = tau[m:]
    k = x.size
    b = int(math.ceil(k ** (1.0 / 3.0)))
    pooled = np.concatenate([x, y])
    edges = np.linspace(pooled.min(), pooled.max(), b + 1)
    edges[-1] = np.nextafter(edges[-1], np.inf)
    joint, _, _ = np.histogram2d(x, y, bins=[edges, edges])
    marginal, _ = np.histogram(pooled, bins=edges)
    h1 = _plugin_entropy(marginal)
    h2 = _plugin_entropy(joint.ravel())
    return max(0.0, 2.0 * h1 - h2)


def mi_bias_bound(pair_count: int) -> float:
    """First-order plug-in bias of the mutual-information estimate."""
    if pair_count < 2:
        raise ValueError("need at least two pairs")
    b = int(math.ceil(pair_count ** (1.0 / 3.0)))
    return (b - 1) ** 2 / (2.0 * pair_count)


def block_bootstrap_se(
    samples, statistic, *, block: int, n_boot: int = 200, seed: int = 0
) -> float:
    """Standard error of a statistic under a moving-block bootstrap,
    preserving short-range correlation inside blocks."""
    x = np.asarray(samples, dtype=float)
    if block < 1 or block > x.size:
        raise ValueError("block must be in [1, len(samples)]")
    rng = _stream(seed, 0)
    n_blocks = int(math.ceil(x.size / block))
    starts_max = x.size - block + 1
    reps = np.empty(n_boot)
    for i in range(n_boot):
        starts = rng.integers(0, starts_max, size=n_blocks)
        idx = (starts[:, None] + np.arange(block)[None, :]).ravel()[: x.size]
        reps[i] = statistic(x[idx])
    return float(reps.std(ddof=1))
