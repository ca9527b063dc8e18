"""Binned information measures: exact small-case oracles, distributional
closure under convolution, and estimator bias behaviour on known laws."""
import math

import numpy as np
import pytest
from scipy import fft as sfft
from scipy import stats as sstats

from nemclock.tickinfo import (
    Histogram,
    block_bootstrap_se,
    kl_divergence,
    mi_bias_bound,
    n_fold_convolution,
    n_sum_samples,
    next_fast_len,
    pairwise_mutual_information,
)


def _hist(masses, lo=0.0, width=1.0, count=100):
    masses = np.asarray(masses, dtype=float)
    edges = lo + width * np.arange(masses.size + 1)
    return Histogram(edges=edges, masses=masses, total_count=count)


# ---------------------------------------------------------------- histogram --


def test_histogram_validation():
    with pytest.raises(ValueError, match="n\\+1 edges"):
        Histogram(edges=np.arange(3.0), masses=np.ones(3) / 3, total_count=1)
    with pytest.raises(ValueError, match="increasing"):
        Histogram(
            edges=np.array([0.0, 1.0, 1.0]),
            masses=np.array([0.5, 0.5]),
            total_count=1,
        )
    with pytest.raises(ValueError, match="uniform"):
        Histogram(
            edges=np.array([0.0, 1.0, 3.0]),
            masses=np.array([0.5, 0.5]),
            total_count=1,
        )
    with pytest.raises(ValueError, match="non-negative"):
        _hist([1.5, -0.5])
    with pytest.raises(ValueError, match="sum to"):
        _hist([0.5, 0.4])
    with pytest.raises(ValueError, match="total_count"):
        _hist([0.5, 0.5], count=0)
    h = _hist([0.25, 0.75], lo=2.0, width=0.5)
    assert h.bin_width == 0.5
    np.testing.assert_allclose(h.midpoints, [2.25, 2.75])


def test_from_samples_freedman_diaconis_default():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1000)
    h = Histogram.from_samples(x)
    iqr = float(np.subtract(*np.percentile(x, [75, 25])))
    want = int(math.ceil((x.max() - x.min()) / (2.0 * iqr / x.size ** (1 / 3))))
    assert h.masses.size == want
    assert h.total_count == 1000
    assert h.masses.sum() == pytest.approx(1.0)


def test_from_samples_explicit_edges_and_clip():
    x = np.arange(11.0)
    edges = np.array([2.0, 4.0, 6.0, 8.0])
    with pytest.raises(ValueError, match="do not cover"):
        Histogram.from_samples(x, edges=edges)
    h = Histogram.from_samples(x, edges=edges, clip=True)
    # strays are moved into the end bins, never dropped
    assert h.total_count == 11
    np.testing.assert_allclose(h.masses, np.array([4.0, 2.0, 5.0]) / 11.0)
    with pytest.raises(ValueError, match="two samples"):
        Histogram.from_samples([1.0])


# -------------------------------------------------------------- convolution --


def test_convolution_identity_and_validation():
    h = _hist([0.2, 0.5, 0.3])
    assert n_fold_convolution(h, 1) is h
    with pytest.raises(ValueError, match=">= 1"):
        n_fold_convolution(h, 0)


def test_convolution_point_mass():
    # all mass in bin i: the n-sum is a point mass at n times its midpoint
    h = _hist([0.0, 1.0, 0.0], lo=1.0, width=0.5)
    for n in (2, 3, 5):
        out = n_fold_convolution(h, n)
        assert out.masses.size == n * 2 + 1
        j = int(np.argmax(out.masses))
        assert out.masses[j] == pytest.approx(1.0)
        assert out.midpoints[j] == pytest.approx(n * h.midpoints[1])


def test_convolution_fair_coin():
    h = _hist([0.5, 0.5])
    out = n_fold_convolution(h, 2)
    np.testing.assert_allclose(out.masses, [0.25, 0.5, 0.25], atol=1e-12)
    assert out.total_count == h.total_count


def test_convolution_inverse_gaussian_closure():
    # the n-sum of this two-parameter family stays in the family with
    # mean n*mu and shape n^2*lam; bin arithmetic must reproduce that
    mu, lam, n = math.pi, 30.0, 4
    law = sstats.invgauss(mu / lam, scale=lam)
    width = 0.02
    edges = width * np.arange(int(14.0 / width) + 1)
    p = np.diff(law.cdf(edges))
    h = Histogram(edges=edges, masses=p / p.sum(), total_count=10**6)
    out = n_fold_convolution(h, n)
    target_law = sstats.invgauss(n * mu / (n**2 * lam), scale=n**2 * lam)
    q = np.diff(target_law.cdf(out.edges))
    tv = 0.5 * np.sum(np.abs(out.masses - q / q.sum()))
    assert tv < 0.02


# ----------------------------------------------------------------------- KL --


def test_next_fast_len_equals_scipy():
    targets = range(1, 2**17 + 1)
    assert [next_fast_len(n) for n in targets] == [sfft.next_fast_len(n) for n in targets]
    with pytest.raises(ValueError, match=">= 1"):
        next_fast_len(0)


@pytest.mark.parametrize("bins, n", [(60, 2), (257, 4), (1001, 8), (4099, 3)])
def test_convolution_equals_scipy_fft(bins, n):
    # the masses numpy.fft convolves equal those of the scipy.fft transform
    masses = np.random.default_rng(bins).random(bins)
    h = _hist(masses / masses.sum())
    out_len = n * (bins - 1) + 1
    n_fft = sfft.next_fast_len(out_len)
    ref = sfft.irfft(sfft.rfft(h.masses, n_fft) ** n, n_fft)[:out_len]
    ref = np.clip(ref, 0.0, None)
    np.testing.assert_array_equal(n_fold_convolution(h, n).masses, ref / ref.sum())


def test_kl_two_bin_exact():
    p = _hist([0.5, 0.5])
    q = _hist([0.75, 0.25])
    assert kl_divergence(p, q) == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-12)
    assert kl_divergence(p, p) == 0.0


def test_kl_grid_mismatch():
    with pytest.raises(ValueError, match="different grids"):
        kl_divergence(_hist([0.5, 0.5]), _hist([0.5, 0.5], lo=0.1))


def test_kl_empty_bin_regularization():
    p = _hist([0.5, 0.25, 0.25])
    q = _hist([0.5, 0.5, 0.0], count=1000)
    base = kl_divergence(p, q)
    assert math.isfinite(base) and base > 0


# ------------------------------------------------------------------ n-sums --


def test_n_sum_samples_sliding():
    waits = [1.0, 2.0, 3.0, 4.0, 5.0]
    np.testing.assert_allclose(n_sum_samples(waits, 2), [3.0, 5.0, 7.0, 9.0])
    np.testing.assert_allclose(n_sum_samples(waits, 5), [15.0])
    copy = n_sum_samples(waits, 1)
    copy[0] = -1.0
    assert waits[0] == 1.0
    with pytest.raises(ValueError, match="at least 3"):
        n_sum_samples([1.0, 2.0], 3)
    with pytest.raises(ValueError, match=">= 1"):
        n_sum_samples(waits, 0)


# ---------------------------------------------------------------------- MI --


def test_mi_independent_waits_is_within_bias():
    rng = np.random.default_rng(23)
    waits = rng.exponential(1.0, size=30000)
    mi = pairwise_mutual_information(waits, 1)
    bound = mi_bias_bound(waits.size - 1)
    assert 0.0 <= mi < 2.5 * bound


def test_mi_perfect_alternation_is_ln2():
    waits = np.tile([1.0, 3.0], 2000)
    mi = pairwise_mutual_information(waits, 1)
    assert mi == pytest.approx(math.log(2.0), abs=2e-3)


def test_mi_validation():
    with pytest.raises(ValueError, match=">= 1"):
        pairwise_mutual_information(np.ones(5000), 0)
    with pytest.raises(ValueError, match="need more than"):
        pairwise_mutual_information(np.ones(900), 1)


def test_mi_bias_bound_formula():
    k = 30000
    b = int(math.ceil(k ** (1 / 3)))
    assert mi_bias_bound(k) == pytest.approx((b - 1) ** 2 / (2 * k))
    with pytest.raises(ValueError):
        mi_bias_bound(1)


# ----------------------------------------------------------------- bootstrap --


def test_bootstrap_constant_series():
    se = block_bootstrap_se(np.full(500, 3.3), np.mean, block=25)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_bootstrap_iid_mean_matches_clt():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2000)
    se = block_bootstrap_se(x, np.mean, block=1, n_boot=400, seed=4)
    assert se == pytest.approx(x.std() / math.sqrt(x.size), rel=0.15)


def test_bootstrap_determinism_and_validation():
    x = np.arange(100.0)
    a = block_bootstrap_se(x, np.mean, block=10, seed=2)
    b = block_bootstrap_se(x, np.mean, block=10, seed=2)
    assert a == b
    with pytest.raises(ValueError, match="block"):
        block_bootstrap_se(x, np.mean, block=0)
    with pytest.raises(ValueError, match="block"):
        block_bootstrap_se(x, np.mean, block=101)


@pytest.mark.parametrize("seed", [0, 2, 4, 2**63 + 5])
def test_bootstrap_draws_from_the_member_stream_rule(seed):
    # the Philox key [seed, 0] this function built itself before it drew
    # from langevin._stream(seed, 0): the same SE, bit for bit
    x = np.random.default_rng(3).standard_normal(300).cumsum()
    key = np.array([seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    reps = np.empty(50)
    for i in range(50):
        starts = rng.integers(0, x.size - 7 + 1, size=math.ceil(x.size / 7))
        reps[i] = np.mean(x[(starts[:, None] + np.arange(7)).ravel()[: x.size]])
    assert block_bootstrap_se(x, np.mean, block=7, n_boot=50, seed=seed) == reps.std(ddof=1)
