"""Adaptive panel quadrature: exactness, error control, vector integrands,
and the node-order sums of the Kronrod panel rule."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nemclock import quadrature
from nemclock.quadrature import QuadratureError, QuadResult, integrate, kronrod


def test_constant_over_interval_is_exact():
    res = integrate(kronrod(lambda E: np.ones_like(E)), -1.0, 1.0)
    assert res.value == pytest.approx(2.0, abs=1e-14)
    assert res.panels >= 1
    assert res.evaluations >= 15


def test_polynomial_exactness():
    # a single Gauss-Kronrod panel integrates low-degree polynomials exactly
    res = integrate(kronrod(lambda E: 3 * E**2 + 2 * E + 1), 0.0, 2.0)
    assert res.value == pytest.approx(8.0 + 4.0 + 2.0, rel=1e-14)


def test_oscillatory_zero_integral_needs_atol():
    res = integrate(kronrod(np.sin), 0.0, 10 * math.pi, rtol=1e-10, atol=1e-10)
    assert abs(res.value) < 1e-9


def test_zero_function_with_atol():
    res = integrate(kronrod(lambda E: np.zeros_like(E)), -5.0, 5.0, atol=1e-12)
    assert res.value == 0.0


def test_narrow_lorentzian_matches_scipy():
    width = 1e-3
    center = 0.37

    def f(E):
        return width / ((E - center) ** 2 + width**2)

    ours = integrate(kronrod(f), -10.0, 10.0, rtol=1e-10, breakpoints=[center])
    ref, _ = quad(f, -10.0, 10.0, points=[center], limit=200)
    assert ours.value == pytest.approx(ref, rel=1e-9)


def test_breakpoints_are_honored_outside_range():
    # breakpoints outside [lower, upper] must be ignored, not crash
    res = integrate(kronrod(lambda E: np.exp(-E * E)), 0.0, 1.0, breakpoints=[-5.0, 7.0])
    ref, _ = quad(lambda E: math.exp(-E * E), 0.0, 1.0)
    assert res.value == pytest.approx(ref, rel=1e-9)


def test_vector_integrand_components_match_scalar_runs():
    def pair(E):
        E = np.asarray(E)
        return np.stack([np.sin(E), np.cos(E)], axis=0)

    both = integrate(kronrod(pair), 0.0, 1.0, rtol=1e-11)
    s = integrate(kronrod(np.sin), 0.0, 1.0, rtol=1e-11)
    c = integrate(kronrod(np.cos), 0.0, 1.0, rtol=1e-11)
    assert both.value[0] == pytest.approx(s.value, rel=1e-10)
    assert both.value[1] == pytest.approx(c.value, rel=1e-10)
    assert both.value[0] == pytest.approx(1.0 - math.cos(1.0), rel=1e-10)
    assert both.value[1] == pytest.approx(math.sin(1.0), rel=1e-10)


def test_error_estimate_bounds_true_error():
    def f(E):
        return np.exp(-E * E) * np.cos(3 * E)

    res = integrate(kronrod(f), -8.0, 8.0, rtol=1e-9)
    ref, _ = quad(lambda E: math.exp(-E * E) * math.cos(3 * E), -8.0, 8.0)
    assert abs(res.value - ref) <= max(10.0 * float(np.max(res.error)), 1e-12)


def test_panel_budget_exhaustion_raises():
    def nasty(E):
        return np.abs(np.asarray(E)) ** -0.5 if np.all(E != 0) else np.zeros_like(E)

    with pytest.raises(QuadratureError):
        integrate(
            kronrod(lambda E: 1.0 / np.sqrt(np.abs(E) + 1e-300)),
            0.0,
            1.0,
            rtol=1e-14,
            max_panels=2,
        )


def _panel_errors(heights, error_rates):
    """A panel rule for constants of the given heights whose every panel
    reports an error of its width times the given rate, so that splitting
    never meets the per-panel bar and the summed error stays fixed."""
    heights, error_rates = np.asarray(heights)[:, None], np.asarray(error_rates)[:, None]

    def rule(lo, hi):
        width = (hi - lo)[None, :]
        return heights * width, error_rates * width

    return rule


def test_spent_budget_returns_an_estimate_whose_summed_error_meets_tolerance():
    # each panel misses tol/(2 n) while the sum, 0.75 tol, meets tol
    rule = _panel_errors([1000.0, 1.0], [0.75e-8 * 1000.0, 0.75e-8])
    res = integrate(rule, 0.0, 1.0, rtol=1e-8, max_panels=64)
    assert res.value == pytest.approx([1000.0, 1.0], rel=1e-14)
    assert res.error == pytest.approx([0.75e-5, 0.75e-8], rel=1e-12)
    assert 32 < res.panels <= 64


def test_spent_budget_names_the_component_furthest_from_its_tolerance():
    # the first component has the larger error and the larger tolerance; the
    # second misses its own tolerance by 2x, and is the one reported
    rule = _panel_errors([1000.0, 1.0], [0.75e-8 * 1000.0, 2e-8])
    with pytest.raises(QuadratureError) as info:
        integrate(rule, 0.0, 1.0, rtol=1e-8, max_panels=64)
    assert info.value.achieved == pytest.approx(2e-8, rel=1e-12)
    assert info.value.requested == pytest.approx(1e-8, rel=1e-12)


def test_reversed_bounds_rejected():
    with pytest.raises(ValueError):
        integrate(kronrod(np.sin), 1.0, -1.0)


def test_result_is_structured():
    res = integrate(kronrod(np.cos), 0.0, 1.0)
    assert isinstance(res, QuadResult)
    assert res.evaluations >= 15 * res.panels


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=6
    ),
    a=st.floats(min_value=-4, max_value=3.5, allow_nan=False),
    width=st.floats(min_value=0.1, max_value=5, allow_nan=False),
)
def test_random_polynomials_match_antiderivative(coeffs, a, width):
    b = a + width
    poly = np.polynomial.Polynomial(coeffs)
    anti = poly.integ()
    res = integrate(kronrod(lambda E: poly(E)), a, b, rtol=1e-11, atol=1e-11)
    exact = anti(b) - anti(a)
    assert res.value == pytest.approx(exact, rel=1e-9, abs=1e-9)


# ------------------------------------------------------- node-order sums --


def _reference_rule(f, lo, hi):
    """The Kronrod rule of one scalar integrand, one panel at a time, summed
    by a Python loop over the nodes in order."""
    kron, err = [], []
    for a, b in zip(lo, hi):
        points, half = quadrature.panel_nodes(np.array([a]), np.array([b]))
        vals = [float(v) for v in f(points)]
        k_sum = g_sum = 0.0
        for k in range(15):
            k_sum = k_sum + vals[k] * float(quadrature._KRONROD_W[k])
        for j in range(7):
            g_sum = g_sum + vals[2 * j + 1] * float(quadrature._GAUSS_W[j])
        k_est = k_sum * float(half[0])
        kron.append(k_est)
        err.append(abs(k_est - g_sum * float(half[0])))
    return np.array(kron), np.array(err)


def _integrand(E):
    return np.exp(-E * E) * np.cos(3.0 * E) + 1.0 / (1.0 + 40.0 * E * E)


def _panels(count, seed):
    edges = np.sort(np.random.default_rng(seed).uniform(-4.0, 4.0, count + 1))
    return edges[:-1], edges[1:]


def test_kronrod_rule_sums_in_node_order():
    # node values of both signs and many sizes, so that a sum taken in
    # another order rounds differently on some panels

    def rough(E):
        return np.sin(1e3 * E) * np.exp(E)

    lo, hi = _panels(200, 1)
    kron, err = kronrod(rough)(lo, hi)
    ref_kron, ref_err = _reference_rule(rough, lo, hi)
    assert np.array_equal(kron, ref_kron)
    assert np.array_equal(err, ref_err)


@pytest.mark.parametrize("count", [1, 2, 7, 40, 129])
def test_kronrod_rule_does_not_depend_on_the_batch(count):
    # a panel's bits are its own: alone, or anywhere in a batch of any size
    rng = np.random.default_rng(count)
    lo, hi = _panels(count, count)

    def family(E):
        return np.stack([_integrand(E), np.sin(5.0 * E), E**3])

    rule = kronrod(family)
    kron, err = rule(lo, hi)
    assert kron.shape == err.shape == (3, count)
    for i in range(count):
        one_kron, one_err = rule(lo[i:i + 1], hi[i:i + 1])
        assert np.array_equal(one_kron[:, 0], kron[:, i])
        assert np.array_equal(one_err[:, 0], err[:, i])
    order = rng.permutation(count)
    shuffled_kron, shuffled_err = rule(lo[order], hi[order])
    assert np.array_equal(shuffled_kron, kron[:, order])
    assert np.array_equal(shuffled_err, err[:, order])


def test_integrate_takes_a_panel_rule():
    # any callable (lo, hi) -> (kron, err) drives the same refinement loop
    calls = []

    def rule(lo, hi):
        calls.append(lo.size)
        return kronrod(np.cos)(lo, hi)

    res = integrate(rule, 0.0, 1.0, breakpoints=[0.25, 0.5])
    assert calls[0] == 3
    assert res.panels == calls[0] + sum(calls[1:]) // 2
    assert res.value == pytest.approx(math.sin(1.0), rel=1e-12)
