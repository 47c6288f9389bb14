import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from besselriesz.quadrature import (
    QuadratureError,
    _panel_rule,
    gauss_legendre_box,
    gegenbauer_integral,
    geometric_breaks,
    panel_integral,
)


@pytest.mark.parametrize("lam", [0.3, 0.5, 1.0, 1.7])
def test_gegenbauer_integral_constant(lam):
    # integral of (2t - t^2)^(lam-1) over (0, 2) is 2^(2 lam - 1) B(lam, lam)
    exact = 2.0 ** (2 * lam - 1) * beta_fn(lam, lam)
    val = gegenbauer_integral(lambda t: np.ones_like(t), lam)
    assert val == pytest.approx(exact, rel=1e-13)


def test_gegenbauer_integral_polynomial():
    lam = 0.8
    exact, _ = quad(
        lambda t: (2 * t - t * t) ** (lam - 1) * (t**3 - 2 * t + 5),
        0.0, 2.0, points=[0.0, 2.0], epsabs=1e-14, epsrel=1e-13,
    )
    val = gegenbauer_integral(lambda t: t**3 - 2 * t + 5, lam)
    assert val == pytest.approx(exact, rel=1e-12)


def test_gegenbauer_integral_peaked():
    # sharply peaked factor at t = 0 handled through the graded panels;
    # reference from 30-digit quadrature with explicit scale splitting
    # (plain scipy.quad loses 1.5% here and warns about roundoff)
    lam, eps = 0.6, 1e-8
    exact = 5.037694370628565
    val = gegenbauer_integral(lambda t: (eps + t) ** -0.4, lam, peak_scale=eps)
    assert val == pytest.approx(exact, rel=1e-12)


def test_gegenbauer_fixed_order_smooth_in_parameter():
    # fixed-order rule: the value is differentiable in parameters of g
    lam = 1.2
    vals = [
        gegenbauer_integral(lambda t: np.exp(-b * t), lam, fixed_order=64)
        for b in (2.0, 2.0 + 1e-7)
    ]
    assert abs(vals[1] - vals[0]) < 1e-6


def test_gegenbauer_nonconvergence_reports_estimate():
    rng = np.random.default_rng(0)
    with pytest.raises(QuadratureError) as err:
        gegenbauer_integral(lambda t: rng.standard_normal(t.shape), 0.9)
    assert err.value.error_estimate > 0


def test_panel_nodes_memoized_and_read_only():
    breaks = (0.0, 0.25, 1.0, 2.0)
    t1, w1 = _panel_rule(breaks, -0.2, -0.2, 32)
    t2, w2 = _panel_rule(tuple(np.array(breaks)), -0.2, -0.2, 32)
    assert t1 is t2 and w1 is w2
    with pytest.raises(ValueError):
        w1[0] = 0.0


def test_panel_integral_left_weight():
    exact, _ = quad(lambda t: np.cos(t) * t**-0.3, 0.0, 1.0, points=[0.0])
    val = panel_integral(np.cos, np.array([0.0, 0.25, 1.0]), alpha=-0.3)
    assert val == pytest.approx(exact, rel=1e-12)


def test_panel_integral_right_weight():
    # substituting u = 2 - t gives e^2 * lower incomplete gamma(1/2, 1.5)
    from scipy.special import gammainc

    exact = np.exp(2.0) * np.sqrt(np.pi) * gammainc(0.5, 1.5)
    val = panel_integral(np.exp, (0.5, 2.0), beta=-0.5)
    assert val == pytest.approx(exact, rel=1e-12)


def test_panel_integral_unweighted_panels():
    breaks = geometric_breaks(1e-4, 1.0)[1:]
    exact, _ = quad(lambda s: 1.0 / (s + s * s), breaks[0], 1.0, epsrel=1e-13)
    val = panel_integral(lambda s: 1.0 / (s + s * s), breaks)
    assert val == pytest.approx(exact, rel=1e-11)


@pytest.mark.parametrize("breaks", [(0.5, 1.0, 2.0, 3.0), (0.5, 3.0)])
@pytest.mark.parametrize("fixed_order", [None, 64])
def test_panel_integral_both_endpoint_weights(breaks, fixed_order):
    # first, interior and last panels (or one panel carrying both factors) on
    # an interval that does not start at 0; u = (t - 0.5) / 2.5 gives a Beta
    exact = 2.5**1.1 * beta_fn(0.7, 1.4)
    val = panel_integral(
        np.ones_like, breaks, alpha=-0.3, beta=0.4, fixed_order=fixed_order
    )
    assert val == pytest.approx(exact, rel=1e-12)


def test_geometric_breaks_structure():
    b = geometric_breaks(1e-3, 1.0)
    assert b[0] == 0.0 and b[1] == 1e-3 and b[-1] == 1.0
    assert np.all(np.diff(b) > 0)


def test_gauss_legendre_box_polynomial_exactness():
    rule = gauss_legendre_box([(0.0, 2.0), (-1.0, 3.0)], 8)
    val = float(np.dot(rule.weights, rule.nodes[:, 0] ** 3 * rule.nodes[:, 1] ** 2))
    exact = (2.0**4 / 4.0) * ((3.0**3 + 1.0) / 3.0)
    assert val == pytest.approx(exact, rel=1e-14)
    assert rule.weights.sum() == pytest.approx(8.0, rel=1e-14)
