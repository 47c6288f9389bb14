import numpy as np
import pytest

from besselriesz.discretize import make_grid
from besselriesz.sobolev import directional_seminorm, sobolev_seminorm, sphere_rule
from besselriesz.symbols import (
    constant_symbol,
    coordinate_symbol,
    coordinate_window,
    cosine_bump,
    gaussian_bump,
    scale_symbol,
    translate_symbol,
)

UNIT_BOX = make_grid([(0.0, 1.0), (1.0, 2.0)], (32, 32))


def _sphere_monomial_exact(alpha):
    # integral over S^n of prod s_i^alpha_i: zero for any odd power, else
    # 2 prod Gamma((a_i+1)/2) / Gamma((|a|+n+1)/2)
    from scipy.special import gamma

    if any(a % 2 for a in alpha):
        return 0.0
    num = 2.0 * np.prod([gamma((a + 1) / 2) for a in alpha])
    return num / gamma((sum(alpha) + len(alpha)) / 2)


@pytest.mark.parametrize("n", [1, 2])
def test_sphere_rule_weights_and_polynomial_exactness(n):
    rule = sphere_rule(n, 64)
    surface = 2 * np.pi if n == 1 else 4 * np.pi
    assert abs(rule.weights.sum() - surface) <= 1e-10
    rng = np.random.default_rng(0)
    for _ in range(25):
        alpha = rng.integers(0, 5, size=n + 1)
        quad = float(np.dot(rule.weights, np.prod(rule.nodes**alpha, axis=-1)))
        assert quad == pytest.approx(_sphere_monomial_exact(alpha), abs=1e-10)


def test_sphere_rule_unsupported_dimension():
    with pytest.raises(NotImplementedError):
        sphere_rule(3)


def test_seminorms_vanish_on_constants():
    rule = sphere_rule(1)
    c = constant_symbol(4.2)
    assert sobolev_seminorm(c, 2.0, UNIT_BOX) == 0.0
    assert directional_seminorm(c, 1, 2.0, UNIT_BOX, rule) == 0.0


def test_sobolev_coordinate_function():
    f = coordinate_symbol(0, 2)
    assert sobolev_seminorm(f, 2.0, UNIT_BOX) == pytest.approx(1.0, rel=1e-12, abs=0)


def test_directional_coordinate_oracle():
    # f = x_1, k = 1, p = 2 on a unit-volume box: the sphere integral of
    # (1 - s_1^2)^2 = s_2^4 over the circle is 3 pi / 4
    f = coordinate_symbol(0, 2)
    rule = sphere_rule(1, 128)
    val = directional_seminorm(f, 1, 2.0, UNIT_BOX, rule)
    assert val == pytest.approx(np.sqrt(3 * np.pi / 4), rel=1e-12, abs=0)


def test_seminorm_homogeneity():
    f = gaussian_bump([0.5, 1.5], 0.2)
    rule = sphere_rule(1)
    for c in (-3.0, 0.5):
        g = scale_symbol(f, c)
        assert sobolev_seminorm(g, 2.0, UNIT_BOX) == pytest.approx(
            abs(c) * sobolev_seminorm(f, 2.0, UNIT_BOX), rel=1e-12, abs=0
        )
        assert directional_seminorm(g, 1, 2.0, UNIT_BOX, rule) == pytest.approx(
            abs(c) * directional_seminorm(f, 1, 2.0, UNIT_BOX, rule), rel=1e-12, abs=0
        )


def test_translation_invariance_improves_under_refinement():
    rule = sphere_rule(1)
    f = gaussian_bump([0.45, 1.5], 0.12)
    g = translate_symbol(f, [0.07, 0.0])  # parallel to the lateral coordinate
    gaps = []
    for m in (8, 32):
        box = make_grid([(0.0, 1.0), (1.0, 2.0)], (m, m))
        a = directional_seminorm(f, 1, 2.0, box, rule)
        b = directional_seminorm(g, 1, 2.0, box, rule)
        gaps.append(abs(a - b) / a)
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 1e-4


def test_equivalence_probe_bumps():
    # the two seminorms are equivalent: record the ratio over a family of
    # bumps and require the empirical constants to be stable under refinement
    rule = sphere_rule(1, 128)
    rng = np.random.default_rng(7)
    bumps = []
    for _ in range(10):
        center = [rng.uniform(0.35, 0.65), rng.uniform(1.3, 1.7)]
        if rng.uniform() < 0.5:
            bumps.append(gaussian_bump(center, rng.uniform(0.08, 0.16)))
        else:
            bumps.append(cosine_bump(center, rng.uniform(0.15, 0.3)))
    ratios = {}
    for m in (32, 64):
        box = make_grid([(0.0, 1.0), (1.0, 2.0)], (m, m))
        rs = [
            directional_seminorm(f, 1, 2.0, box, rule) / sobolev_seminorm(f, 2.0, box)
            for f in bumps
        ]
        ratios[m] = (min(rs), max(rs))
    for m, (lo, hi) in ratios.items():
        assert 0.1 < lo <= hi < 10.0
    assert ratios[32][0] == pytest.approx(ratios[64][0], rel=5e-3, abs=0)
    assert ratios[32][1] == pytest.approx(ratios[64][1], rel=5e-3, abs=0)


def test_symbol_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    pts = np.stack([rng.uniform(0.2, 0.8, 20), rng.uniform(1.2, 1.8, 20)], axis=-1)
    h = 1e-6
    for f in (
        gaussian_bump([0.5, 1.5], 0.2),
        cosine_bump([0.5, 1.5], [0.4, 0.4]),
        coordinate_window(1, [0.5, 1.5], 0.2),
    ):
        grad = f.grad(pts)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (f(pts + e) - f(pts - e)) / (2 * h)
            assert np.allclose(grad[:, i], fd, atol=1e-6)


def test_symbol_support_boxes_bound_the_leak():
    # outside its support box every symbol stays below 1e-4 of its peak; the
    # coordinate window peaks one width off center, so its box is wider along
    # its own axis than the Gaussian's
    t = np.linspace(-1.0, 1.0, 801)
    pts = np.stack(np.meshgrid(0.5 + t, 1.0 + t, indexing="ij"), axis=-1)
    for f in (
        gaussian_bump([0.5, 1.0], 0.1),
        cosine_bump([0.5, 1.0], [0.3, 0.2]),
        coordinate_window(0, [0.5, 1.0], 0.1),
        coordinate_window(1, [0.5, 1.0], 0.1),
    ):
        vals = np.abs(f(pts))
        outside = np.zeros(vals.shape, dtype=bool)
        for i, (lo, hi) in enumerate(f.support):
            outside |= (pts[..., i] < lo) | (pts[..., i] > hi)
        assert outside.any()
        assert vals[outside].max() <= 1e-4 * vals.max()
