from dataclasses import dataclass, field

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import quad

from besselriesz import auxfn
from besselriesz.auxfn import (
    _EVAL_BLOCK,
    IDX11,
    IDX20,
    IDX21,
    PROFILES,
    _B_integrals,
    AuxIndex,
    F,
    F_batch,
    F_decomposed_batch,
    TabulatedF,
    _tail_integrals,
    _taylor_remainder,
    c_coeff,
    derivative_bound_probe,
    f_zero,
    table_nodes,
)
from besselriesz.quadrature import geometric_breaks, panel_integral
from besselriesz.special import ModelParams, gamma, gen_binomial

P11 = ModelParams(n=1, lam=1.0, k=1)


def G(idx: AuxIndex, p: ModelParams, x: float) -> float:
    """Difference quotient (F(x) - F(0)) / x for x > 0."""
    if not x > 0:
        raise ValueError("G requires x > 0")
    return (F(idx, p, x) - f_zero(idx, p)) / x


def a_coeff(l: int, j: int, p: ModelParams) -> float:
    """Log-term coefficient 2 * binom(-lam-n/2-1, j+l-n/2-1), nonzero only when
    n is even and j+l-n/2-1 is a positive integer."""
    if p.n % 2 == 1:
        return 0.0
    m = j + l - p.n // 2 - 1
    if m < 1:
        return 0.0
    return 2.0 * gen_binomial(-p.lam - p.n / 2 - 1.0, m)


@dataclass
class AuxDecomposition:
    """The even-n log term of the small-argument decomposition:
    ``P_log`` is the polynomial of the tails' log-term coefficients."""

    idx: AuxIndex
    params: ModelParams
    C_coeffs: list = field(init=False)
    a_coeffs: list = field(init=False)
    P_log: Polynomial = field(init=False)

    def __post_init__(self):
        p, l, k = self.params, self.idx.l, self.idx.k
        self.C_coeffs = [(j, c_coeff(p, l, j)) for j in range(p.n + 3)]
        self.a_coeffs = [a_coeff(l, j, p) for j in range(p.n + 3)]
        coeffs = np.zeros((k + 2 * l - 2) + 2 * (p.n + 2) + 1)
        for j, cj in self.C_coeffs:
            coeffs[(k + 2 * l - 2) + 2 * j] += cj * self.a_coeffs[j]
        self.P_log = Polynomial(coeffs)


def test_aux_index_validation():
    with pytest.raises(ValueError):
        AuxIndex(1, 0)
    with pytest.raises(ValueError):
        AuxIndex(2, 2)


def test_zero_limits_vanish_for_l1():
    assert abs(f_zero(IDX11, P11)) <= 1e-8
    assert abs(f_zero(IDX21, P11)) <= 1e-8


def test_f20_zero_limit_matches_beta_closed_form():
    # closed form Gamma(lam) Gamma(n/2+1) / (2 Gamma(lam+n/2+1)); confirmed
    # against the defining integral before being adopted as the oracle
    for n in (1, 2):
        for lam in (0.5, 1.0, 1.5):
            p = ModelParams(n=n, lam=lam, k=1)
            closed = gamma(lam) * gamma(n / 2 + 1) / (2 * gamma(lam + n / 2 + 1))
            errs = [abs(F(IDX20, p, x) - closed) for x in (1e-2, 1e-3, 1e-4)]
            assert errs[0] > errs[1] > errs[2]  # numerical limit approaches it
            assert f_zero(IDX20, p) == pytest.approx(closed, rel=1e-6, abs=0)


def test_f20_zero_is_one_third_for_n1_lam1():
    assert f_zero(IDX20, P11) == pytest.approx(1.0 / 3.0, rel=1e-9, abs=0)


def test_f_positive_and_decaying():
    for idx in (IDX20, IDX11, IDX21):
        vals = [F(idx, P11, x) for x in (0.05, 0.3, 1.0, 5.0, 50.0)]
        assert all(v > 0 for v in vals)
        assert vals[-1] < vals[-2]


def test_f_against_independent_scipy_quadrature():
    # direct adaptive quadrature of the defining integral, independent rule
    for idx in (IDX20, IDX11, IDX21):
        for x in (0.3, 1.2):
            p = ModelParams(n=2, lam=0.75, k=1)
            ref, _ = quad(
                lambda t: (x * x + 2 * t) ** (-p.lam - p.n / 2 - 1)
                * (2 * t - t * t) ** (p.lam - 1)
                * t**idx.l,
                0.0,
                2.0,
                epsabs=1e-13,
                epsrel=1e-12,
                points=[0.0, 2.0],
            )
            assert F(idx, p, x) == pytest.approx(x ** (p.n + idx.k) * ref, rel=1e-9, abs=0)


def test_g_defining_identity():
    for idx in (IDX20, IDX11, IDX21):
        for x in (0.05, 0.4, 1.1, 2.0):
            lhs = G(idx, P11, x) * x + f_zero(idx, P11)
            assert lhs == pytest.approx(F(idx, P11, x), abs=1e-12)


def test_g_of_l1_is_f_over_x():
    x = 0.37
    assert G(IDX11, P11, x) == pytest.approx(F(IDX11, P11, x) / x, rel=1e-7, abs=0)


def test_g_cauchy_near_zero():
    vals = [G(IDX20, ModelParams(n=1, lam=1.0, k=1), x) for x in (1e-1, 1e-2, 1e-3)]
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])


def test_decomposition_matches_direct():
    for n in (1, 2):
        for lam in (0.5, 1.5):
            p = ModelParams(n=n, lam=lam, k=1)
            for idx in (IDX20, IDX11, IDX21):
                for x in (0.1, 0.5, 1.0):
                    decomposed = F_decomposed_batch(p, [x], (idx,))[idx][0]
                    assert abs(F(idx, p, x) - decomposed) <= 1e-8


def _decomposition_per_index(idx, p, x):
    # the per-index composition that the batched route replaced: A, B and
    # every C_tail of one index at one x, each its own quadrature
    n, lam, k, l = p.n, p.lam, idx.k, idx.l
    power = -lam - n / 2 - 1.0
    A = panel_integral(lambda t: (x * x + 2.0 * t) ** power * t ** (lam + l - 1.0),
                       (0.5, 2.0), beta=lam - 1.0)

    def g_B(t):
        rem = _taylor_remainder(lam, n + 2, -0.5 * t)
        return (x * x + 2.0 * t) ** power * 2.0 ** (lam - 1.0) * rem * t**l

    B = x**n * panel_integral(g_B, geometric_breaks(min(max(x * x, 1e-12), 0.5), 0.5),
                              alpha=lam - 1.0)
    tail = 0.0
    for j in range(n + 3):
        e = n / 2 - j - l
        near = 0.0
        if x * x < 1.0:
            near = panel_integral(lambda s: (s + 1.0) ** power * s**e,
                                  geometric_breaks(x * x, 1.0)[1:])
        far = panel_integral(lambda u: (1.0 + u) ** power, (0.0, 1.0),
                             alpha=lam + j + l - 1.0)
        tail += c_coeff(p, l, j) * (x ** (2 * j) * (near + far))
    return x ** (n + k) * A + x**k * B + x ** (k + 2 * l - 2) * tail


def test_batched_decomposition_matches_per_index_composition():
    # a repeated x and the x >= 1/sqrt(2) that share B's panel layout
    # exercise the grouping by breaks
    xs = [1e-3, 0.05, 0.3, 0.3, 0.5, 0.75, 0.9, 1.0]
    for n in (1, 2):
        for lam in (0.5, 1.0, 1.5):
            p = ModelParams(n=n, lam=lam, k=1)
            got = F_decomposed_batch(p, xs, (IDX20, IDX11, IDX21))
            for idx in (IDX20, IDX11, IDX21):
                for x, v in zip(xs, got[idx]):
                    want = _decomposition_per_index(idx, p, x)
                    assert v == pytest.approx(want, rel=1e-14, abs=0), (n, lam, idx, x)
                    alone = F_decomposed_batch(p, [x], (idx,))[idx][0]
                    assert alone == pytest.approx(want, rel=1e-14, abs=0)


def test_decomposition_shares_panel_layouts(monkeypatch):
    # the auxfn pipeline's x: B on one panel layout and the near tails on
    # one more, instead of a layout per distinct x (115 rule builds cold);
    # the values stay the per-layout composition's to rounding
    from functools import lru_cache

    from besselriesz import quadrature

    built = []
    rule = quadrature._panel_rule.__wrapped__

    def counting(*args):
        built.append(args)
        return rule(*args)

    monkeypatch.setattr(quadrature, "_panel_rule", lru_cache(maxsize=256)(counting))
    monkeypatch.setattr(auxfn, "_far_tails", lru_cache(maxsize=64)(auxfn._far_tails.__wrapped__))
    p = ModelParams(n=1, lam=1.0, k=2)
    xs = np.concatenate([np.geomspace(1e-3, 0.1, 7), np.linspace(0.15, 1.0, 18)])
    got = F_decomposed_batch(p, xs, (IDX20, IDX11, IDX21))
    assert len(built) <= 12
    assert len({args[0] for args in built}) == 1 + 1 + 1 + 1  # A, B, near, far (0, 1)
    for idx in (IDX20, IDX11, IDX21):
        for x, v in zip(xs, got[idx]):
            assert v == pytest.approx(_decomposition_per_index(idx, p, x), rel=0, abs=1e-15)


def test_decomposition_rejects_x_outside_unit_interval():
    for x in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            F_decomposed_batch(P11, [x], (IDX20,))
    with pytest.raises(ValueError):
        F_decomposed_batch(P11, [0.5, 1.5], (IDX20,))


def test_c_tail_oracle():
    ref, _ = quad(lambda s: (s + 1) ** -2.5 * s**0.5, 1.0, np.inf)
    tail = _tail_integrals(P11, np.array([1.0]), (0,), (0,))[0, 0, 0]
    assert tail == pytest.approx(ref, rel=1e-12, abs=0)


def test_b_part_finite_at_zero():
    assert np.all(np.isfinite(_B_integrals(P11, np.array([0.0]), (0, 1))))


def test_a_coeff_odd_dimension_vanishes():
    for l in (0, 1):
        for j in range(4):
            assert a_coeff(l, j, P11) == 0.0


def test_a_coeff_even_dimension():
    p = ModelParams(n=2, lam=1.3, k=1)
    # vanishes when j + l < n/2 + 1
    assert a_coeff(0, 1, p) == 0.0
    # indicator argument j + l - n/2 - 1 = 0 is not a positive integer
    assert a_coeff(1, 1, p) == 0.0
    # first nonzero case
    assert a_coeff(1, 2, p) != 0.0


def test_log_polynomial_flat_at_zero():
    for n in (1, 2):
        p = ModelParams(n=n, lam=0.8, k=1)
        for idx in (IDX20, IDX11, IDX21):
            P = AuxDecomposition(idx, p).P_log
            assert P(0.0) == 0.0
            assert P.deriv()(0.0) == 0.0


def test_smooth_extension_odd_dimension():
    # for odd n the profile extends smoothly to 0: Richardson-extrapolated
    # derivative estimates of orders 0..2 converge
    p = ModelParams(n=1, lam=0.75, k=1)
    for idx in (IDX20, IDX11):
        for order in (0, 1, 2):
            estimates = []
            for h in (0.08, 0.04, 0.02, 0.01):
                if order == 0:
                    coarse, fine = F(idx, p, 2 * h), F(idx, p, h)
                elif order == 1:
                    coarse = (F(idx, p, 3 * h) - F(idx, p, h)) / (2 * h)
                    fine = (F(idx, p, 2.5 * h) - F(idx, p, 1.5 * h)) / h
                else:
                    coarse = (F(idx, p, 4 * h) - 2 * F(idx, p, 2.5 * h) + F(idx, p, h)) / (1.5 * h) ** 2
                    fine = (F(idx, p, 3 * h) - 2 * F(idx, p, 2 * h) + F(idx, p, h)) / h**2
                estimates.append(2 * fine - coarse)
            diffs = np.abs(np.diff(estimates))
            assert diffs[-1] < diffs[0] + 1e-12


def test_envelope_probe_bounded():
    xs = np.logspace(1, 3, 17)
    for idx in (IDX20, IDX11, IDX21):
        for j in (0, 1, 2):
            rep = derivative_bound_probe(idx, P11, j, xs)
            assert rep.bounded
            assert np.all(np.isfinite(rep.decade_sups))


def test_envelope_probe_small_x_right_limit():
    # F(2,0) stays bounded approaching 0 (right limit exists)
    vals = [F(IDX20, P11, x) for x in (1e-1, 1e-2, 1e-3)]
    assert np.all(np.isfinite(vals))
    assert abs(vals[-1] - 1.0 / 3.0) < abs(vals[0] - 1.0 / 3.0)


def test_envelope_probe_mid_range_first_derivative():
    xs = np.logspace(0, 2, 17)
    rep = derivative_bound_probe(IDX11, P11, 1, xs)
    assert rep.bounded


def test_f_table_accuracy():
    table = TabulatedF(P11, 3.0)
    rng = np.random.default_rng(0)
    hs = np.concatenate([rng.uniform(0, 0.2, 40), rng.uniform(0.2, 3.0, 40)])
    direct = np.array([F(IDX20, P11, h) for h in hs])
    assert np.allclose(table((IDX20,), hs)[0], direct, rtol=1e-9, atol=1e-12)


def test_f_table_rejects_out_of_range():
    table = TabulatedF(P11, 1.0)
    with pytest.raises(ValueError):
        table((IDX20,), np.array([1.5]))


@pytest.mark.parametrize("h_max", [0.3, 1.0, 3.0])
def test_f_table_equals_scipy_cubic_spline(h_max):
    # the package's not-a-knot cubic is CubicSpline's, bit for bit, for each
    # profile: the same coefficients, and the same values at random points,
    # at every node and at each node's 1-ulp neighbours inside the table
    from scipy.interpolate import CubicSpline

    nodes = table_nodes(h_max)
    values = F_batch(P11, nodes, PROFILES)
    table = TabulatedF(P11, h_max)
    assert np.array_equal(table.nodes, nodes)
    rng = np.random.default_rng(7)
    # longer than one evaluation block and not a multiple of it
    hs = rng.uniform(0.0, nodes[-1], 2 * _EVAL_BLOCK + 123)
    ulp_below = np.nextafter(nodes[1:], -np.inf)
    ulp_above = np.nextafter(nodes[:-1], np.inf)
    splines = {idx: CubicSpline(nodes, values[idx]) for idx in PROFILES}
    for idx, spline in splines.items():
        assert np.array_equal(table.coeffs[idx], spline.c)
    for pts in (hs, nodes, ulp_below, ulp_above, hs[:600].reshape(20, 30)):
        for idx, got in zip(PROFILES, table(PROFILES, pts)):
            spline = splines[idx]
            assert got.shape == pts.shape
            assert np.array_equal(got, spline(pts))
            # one profile alone reads the same bits as with the others
            assert np.array_equal(table((idx,), pts)[0], got)


def test_f_table_finds_each_piece_once_for_every_profile(monkeypatch):
    table = TabulatedF(P11, 3.0)
    hs = np.random.default_rng(3).uniform(0.0, 3.0, 2 * _EVAL_BLOCK + 5)
    searched = []
    piece = table._piece

    def counting_piece(h):
        searched.append(len(h))
        return piece(h)

    monkeypatch.setattr(table, "_piece", counting_piece)
    assert len(table(PROFILES, hs)) == 3
    assert searched == [_EVAL_BLOCK, _EVAL_BLOCK, 5]
