import numpy as np
import pytest
from scipy.special import gamma as Gamma
from scipy.special import ive

from besselriesz.kernels import (
    DirectF,
    TabulatedF,
    commutator_kernel,
    gaussian_profile_kernel,
    heat_kernel,
    invsqrt_kernel_closed,
    invsqrt_kernel_subordination,
    prop35_rhs_kernel,
    q_t,
    ratio_bound_check,
    riesz_gaussian_check,
    riesz_kernel_bessel,
    riesz_kernel_classical,
    spectral_kernel,
    spectral_kernel_inverse_radial,
    symbol_H,
    symbol_a,
    symbol_b,
    symbol_h,
    symbol_K,
    taylor_local_check,
)
from besselriesz.quadrature import gauss_legendre_box
from besselriesz.special import ModelParams, model_constants
from besselriesz.symbols import constant_symbol, gaussian_bump

P1 = ModelParams(n=1, lam=1.0, k=1)
P2 = ModelParams(n=1, lam=1.0, k=2)
X = np.array([0.0, 1.0])
Y = np.array([0.0, 2.0])


def test_symbol_examples():
    assert symbol_H(X, X) == 0.0
    assert symbol_H(X, Y) == pytest.approx(1 / np.sqrt(2), rel=1e-15)
    assert symbol_a(X, Y) == pytest.approx(1 / np.sqrt(2), rel=1e-15)
    assert symbol_b(X, Y) == 1.0
    assert symbol_b(Y, X) == 0.0


def test_unit_direction_identity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x = np.array([rng.normal(), rng.uniform(0.1, 3)])
        y = np.array([rng.normal(), rng.uniform(0.1, 3)])
        if np.allclose(x, y):
            continue
        total = sum(symbol_h(m, x, y) ** 2 for m in (1, 2))
        assert total == pytest.approx(1.0, rel=1e-12)


def test_symbols_reject_coincident_points():
    with pytest.raises(ValueError):
        symbol_h(1, X, X)
    with pytest.raises(ValueError):
        symbol_K(1, X, X, 1.0)
    with pytest.raises(ValueError):
        invsqrt_kernel_closed(P1, X, X)


def test_q_t_dominates_separation():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = np.array([rng.normal(), rng.uniform(0.1, 3)])
        y = np.array([rng.normal(), rng.uniform(0.1, 3)])
        r2 = np.sum((x - y) ** 2)
        assert q_t(0.0, x, y) == pytest.approx(r2, rel=1e-15)
        for t in (0.3, 1.0, 2.0):
            assert q_t(t, x, y) > r2


def test_ratio_bound_boundary_pair():
    # pairs solving H = 1 with equal lateral coordinates sit exactly on the bound
    for sign in (+1, -1):
        x2 = (3 + sign * np.sqrt(5)) / 2
        x = np.array([0.3, x2])
        y = np.array([0.3, 1.0])
        assert symbol_H(x, y) == pytest.approx(1.0, rel=1e-12)
    rep = ratio_bound_check(10**4, seed=11)
    assert rep.violations == 0
    assert rep.bound_lo <= rep.ratio_min <= rep.ratio_max <= rep.bound_hi


def test_heat_kernel_symmetry_and_positivity():
    rng = np.random.default_rng(5)
    for s in (0.3, 1.0, 2.5):
        x = np.array([rng.normal(), rng.uniform(0.3, 2)])
        y = np.array([rng.normal(), rng.uniform(0.3, 2)])
        v = heat_kernel(P1, s, x, y)
        assert v > 0
        assert heat_kernel(P1, s, y, x) == pytest.approx(v, rel=1e-13)


def test_heat_kernel_against_bessel_closed_form():
    # independent oracle: the angular integral has a modified-Bessel closed form
    for lam in (0.5, 1.0, 1.7):
        p = ModelParams(n=1, lam=lam, k=1)
        c = model_constants(p)
        for s in (0.4, 1.1):
            beta = X[-1] * Y[-1] / (2 * s * s)
            closed = (
                c.kappa_lambda
                * s ** (-2 * lam - 2)
                * np.exp(-np.sum((X - Y) ** 2) / (4 * s * s))
                * np.sqrt(np.pi) * Gamma(lam) * (beta / 2) ** (0.5 - lam)
                * ive(lam - 0.5, beta)
            )
            assert heat_kernel(p, s, X, Y) == pytest.approx(closed, rel=1e-12)


def test_heat_kernel_mass_conservation():
    # the semigroup preserves constants: integrating the kernel against the
    # weighted measure over a growing box approaches 1
    p = ModelParams(n=1, lam=0.8, k=1)
    x = np.array([0.0, 1.2])
    masses = []
    for W in (2.0, 4.0, 7.0):
        rule = gauss_legendre_box([(-W, W), (max(1e-9, x[1] - W), x[1] + W)], 90)
        vals = np.array([heat_kernel(p, 0.6, x, yy) for yy in rule.nodes])
        masses.append(float(np.dot(rule.weights, vals * rule.nodes[:, 1] ** (2 * p.lam))))
    assert abs(masses[-1] - 1.0) < 1e-6
    assert abs(masses[-1] - 1.0) <= abs(masses[0] - 1.0)


def test_invsqrt_closed_symmetric_positive():
    for lam in (0.5, 1.0, 1.5):
        p = ModelParams(n=1, lam=lam, k=1)
        v = invsqrt_kernel_closed(p, X, Y)
        assert v > 0
        assert invsqrt_kernel_closed(p, Y, X) == pytest.approx(v, rel=1e-13)


def test_invsqrt_regression_anchor():
    # frozen anchor; for lam = 1 the t-integral is elementary and the value
    # is exactly 1/(6 pi)
    v = invsqrt_kernel_closed(P1, X, Y)
    assert v == pytest.approx(5.305164769729847e-02, rel=1e-10)
    assert v == pytest.approx(1.0 / (6 * np.pi), rel=1e-12)


def test_invsqrt_three_way_agreement_spot():
    x = np.array([0.1, 0.9])
    y = np.array([0.8, 1.7])
    for lam in (0.5, 1.5):
        p = ModelParams(n=1, lam=lam, k=1)
        a = invsqrt_kernel_closed(p, x, y)
        b = invsqrt_kernel_subordination(p, x, y)
        c = spectral_kernel_inverse_radial(p, x, y)
        assert b == pytest.approx(a, rel=1e-6)
        assert c == pytest.approx(a, rel=1e-3)


def test_spectral_kernel_gaussian_profile():
    x = np.array([0.2, 1.1])
    y = np.array([-0.4, 1.8])
    quadrature = spectral_kernel(P1, lambda r: np.exp(-(r**2)), x, y, rel_tol=1e-8)
    closed = gaussian_profile_kernel(P1, x, y)
    assert quadrature == pytest.approx(closed, rel=1e-7)
    assert gaussian_profile_kernel(P1, y, x) == pytest.approx(closed, rel=1e-13)


def test_spectral_kernel_diagonal_formula():
    # on the diagonal the kernel is the weighted integral of phi^2 against g
    from scipy.integrate import quad

    from besselriesz.special import phi_lambda

    xx = np.array([0.3, 1.4])
    inner, _ = quad(
        lambda u: np.exp(-u * u) * phi_lambda(1.0, 1.4 * u) ** 2 * u**2, 0, 8,
        epsabs=1e-14,
    )
    diag = (0.5 / np.pi) * np.sqrt(np.pi) * inner
    assert gaussian_profile_kernel(P1, xx, xx) == pytest.approx(diag, rel=1e-12)


def test_spectral_inverse_radial_requires_lateral_separation():
    with pytest.raises(ValueError):
        spectral_kernel_inverse_radial(P1, X, Y)  # x' == y'


def test_riesz_kernel_bessel_matches_gradient_of_invsqrt():
    x = np.array([0.1, 1.1])
    y = np.array([0.5, 1.9])
    for k in (1, 2):
        p = ModelParams(n=1, lam=1.0, k=k)
        h = 1e-5
        e = np.zeros(2)
        e[k - 1] = h
        fd = (invsqrt_kernel_closed(p, x + e, y) - invsqrt_kernel_closed(p, x - e, y)) / (2 * h)
        assert riesz_kernel_bessel(p, x, y) == pytest.approx(fd, rel=1e-5)


def test_riesz_kernel_bessel_lateral_antisymmetry():
    # swapping the k-th lateral coordinates flips the k <= n part
    x = np.array([0.3, 1.2])
    y = np.array([0.9, 1.2])
    xs = np.array([0.9, 1.2])
    ys = np.array([0.3, 1.2])
    v = riesz_kernel_bessel(P1, x, y)
    assert riesz_kernel_bessel(P1, xs, ys) == pytest.approx(-v, rel=1e-10)


def test_riesz_kernel_bessel_k_le_n_single_term():
    # for k <= n only the first term contributes: the kernel is F20(H) K_k
    f_eval = DirectF(P1)
    x = np.array([0.2, 0.8])
    y = np.array([-0.5, 1.4])
    c = model_constants(P1)
    from besselriesz.kernels import IDX20

    expected = -c.kappa2 * f_eval(IDX20, symbol_H(x, y)) * symbol_K(1, x, y, P1.lam)
    assert riesz_kernel_bessel(P1, x, y) == pytest.approx(expected, rel=1e-14)


def test_classical_riesz_kernel_examples():
    x = np.array([0.3, 1.0])
    y = np.array([0.3, 2.0])
    assert riesz_kernel_classical(1, 1, x, y) == 0.0  # x_l == y_l
    v = riesz_kernel_classical(1, 2, x, y)
    assert riesz_kernel_classical(1, 2, y, x) == pytest.approx(-v, rel=1e-15)


def test_classical_riesz_gaussian_oracle():
    # normalization check: kernel route vs Fourier multiplier route, <= 0.5%
    for l in (1, 2):
        point = np.array([0.7, 0.4]) if l == 1 else np.array([0.4, 0.9])
        spatial, mult = riesz_gaussian_check(n=1, l=l, point=point)
        assert spatial == pytest.approx(mult, rel=5e-3)


def test_commutator_kernel_basics():
    f = gaussian_bump([0.2, 1.3], 0.5)
    base = lambda a, b: riesz_kernel_bessel(P2, a, b)
    x = np.array([0.1, 1.1])
    y = np.array([0.6, 1.6])
    const = constant_symbol(3.3)
    assert commutator_kernel(base, const, x, y) == 0.0
    v = commutator_kernel(base, f, x, y)
    double = commutator_kernel(base, lambda pts: 2 * f(pts), x, y)
    assert double == pytest.approx(2 * v, rel=1e-15)


def test_commutator_lipschitz_bound():
    f = gaussian_bump([0.2, 1.3], 0.5)
    # crude Lipschitz constant of the bump: sup |grad| = amp/(w sqrt(e))
    lip = 1.0 / (0.5 * np.sqrt(np.e))
    rng = np.random.default_rng(6)
    base = lambda a, b: riesz_kernel_bessel(P2, a, b)
    for _ in range(10):
        x = np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2)])
        y = np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2)])
        if np.linalg.norm(x - y) < 1e-3:
            continue
        v = commutator_kernel(base, f, x, y)
        bound = lip * abs(riesz_kernel_bessel(P2, x, y)) * np.linalg.norm(x - y)
        assert abs(v) <= bound * (1 + 1e-9)


def test_schur_assembly_identity_spot():
    f = gaussian_bump([0.3, 1.2], 0.4)
    rng = np.random.default_rng(7)
    for k in (1, 2):
        p = ModelParams(n=1, lam=0.7, k=k)
        f_eval = DirectF(p)
        base = lambda a, b: riesz_kernel_bessel(p, a, b, f_eval)
        for _ in range(40):
            x = np.array([rng.uniform(-1, 1), rng.uniform(0.3, 3)])
            y = np.array([rng.uniform(-1, 1), rng.uniform(0.3, 3)])
            if np.linalg.norm(x - y) < 1e-6:
                continue
            lhs = commutator_kernel(base, f, x, y)
            rhs = prop35_rhs_kernel(p, f, x, y, f_eval)
            assert rhs == pytest.approx(lhs, rel=1e-10, abs=1e-300)


def test_schur_assembly_constant_symbol_vanishes():
    const = constant_symbol(2.0)
    x = np.array([0.1, 1.1])
    y = np.array([0.6, 1.6])
    assert prop35_rhs_kernel(P2, const, x, y) == 0.0


def test_taylor_local_expansion():
    f = gaussian_bump([0.15, 1.05], 0.35)
    rep = taylor_local_check(P1, f, center=[0.0, 1.0], direction=[1.0, 0.4])
    assert rep.residual_exponent >= -0.2
    assert rep.leading_ratio == pytest.approx(rep.expected_ratio, rel=0.05)


def test_taylor_local_constant_symbol():
    rep = taylor_local_check(P1, constant_symbol(1.0), center=[0.0, 1.0])
    assert np.all(rep.residual == 0.0)
    assert rep.residual_exponent == np.inf


def test_tabulated_f_matches_direct_in_kernels():
    tab = TabulatedF(P2, 3.0)
    direct = DirectF(P2)
    x = np.array([0.15, 1.2])
    y = np.array([0.7, 0.9])
    a = riesz_kernel_bessel(P2, x, y, tab)
    b = riesz_kernel_bessel(P2, x, y, direct)
    assert a == pytest.approx(b, rel=1e-8)
