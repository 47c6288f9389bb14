from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import ive

from besselriesz import auxfn, quadrature
from besselriesz.auxfn import IDX11, IDX20, IDX21, DirectF, F, TabulatedF, f_zero, table_nodes
from besselriesz.kernels import _heat_profile, _pts, _reject_coincident, _sep
from besselriesz.kernels import (
    commutator_kernel,
    gaussian_profile_kernel,
    heat_kernel,
    invsqrt_kernel_closed,
    invsqrt_kernel_subordination,
    prop35_rhs_kernel,
    ratio_bound_check,
    riesz_kernel_bessel,
    riesz_kernel_classical,
    spectral_kernel_inverse_radial,
    symbol_H,
    symbol_a,
    symbol_b,
    symbol_h,
)
from besselriesz.quadrature import QuadratureError, gauss_legendre_box, gegenbauer_integral
from besselriesz.special import ModelParams, gamma, model_constants, psi_bound, psi_lambda
from besselriesz.symbols import constant_symbol, gaussian_bump

P1 = ModelParams(n=1, lam=1.0, k=1)
P2 = ModelParams(n=1, lam=1.0, k=2)
X = np.array([0.0, 1.0])
Y = np.array([0.0, 2.0])


def symbol_K(m: int, x, y, lam: float):
    """(x - y)_m / (|x - y|^(n+2) (x_last y_last)^lam); x != y."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    d, r = _sep(x, y)
    _reject_coincident(r)
    n = x.shape[-1] - 1
    return d[..., m - 1] / (r ** (n + 2) * (x[..., -1] * y[..., -1]) ** lam)


def riesz_kernel_composed(p: ModelParams, x, y, f_eval):
    """The Bessel Riesz kernel as the composition of the pointwise symbols,
    one ``symbol_*`` call per factor."""
    H = symbol_H(x, y)
    out = f_eval(IDX20, H) * symbol_K(p.k, x, y, p.lam)
    if p.k == p.n + 1:
        s = 0.0
        for l in range(1, p.n + 2):
            s = s + symbol_h(l, x, y) * symbol_K(l, x, y, p.lam)
        a = symbol_a(x, y)
        b = symbol_b(x, y)
        hn1 = symbol_h(p.n + 1, x, y)
        out = out + a * f_eval(IDX11, H) * s - b * hn1 * f_eval(IDX21, H) * s
    return -model_constants(p).kappa2 * out


def synthetic_f(idx, h):
    """A cheap stand-in for the F profiles, distinct per index pair."""
    return np.exp(-(idx.k + idx.l) * h) * np.cos(h + idx.l)


@pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (2, 1), (2, 3)])
def test_riesz_kernel_bessel_equals_symbol_composition(n, k):
    # the fused evaluation computes x - y, |x - y| and K_l's denominator once
    # and keeps every expression's order, so its bits are the composition's
    p = ModelParams(n=n, lam=1.0, k=k)
    rng = np.random.default_rng(19 + 10 * n + k)
    x = np.concatenate([rng.uniform(-1, 1, (40, n)), rng.uniform(0.2, 2, (40, 1))], axis=1)
    y = np.concatenate([rng.uniform(-1, 1, (40, n)), rng.uniform(0.2, 2, (40, 1))], axis=1)
    for a, b in ((x, y), (x[:, None, :], y[None, :, :]), (x[0], y[0])):
        fused = np.asarray(riesz_kernel_bessel(p, a, b, synthetic_f))
        composed = np.asarray(riesz_kernel_composed(p, a, b, synthetic_f))
        assert fused.shape == composed.shape
        assert fused.tobytes() == composed.tobytes()
    with pytest.raises(ValueError, match="coincident"):
        riesz_kernel_bessel(p, x[0], x[0], synthetic_f)


def test_symbol_examples():
    assert symbol_H(X, X) == 0.0
    assert symbol_H(X, Y) == pytest.approx(1 / np.sqrt(2), rel=1e-15, abs=0)
    assert symbol_a(X, Y) == pytest.approx(1 / np.sqrt(2), rel=1e-15, abs=0)
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
        assert total == pytest.approx(1.0, rel=1e-12, abs=0)


def test_symbols_reject_coincident_points():
    with pytest.raises(ValueError):
        symbol_h(1, X, X)
    with pytest.raises(ValueError):
        symbol_K(1, X, X, 1.0)
    with pytest.raises(ValueError):
        invsqrt_kernel_closed(P1, X, X)


def test_ratio_bound_boundary_pair():
    # pairs solving H = 1 with equal lateral coordinates sit exactly on the bound
    for sign in (+1, -1):
        x2 = (3 + sign * np.sqrt(5)) / 2
        x = np.array([0.3, x2])
        y = np.array([0.3, 1.0])
        assert symbol_H(x, y) == pytest.approx(1.0, rel=1e-12, abs=0)
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
        assert heat_kernel(P1, s, y, x) == pytest.approx(v, rel=1e-13, abs=0.0)


def _heat_kernel_by_quadrature(p, s, x, y):
    # the angular integral by adaptive Gegenbauer quadrature, graded at 1/beta
    c = model_constants(p)
    beta = x[-1] * y[-1] / (2 * s * s)
    angular = gegenbauer_integral(
        lambda t: np.exp(-beta * t), p.lam, peak_scale=min(1.0, 1.0 / beta)
    )
    expo = np.sum((x - y) ** 2) / (4 * s * s)
    return c.kappa_lambda * s ** (-2 * p.lam - 1 - p.n) * np.exp(-expo) * angular


def test_heat_kernel_against_quadrature():
    # independent oracle for the modified-Bessel closed form: the angular
    # integral by quadrature, for beta from 6e3 down to 6e-13
    x = np.array([0.0, 1.0])
    y = np.array([0.3, 1.2])
    # beta = x_last y_last / (2 s^2) just above and below the series branch
    edge = [np.sqrt(1.2 / (2 * b)) for b in (1.01e-4, 1e-4, 0.99e-4)]
    for lam in (0.3, 0.5, 1.0, 1.7):
        p = ModelParams(n=1, lam=lam, k=1)
        for s in [*np.geomspace(1e-2, 1e6, 17), *edge]:
            v = heat_kernel(p, s, x, y)
            assert v > 0
            want = _heat_kernel_by_quadrature(p, s, x, y)
            assert v == pytest.approx(want, rel=1e-12, abs=0.0)


def test_heat_kernel_far_field_zero():
    # |x - y|^2 / (4 s^2) = 2.5e5 > 700: the kernel is 0, not an underflow
    for lam in (0.3, 1.7):
        assert heat_kernel(ModelParams(n=1, lam=lam, k=1), 1e-3, X, Y) == 0.0
    with pytest.raises(ValueError):
        heat_kernel(P1, 0.0, X, Y)


def _heat_kernel_per_call(p, s, x, y):
    # the per-call formula that the pair-built profile replaced: every
    # s-independent factor recomputed at each s
    c = model_constants(p)
    d = x - y
    r = np.sqrt(np.sum(d * d, axis=-1))
    expo = float(r * r) / (4.0 * s * s)
    if expo > 700.0:
        return 0.0
    beta = float(x[-1] * y[-1]) / (2.0 * s * s)
    nu = p.lam - 0.5
    if beta < 1e-4:
        q = 0.25 * beta * beta
        scaled = np.exp(-beta) * (
            1.0 / gamma(nu + 1.0) + q / gamma(nu + 2.0) + 0.5 * q * q / gamma(nu + 3.0)
        )
    else:
        scaled = (0.5 * beta) ** (-nu) * ive(nu, beta)
    angular = np.sqrt(np.pi) * gamma(p.lam) * scaled
    return c.kappa_lambda * s ** (-2.0 * p.lam - 1.0 - p.n) * np.exp(-expo) * angular


def test_pair_heat_profile_equals_heat_kernel_bitwise():
    # the subordination route's integrand is built once per pair; at every s
    # it returns heat_kernel's value, and the per-call formula's, bit for bit,
    # from the far-field zero (|x-y|^2 / (4 s^2) > 700) through the closed
    # form to the series branch (beta < 1e-4)
    rng = np.random.default_rng(22)
    branches = {"zero": 0, "series": 0, "closed": 0}
    for lam in (0.3, 0.5, 1.0, 1.7):
        p = ModelParams(n=1, lam=lam, k=1)
        for _ in range(3):
            x = np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2.0)])
            y = np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2.0)])
            _, r = _sep(x, y)
            xy = float(x[-1] * y[-1])
            profile = _heat_profile(p, float(r * r), xy)
            for s in np.exp(rng.uniform(np.log(1e-4), np.log(1e4), 200)).tolist():
                v = profile(s)
                assert v == heat_kernel(p, s, x, y) == _heat_kernel_per_call(p, s, x, y)
                if v == 0.0:
                    branches["zero"] += 1
                elif xy / (2.0 * s * s) < 1e-4:
                    branches["series"] += 1
                else:
                    branches["closed"] += 1
    assert min(branches.values()) > 0, branches


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
        assert invsqrt_kernel_closed(p, Y, X) == pytest.approx(v, rel=1e-13, abs=0)


def test_invsqrt_regression_anchor():
    # frozen anchor; for lam = 1 the t-integral is elementary and the value
    # is exactly 1/(6 pi)
    v = invsqrt_kernel_closed(P1, X, Y)
    assert v == pytest.approx(5.305164769729847e-02, rel=1e-10, abs=0)
    assert v == pytest.approx(1.0 / (6 * np.pi), rel=1e-12, abs=0)


def test_invsqrt_three_way_agreement_spot():
    x = np.array([0.1, 0.9])
    y = np.array([0.8, 1.7])
    for lam in (0.5, 1.5):
        p = ModelParams(n=1, lam=lam, k=1)
        a = invsqrt_kernel_closed(p, x, y)
        b = invsqrt_kernel_subordination(p, x, y)
        c = spectral_kernel_inverse_radial(p, x, y)
        assert b == pytest.approx(a, rel=1e-6, abs=0)
        assert c == pytest.approx(a, rel=1e-3, abs=0)


def spectral_kernel(p: ModelParams, g, x, y, rel_tol: float = 1e-8) -> float:
    """Kernel of g(sqrt of the weighted Laplacian) for a decaying radial profile g.

    Implemented for n = 1, where the lateral Fourier integral reduces to a
    cosine transform; the plane integral is done in polar coordinates with an
    envelope-certified radial truncation (|g(r)| <= C (1+r)^(-n-2) assumed).
    """
    from scipy.integrate import quad

    if p.n != 1:
        raise NotImplementedError("spectral representation implemented for n = 1")
    x, y = _pts(x), _pts(y)
    d = float(x[0] - y[0])
    xl, yl = float(x[-1]), float(y[-1])
    bound = psi_bound(p.lam)
    freq = abs(d) + xl + yl

    def alpha_integral(r_nodes):
        vals = np.empty_like(r_nodes)
        for i, r in enumerate(r_nodes):
            order = int(min(400, max(48, 2.0 * r * freq)))
            rule = gauss_legendre_box([(0.0, np.pi / 2)], order)
            al = rule.nodes[:, 0]
            sa = np.sin(al)
            integrand = (
                np.cos(r * d * np.cos(al))
                * psi_lambda(p.lam, xl * r * sa)
                * psi_lambda(p.lam, yl * r * sa)
            )
            vals[i] = np.dot(rule.weights, integrand)
        return vals

    def shell(a, b):
        panels = max(4, int((b - a) * freq / 2.0) + 2)
        total = 0.0
        for lo, hi in zip(np.linspace(a, b, panels + 1)[:-1], np.linspace(a, b, panels + 1)[1:]):
            rule = gauss_legendre_box([(lo, hi)], 24)
            r_nodes = rule.nodes[:, 0]
            total += np.dot(rule.weights, r_nodes * np.asarray(g(r_nodes)) * alpha_integral(r_nodes))
        return total

    radius = 10.0
    total = shell(0.0, radius)
    for _ in range(8):
        # certified tail: |alpha integral| <= (pi/2) B^2, so the remainder is
        # bounded by (pi/2) B^2 * int_R^inf r |g(r)| dr
        tail_int, _ = quad(lambda r: r * abs(g(np.array([r]))[0]), radius, np.inf, limit=200)
        tail = 0.5 * np.pi * bound**2 * abs(tail_int)
        if tail < rel_tol * max(abs(total), 1e-300):
            return (xl * yl) ** (-p.lam) / np.pi * total
        total += shell(radius, 2.0 * radius)
        radius *= 2.0
    raise QuadratureError(
        "spectral_kernel truncation did not certify",
        (xl * yl) ** (-p.lam) / np.pi * total, tail,
    )


def test_spectral_kernel_gaussian_profile():
    x = np.array([0.2, 1.1])
    y = np.array([-0.4, 1.8])
    quadrature = spectral_kernel(P1, lambda r: np.exp(-(r**2)), x, y, rel_tol=1e-8)
    closed = gaussian_profile_kernel(P1, x, y)
    assert quadrature == pytest.approx(closed, rel=1e-7, abs=0)
    assert gaussian_profile_kernel(P1, y, x) == pytest.approx(closed, rel=1e-13, abs=0)


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
    assert gaussian_profile_kernel(P1, xx, xx) == pytest.approx(diag, rel=1e-12, abs=0)


def test_scalar_k0_is_the_ufunc_bit_for_bit():
    # the spectral route's integrand takes K_0 of one float per call from
    # cython_special; it must be the k0 ufunc's value to the bit over the
    # arguments u * d that quad reaches, K_0's underflow included
    from scipy.special import cython_special, k0

    z = np.concatenate([[0.0], np.geomspace(1e-8, 750.0, 20001)])
    got = np.array([cython_special.k0(v) for v in z.tolist()])
    assert got.tobytes() == k0(z).tobytes()


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
        assert riesz_kernel_bessel(p, x, y, DirectF(p)) == pytest.approx(fd, rel=1e-5, abs=0)


def test_riesz_kernel_bessel_lateral_antisymmetry():
    # swapping the k-th lateral coordinates flips the k <= n part
    x = np.array([0.3, 1.2])
    y = np.array([0.9, 1.2])
    xs = np.array([0.9, 1.2])
    ys = np.array([0.3, 1.2])
    f_eval = DirectF(P1)
    v = riesz_kernel_bessel(P1, x, y, f_eval)
    assert riesz_kernel_bessel(P1, xs, ys, f_eval) == pytest.approx(-v, rel=1e-10, abs=0)


def test_riesz_kernel_bessel_k_le_n_single_term():
    # for k <= n only the first term contributes: the kernel is F20(H) K_k
    f_eval = DirectF(P1)
    x = np.array([0.2, 0.8])
    y = np.array([-0.5, 1.4])
    c = model_constants(P1)
    expected = -c.kappa2 * f_eval(IDX20, symbol_H(x, y)) * symbol_K(1, x, y, P1.lam)
    assert riesz_kernel_bessel(P1, x, y, f_eval) == pytest.approx(expected, rel=1e-14, abs=0)


def test_classical_riesz_kernel_examples():
    x = np.array([0.3, 1.0])
    y = np.array([0.3, 2.0])
    assert riesz_kernel_classical(1, 1, x, y) == 0.0  # x_l == y_l
    v = riesz_kernel_classical(1, 2, x, y)
    assert riesz_kernel_classical(1, 2, y, x) == pytest.approx(-v, rel=1e-15, abs=0)


def riesz_gaussian_check(n: int = 1, l: int = 1, point=None, cells: int = 361):
    """Apply the classical Riesz kernel to a Gaussian two ways (n = 1).

    Returns (kernel_route, multiplier_route) at ``point``: the discretized
    principal-value integral with the omega_n normalization versus the Fourier
    multiplier i xi_l / |xi| evaluated by quadrature.  Used to pin down
    omega_n numerically before it enters kappa3.
    """
    if n != 1:
        raise NotImplementedError("Gaussian oracle implemented for n = 1")
    if point is None:
        point = np.zeros(n + 1)
        point[0] = 0.7
    point = np.asarray(point, dtype=float)
    dim = n + 1

    # spatial route: midpoint grid, principal value by symmetric cancellation
    half_width = 9.0
    axes = [np.linspace(-half_width, half_width, cells + 1) for _ in range(dim)]
    mids = [0.5 * (a[1:] + a[:-1]) for a in axes]
    h = mids[0][1] - mids[0][0]
    # snap to the nearest cell midpoint: the odd-kernel principal value needs
    # the evaluation point centered in its cell for symmetric cancellation
    point = np.array([mids[i][np.argmin(np.abs(mids[i] - point[i]))] for i in range(dim)])
    grids = np.meshgrid(*mids, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    shift = nodes - point  # y - x
    r = np.sqrt(np.sum(shift**2, axis=-1))
    near = r < 0.5 * h
    gauss = np.exp(-0.5 * np.sum(nodes**2, axis=-1))
    from besselriesz.special import riesz_constant

    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(near, 0.0, riesz_constant(n) * shift[..., l - 1] / np.maximum(r, 1e-300) ** (n + 2))
    spatial = float(np.sum(vals * gauss) * h**dim)
    # excluded self-cell: the kernel against the gradient part of the Gaussian
    # contributes omega_n * d_l G(x) * h * 2 asinh(1) at first order
    grad_l = -point[l - 1] * np.exp(-0.5 * np.sum(point**2))
    spatial += riesz_constant(n) * grad_l * h * 2.0 * np.arcsinh(1.0)

    # multiplier route: odd part of the inverse Fourier integral
    rule = gauss_legendre_box([(-8.0, 8.0)] * dim, 80)
    xi = rule.nodes
    xi_norm = np.sqrt(np.sum(xi**2, axis=-1))
    ghat = np.exp(-0.5 * xi_norm**2)
    phase = xi @ point
    integrand = -(xi[:, l - 1] / np.maximum(xi_norm, 1e-300)) * ghat * np.sin(phase)
    multiplier = float((2 * np.pi) ** (-dim / 2) * np.dot(rule.weights, integrand))
    return spatial, multiplier


def test_classical_riesz_gaussian_oracle():
    # normalization check: kernel route vs Fourier multiplier route, <= 0.5%
    for l in (1, 2):
        point = np.array([0.7, 0.4]) if l == 1 else np.array([0.4, 0.9])
        spatial, mult = riesz_gaussian_check(n=1, l=l, point=point)
        assert spatial == pytest.approx(mult, rel=5e-3, abs=0)


def test_commutator_kernel_basics():
    f = gaussian_bump([0.2, 1.3], 0.5)
    base = lambda a, b: riesz_kernel_bessel(P2, a, b, DirectF(P2))
    x = np.array([0.1, 1.1])
    y = np.array([0.6, 1.6])
    const = constant_symbol(3.3)
    assert commutator_kernel(base, const, x, y) == 0.0
    v = commutator_kernel(base, f, x, y)
    double = commutator_kernel(base, lambda pts: 2 * f(pts), x, y)
    assert double == pytest.approx(2 * v, rel=1e-15, abs=0)


def test_commutator_lipschitz_bound():
    f = gaussian_bump([0.2, 1.3], 0.5)
    # crude Lipschitz constant of the bump: sup |grad| = amp/(w sqrt(e))
    lip = 1.0 / (0.5 * np.sqrt(np.e))
    rng = np.random.default_rng(6)
    f_eval = DirectF(P2)
    base = lambda a, b: riesz_kernel_bessel(P2, a, b, f_eval)
    for _ in range(10):
        x = np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2)])
        y = np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2)])
        if np.linalg.norm(x - y) < 1e-3:
            continue
        v = commutator_kernel(base, f, x, y)
        bound = lip * abs(base(x, y)) * np.linalg.norm(x - y)
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
    assert prop35_rhs_kernel(P2, const, x, y, DirectF(P2)) == 0.0


@dataclass
class TaylorReport:
    separations: np.ndarray
    leading: np.ndarray
    residual: np.ndarray
    residual_exponent: float
    leading_ratio: float
    expected_ratio: float


def taylor_local_check(
    p: ModelParams,
    f,
    center,
    direction=None,
    m_range=range(3, 11),
) -> TaylorReport:
    """Near-diagonal expansion check of the weighted commutator kernel.

    Compares the conjugated (Lebesgue-measure) commutator kernel against
    kappa3 * F20(0) times the classical commutator kernel on pairs approaching
    the diagonal; the residual must vanish one order faster than the leading
    |x-y|^(-n) singularity.
    """
    center = np.asarray(center, dtype=float)
    if direction is None:
        direction = np.ones_like(center)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    c = model_constants(p)
    f20_0 = f_zero(IDX20, p)
    expected = c.kappa3 * f20_0
    f_eval = DirectF(p)

    seps, leads, resids = [], [], []
    for m in m_range:
        delta = 2.0**-m
        x = center
        y = center + delta * direction
        weighted = (
            (x[-1] * y[-1]) ** p.lam
            * commutator_kernel(lambda a, b: riesz_kernel_bessel(p, a, b, f_eval), f, x, y)
        )
        classical = commutator_kernel(
            lambda a, b: riesz_kernel_classical(p.n, p.k, a, b), f, x, y
        )
        seps.append(delta)
        leads.append(weighted)
        resids.append(weighted - expected * classical)
    seps = np.array(seps)
    leads = np.array(leads)
    resids = np.array(resids)

    mask = np.abs(resids) > 0
    if mask.sum() >= 2:
        slope = np.polyfit(np.log(seps[mask]), np.log(np.abs(resids[mask])), 1)[0]
    else:
        slope = np.inf  # residual identically zero (constant f)
    classical_last = commutator_kernel(
        lambda a, b: riesz_kernel_classical(p.n, p.k, a, b), f,
        center, center + seps[-1] * direction,
    )
    ratio = leads[-1] / classical_last if classical_last != 0 else np.nan
    return TaylorReport(
        separations=seps, leading=leads, residual=resids,
        residual_exponent=float(slope), leading_ratio=float(ratio),
        expected_ratio=float(expected),
    )


def test_taylor_local_expansion():
    f = gaussian_bump([0.15, 1.05], 0.35)
    rep = taylor_local_check(P1, f, center=[0.0, 1.0], direction=[1.0, 0.4])
    assert rep.residual_exponent >= -0.2
    assert rep.leading_ratio == pytest.approx(rep.expected_ratio, rel=0.05, abs=0)


def test_taylor_local_constant_symbol():
    rep = taylor_local_check(P1, constant_symbol(1.0), center=[0.0, 1.0])
    assert np.all(rep.residual == 0.0)
    assert rep.residual_exponent == np.inf


@pytest.mark.parametrize("n, lam", [(1, 1.0), (1, 0.5), (2, 1.5)])
def test_tabulated_f_batch_matches_pointwise_f(n, lam):
    # the batched pass shares one integral between F11 and F21 and one
    # panel rule between all nodes past 1; every table node, every index
    p = ModelParams(n=n, lam=lam, k=n + 1)
    tab = TabulatedF(p, 3.0)
    nodes = table_nodes(3.0)
    for idx in (IDX20, IDX11, IDX21):
        direct = np.array([F(idx, p, float(x)) for x in nodes])
        np.testing.assert_allclose(tab(idx, nodes), direct, rtol=1e-14, atol=0)
    assert tab.record == {"nodes": len(nodes), "integrals": 2 * (len(nodes) - 1),
                          "max_order": 32}


def test_tabulated_f_builds_each_panel_rule_once(monkeypatch):
    # the per-point route built each rule of a node below 1 once per index:
    # the cache had evicted it before the next index came back to it
    built = []
    rule = quadrature._panel_rule

    def counting_rule(*key):
        built.append(key)
        return rule.__wrapped__(*key)

    # a cold cache of the same size, counting what it has to build
    monkeypatch.setattr(quadrature, "_panel_rule", lru_cache(maxsize=256)(counting_rule))
    monkeypatch.setattr(auxfn, "_f_zero_cached", lru_cache(maxsize=64)(auxfn._f_zero_cached.__wrapped__))
    tab = TabulatedF(ModelParams(n=1, lam=1.0, k=2), 3.0)
    assert len(built) == len(set(built))
    # at least orders 16 and 32 for each distinct min(x^2, 1): the nodes
    # below 1 (not 0) and one for every node past 1
    below = int(np.sum(table_nodes(3.0) < 1.0)) - 1
    assert len(built) >= 2 * (below + 1)
    assert tab.record["max_order"] == 32


def test_tabulated_f_matches_direct_in_kernels():
    tab = TabulatedF(P2, 3.0)
    direct = DirectF(P2)
    x = np.array([0.15, 1.2])
    y = np.array([0.7, 0.9])
    a = riesz_kernel_bessel(P2, x, y, tab)
    b = riesz_kernel_bessel(P2, x, y, direct)
    assert a == pytest.approx(b, rel=1e-8, abs=0)
