"""Two-point kernel evaluators on the upper half-space.

All evaluators broadcast over leading axes; points are arrays whose last axis
holds the n+1 coordinates (last coordinate positive).  Scalar calls on
coincident points raise; batched assembly masks the diagonal instead.  The
kernels built from the F profiles take an evaluator ``f_eval`` from ``auxfn``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import cython_special as _cs
from scipy.special import gamma as _gamma
from scipy.special import ive

from .auxfn import IDX11, IDX20, IDX21
from .quadrature import QuadratureError, gegenbauer_integral
from .special import ModelParams, model_constants, psi_bound, psi_lambda


def _pts(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def _sep(x, y):
    d = _pts(x) - _pts(y)
    return d, np.sqrt(np.sum(d * d, axis=-1))


# ---------------------------------------------------------------------------
# pointwise symbols
# ---------------------------------------------------------------------------


def symbol_H(x, y):
    """|x - y| / sqrt(x_last * y_last)."""
    x, y = _pts(x), _pts(y)
    _, r = _sep(x, y)
    return r / np.sqrt(x[..., -1] * y[..., -1])


def symbol_a(x, y):
    """sqrt(min/max) of the last coordinates; in (0, 1]."""
    x, y = _pts(x), _pts(y)
    xl, yl = x[..., -1], y[..., -1]
    return np.sqrt(np.minimum(xl, yl) / np.maximum(xl, yl))


def symbol_b(x, y):
    """Indicator of x_last < y_last."""
    x, y = _pts(x), _pts(y)
    return (x[..., -1] < y[..., -1]).astype(float)


def symbol_h(m: int, x, y):
    """Unit direction component (x - y)_m / |x - y|; x != y."""
    d, r = _sep(x, y)
    _reject_coincident(r)
    return d[..., m - 1] / r


def _reject_coincident(r):
    if np.ndim(r) == 0 and r == 0.0:
        raise ValueError("coincident points")


# ---------------------------------------------------------------------------
# heat kernel and the three inverse-square-root representations
# ---------------------------------------------------------------------------


def heat_kernel(p: ModelParams, s: float, x, y) -> float:
    """Kernel of the heat semigroup at time s^2 (weighted measure convention):
    the pair's ``_heat_profile`` evaluated once, at s > 0."""
    if not s > 0:
        raise ValueError("heat_kernel requires s > 0")
    x, y = _pts(x), _pts(y)
    _, r = _sep(x, y)
    return _heat_profile(p, float(r * r), float(x[-1] * y[-1]))(s)


def _heat_profile(p: ModelParams, r2: float, xy: float):
    """s -> the heat kernel at time s^2 of a pair with |x - y|^2 = r2 and
    x_last y_last = xy, for s > 0.

    Everything that does not depend on s is computed here, once per pair:
    kappa_lambda, the power of s, and the constant factor sqrt(pi) Gamma(lam)
    of the angular integral of exp(-beta t) against (2t - t^2)^(lam - 1),
    beta = xy / (2 s^2).  That integral has the modified-Bessel form
    sqrt(pi) Gamma(lam) (beta/2)^(-nu) e^(-beta) I_nu(beta), nu = lam - 1/2;
    below beta = 1e-4 the ascending series of (beta/2)^(-nu) I_nu(beta)
    replaces the two factors, whose product would reach inf * 0 as
    beta -> 0.  Past |x - y|^2 / (4 s^2) = 700 the kernel is 0.
    """
    kappa = model_constants(p).kappa_lambda
    power = -2.0 * p.lam - 1.0 - p.n
    nu = p.lam - 0.5
    front = np.sqrt(np.pi) * _gamma(p.lam)
    g1, g2, g3 = _gamma(nu + 1.0), _gamma(nu + 2.0), _gamma(nu + 3.0)

    def profile(s):
        expo = r2 / (4.0 * s * s)
        if expo > 700.0:
            return 0.0
        beta = xy / (2.0 * s * s)
        if beta < 1e-4:
            q = 0.25 * beta * beta
            scaled = np.exp(-beta) * (1.0 / g1 + q / g2 + 0.5 * q * q / g3)
        else:
            scaled = (0.5 * beta) ** (-nu) * ive(nu, beta)
        return kappa * s ** power * np.exp(-expo) * (front * scaled)

    return profile


def invsqrt_kernel_closed(p: ModelParams, x, y) -> float:
    """Reference representation: one weighted t-integral of Q_t^(-lam-n/2)."""
    x, y = _pts(x), _pts(y)
    _, r = _sep(x, y)
    _reject_coincident(float(r))
    c = model_constants(p)
    h2 = float(r * r / (x[-1] * y[-1]))
    power = -p.lam - p.n / 2.0

    integral = gegenbauer_integral(
        lambda t: (h2 + 2.0 * t) ** power, p.lam, peak_scale=min(1.0, h2)
    )
    return c.kappa1 * float(x[-1] * y[-1]) ** power * integral


def invsqrt_kernel_subordination(p: ModelParams, x, y, rel_tol: float = 1e-10) -> float:
    """(2/sqrt(pi)) * integral of the heat kernel over s in (0, inf), split at |x-y|.

    The integrand is the pair's ``_heat_profile``, built once per pair, so
    QUADPACK's calls do only the s-dependent arithmetic; each call returns
    what ``heat_kernel(p, s, x, y)`` returns, bit for bit."""
    from scipy.integrate import quad

    x, y = _pts(x), _pts(y)
    _, r = _sep(x, y)
    s0 = float(r)
    _reject_coincident(s0)
    integrand = _heat_profile(p, float(r * r), float(x[-1] * y[-1]))

    near, _ = quad(integrand, 0.0, s0, epsabs=0.0, epsrel=rel_tol, limit=200)
    far, _ = quad(integrand, s0, np.inf, epsabs=0.0, epsrel=rel_tol, limit=200)
    return 2.0 / np.sqrt(np.pi) * (near + far)


def spectral_kernel_inverse_radial(p: ModelParams, x, y, rel_tol: float = 1e-8) -> float:
    """Spectral representation with profile g(r) = 1/r (n = 1, x' != y').

    The lateral integral of cos(z1 d)/|z| is a Macdonald function, leaving one
    exponentially damped oscillatory integral which is truncated with a
    certified tail bound.  The integrand takes K_0 of a float from
    ``cython_special.k0``, the C routine of the ``k0`` ufunc without its
    dispatch, so its values are the ufunc's bit for bit.
    """
    from scipy.integrate import quad

    if p.n != 1:
        raise NotImplementedError("spectral representation implemented for n = 1")
    x, y = _pts(x), _pts(y)
    d = abs(float(x[0] - y[0]))
    if d == 0.0:
        raise ValueError("inverse-radial spectral route requires x' != y'")
    xl, yl = float(x[-1]), float(y[-1])
    bound = psi_bound(p.lam)

    def integrand(u):
        return psi_lambda(p.lam, xl * u) * psi_lambda(p.lam, yl * u) * _cs.k0(u * d)

    target = max(40.0 / d, 10.0)
    value = 0.0
    prev_edge = 0.0
    for _ in range(6):
        part, _ = quad(
            integrand, prev_edge, target,
            epsabs=0.0, epsrel=rel_tol,
            limit=int(200 + 2 * target * (xl + yl + d)),
        )
        value += part
        z = target * d
        tail = bound**2 / d * np.sqrt(np.pi / (2 * z)) * np.exp(-z) * 2.0
        if tail < rel_tol * abs(value):
            return (xl * yl) ** (-p.lam) / np.pi * value
        prev_edge, target = target, target * 2.0
    raise QuadratureError("inverse-radial spectral truncation did not certify", value, tail)


def gaussian_profile_kernel(p: ModelParams, x, y):
    """Closed form of the spectral kernel with g(r) = exp(-r^2), n = 1, vectorized.

    Obtained by factorizing the Gaussian over the lateral/vertical variables;
    validated against the test suite's ``spectral_kernel``.  It depends on
    the lateral coordinates only through x' - y', so criterion 8 evaluates it
    on the lateral Toeplitz generator of a Nystrom grid.
    """
    if p.n != 1:
        raise NotImplementedError("closed form implemented for n = 1")
    x, y = _pts(x), _pts(y)
    d = x[..., 0] - y[..., 0]
    xl, yl = x[..., -1], y[..., -1]
    nu = p.lam - 0.5
    return (
        0.25 / np.sqrt(np.pi)
        * np.exp(-0.25 * d**2)
        * np.exp(-0.25 * (xl - yl) ** 2)
        * (xl * yl) ** (0.5 - p.lam)
        * ive(nu, 0.5 * xl * yl)
    )


# ---------------------------------------------------------------------------
# Riesz kernels and commutators
# ---------------------------------------------------------------------------


def riesz_kernel_classical(n: int, l: int, x, y):
    """Classical gradient-of-inverse-sqrt kernel omega_n (y-x)_l / |x-y|^(n+2)."""
    from .special import riesz_constant

    x, y = _pts(x), _pts(y)
    d, r = _sep(x, y)
    _reject_coincident(r)
    return riesz_constant(n) * (-d[..., l - 1]) / r ** (n + 2)


def riesz_kernel_bessel(p: ModelParams, x, y, f_eval):
    """Kernel of the k-th weighted Riesz transform (gradient of the inverse
    square root), assembled from the symbol family and the F profiles:

        -kappa2 [F20(H) K_k + (a F11(H) - b h_(n+1) F21(H)) sum_l h_l K_l],

    the bracket's second term for k = n + 1 only, with H, a, b, h_l and
    K_l = (x - y)_l / (|x - y|^(n+2) (x_last y_last)^lam) the pointwise
    symbols.  The separation x - y, |x - y| and the denominator of K_l are
    computed once per call, and every expression keeps the order of the
    ``symbol_*`` functions, so the entries equal their composition bit for
    bit.  Scalar calls on coincident points raise."""
    x, y = _pts(x), _pts(y)
    c = model_constants(p)
    d, r = _sep(x, y)
    _reject_coincident(r)
    xl, yl = x[..., -1], y[..., -1]
    xy = xl * yl
    H = r / np.sqrt(xy)
    den = r ** (p.n + 2) * xy ** p.lam
    out = f_eval(IDX20, H) * (d[..., p.k - 1] / den)
    if p.k == p.n + 1:
        s = 0.0
        for l in range(p.n + 1):
            s = s + (d[..., l] / r) * (d[..., l] / den)
        a = np.sqrt(np.minimum(xl, yl) / np.maximum(xl, yl))
        b = (xl < yl).astype(float)
        hn1 = d[..., p.n] / r
        out = out + a * f_eval(IDX11, H) * s - b * hn1 * f_eval(IDX21, H) * s
    return -c.kappa2 * out


def commutator_kernel(base, f, x, y):
    """base(x, y) * (f(y) - f(x)); the commutator of base with multiplication by f."""
    x, y = _pts(x), _pts(y)
    return base(x, y) * (f(y) - f(x))


def prop35_rhs_kernel(p: ModelParams, f, x, y, f_eval):
    """Kernel of the Schur-symbol assembly over the classical commutator.

    This is the weighted-measure kernel: the conjugation weights and the
    measure change combine into (x_last y_last)^(-lam), so the result is
    directly comparable with ``commutator_kernel(riesz_kernel_bessel, f)``.
    """
    x, y = _pts(x), _pts(y)
    c = model_constants(p)
    H = symbol_H(x, y)
    df = f(y) - f(x)
    w = (x[..., -1] * y[..., -1]) ** (-p.lam)

    out = f_eval(IDX20, H) * riesz_kernel_classical(p.n, p.k, x, y) * df * w
    if p.k == p.n + 1:
        a = symbol_a(x, y)
        b = symbol_b(x, y)
        hn1 = symbol_h(p.n + 1, x, y)
        f11 = f_eval(IDX11, H)
        f21 = f_eval(IDX21, H)
        for l in range(1, p.n + 2):
            hl = symbol_h(l, x, y)
            cl = riesz_kernel_classical(p.n, l, x, y) * df * w
            out = out + hl * a * f11 * cl - hl * hn1 * b * f21 * cl
    return c.kappa3 * out


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------


@dataclass
class RatioBoundReport:
    accepted: int
    violations: int
    ratio_min: float
    ratio_max: float
    bound_lo: float
    bound_hi: float
    worst_pair: tuple | None


def ratio_bound_check(samples: int, n: int = 1, seed: int = 0) -> RatioBoundReport:
    """Sample random pairs with H <= 1 and check the last-coordinate ratio
    stays within [(3-sqrt5)/2, (3+sqrt5)/2]."""
    if samples < 10**4:
        raise ValueError("ratio_bound_check requires at least 1e4 samples")
    rng = np.random.default_rng(seed)
    lo = (3.0 - np.sqrt(5.0)) / 2.0
    hi = (3.0 + np.sqrt(5.0)) / 2.0
    accepted = 0
    violations = 0
    rmin, rmax = np.inf, -np.inf
    worst = None
    while accepted < samples:
        m = 4 * (samples - accepted) + 1000
        x = np.empty((m, n + 1))
        y = np.empty((m, n + 1))
        x[:, :n] = rng.uniform(-2, 2, (m, n))
        y[:, :n] = rng.uniform(-2, 2, (m, n))
        x[:, n] = rng.uniform(0.05, 4.0, m)
        y[:, n] = rng.uniform(0.05, 4.0, m)
        H = symbol_H(x, y)
        keep = H <= 1.0
        if not keep.any():
            continue
        ratios = x[keep, n] / y[keep, n]
        take = min(len(ratios), samples - accepted)
        ratios = ratios[:take]
        accepted += take
        bad = (ratios < lo) | (ratios > hi)
        if bad.any():
            violations += int(bad.sum())
            i = int(np.argmax(bad))
            worst = (tuple(x[keep][:take][i]), tuple(y[keep][:take][i]))
        rmin = min(rmin, float(ratios.min()))
        rmax = max(rmax, float(ratios.max()))
    return RatioBoundReport(
        accepted=accepted, violations=violations,
        ratio_min=rmin, ratio_max=rmax, bound_lo=lo, bound_hi=hi, worst_pair=worst,
    )
