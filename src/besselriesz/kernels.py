"""Two-point kernel evaluators on the upper half-space.

All evaluators broadcast over leading axes; points are arrays whose last axis
holds the n+1 coordinates (last coordinate positive).  Scalar calls on
coincident points raise; batched assembly masks the diagonal instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import cython_special as _cs
from scipy.special import gamma as _gamma
from scipy.special import ive

from .auxfn import AuxIndex, F, F_batch, FTable, f_zero, table_nodes
from .quadrature import QuadratureError, gauss_legendre_box, gegenbauer_integral
from .special import ModelParams, model_constants, psi_bound, psi_lambda

IDX20 = AuxIndex(2, 0)
IDX11 = AuxIndex(1, 1)
IDX21 = AuxIndex(2, 1)


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
# F evaluators shared by the kernel assemblies
# ---------------------------------------------------------------------------


class DirectF:
    """Per-point quadrature evaluation of F; for test points and probes."""

    def __init__(self, p: ModelParams):
        self.params = p

    def __call__(self, idx: AuxIndex, h):
        h = np.asarray(h, dtype=float)
        if h.ndim == 0:
            return F(idx, self.params, float(h))
        return np.array([F(idx, self.params, v) for v in h.ravel()]).reshape(h.shape)


class TabulatedF:
    """Spline tables of F for the three index pairs; for matrix assembly.

    The three tables share one node set, filled by one batched quadrature
    pass (``F_batch``: two integrals per node, each distinct panel rule
    built once).  ``record`` holds that pass's ``nodes``, ``integrals`` and
    ``max_order``."""

    def __init__(self, p: ModelParams, h_max: float):
        self.params = p
        self.record = {}
        indices = (IDX20, IDX11, IDX21)
        values = F_batch(p, table_nodes(h_max), indices, self.record)
        self.tables = {idx: FTable(idx, p, h_max, values[idx]) for idx in indices}

    def __call__(self, idx: AuxIndex, h):
        return self.tables[idx](h)


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
    validated against ``spectral_kernel`` in the test suite.  It depends on
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


def riesz_kernel_bessel(p: ModelParams, x, y, f_eval=None):
    """Kernel of the k-th weighted Riesz transform (gradient of the inverse
    square root), assembled from the symbol family and the F profiles:

        -kappa2 [F20(H) K_k + (a F11(H) - b h_(n+1) F21(H)) sum_l h_l K_l],

    the bracket's second term for k = n + 1 only, with H, a, b, h_l and
    K_l = (x - y)_l / (|x - y|^(n+2) (x_last y_last)^lam) the pointwise
    symbols.  The separation x - y, |x - y| and the denominator of K_l are
    computed once per call, and every expression keeps the order of the
    ``symbol_*`` functions, so the entries equal their composition bit for
    bit.  Scalar calls on coincident points raise."""
    if f_eval is None:
        f_eval = DirectF(p)
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


def prop35_rhs_kernel(p: ModelParams, f, x, y, f_eval=None):
    """Kernel of the Schur-symbol assembly over the classical commutator.

    This is the weighted-measure kernel: the conjugation weights and the
    measure change combine into (x_last y_last)^(-lam), so the result is
    directly comparable with ``commutator_kernel(riesz_kernel_bessel, f)``.
    """
    if f_eval is None:
        f_eval = DirectF(p)
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


# ---------------------------------------------------------------------------
# classical Riesz normalization oracle
# ---------------------------------------------------------------------------


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
    from .special import riesz_constant

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
