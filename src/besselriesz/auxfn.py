"""The auxiliary kernel profiles F and G and their small-argument decomposition.

F indexed by (k, l) maps the scale-invariant separation H = |x-y|/sqrt(x_b y_b)
to the weight of each term of the Bessel-Riesz kernel.  The decomposition
splits F into a smooth far part, a regularized near part, and incomplete-Beta
tails whose leading coefficients control the behaviour at 0 (including the
log term present in even dimensions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from scipy.interpolate import CubicSpline

from .quadrature import gegenbauer_integral, geometric_breaks, panel_integral
from .special import ModelParams, gen_binomial

VALID_INDEX = {(2, 0), (1, 1), (2, 1)}


@dataclass(frozen=True)
class AuxIndex:
    k: int
    l: int

    def __post_init__(self):
        if (self.k, self.l) not in VALID_INDEX:
            raise ValueError(f"(k, l) must be one of {sorted(VALID_INDEX)}, got {(self.k, self.l)}")


def F(idx: AuxIndex, p: ModelParams, x: float, fixed_order: int | None = None) -> float:
    """x^(n+k) * integral over (0,2) of (x^2+2t)^(-lam-n/2-1) (2t-t^2)^(lam-1) t^l dt.

    At x = 0 the right limit is returned (see ``f_zero``).
    """
    if x < 0:
        raise ValueError("F requires x >= 0")
    if x == 0.0:
        return f_zero(idx, p)
    n, lam = p.n, p.lam
    power = -lam - n / 2 - 1.0

    def g(t):
        val = (x * x + 2.0 * t) ** power
        if idx.l:
            val = val * t**idx.l
        return val

    integral = gegenbauer_integral(g, lam, peak_scale=min(x * x, 1.0), fixed_order=fixed_order)
    return x ** (p.n + idx.k) * integral


@lru_cache(maxsize=64)
def _f_zero_cached(k: int, l: int, n: int, lam: float) -> float:
    idx = AuxIndex(k, l)
    p = ModelParams(n=n, lam=lam, k=1)
    v4, v5, v6 = (F(idx, p, x) for x in (1e-4, 1e-5, 1e-6))
    # first-order Richardson removes the linear term of the approach to 0
    # (F with k+2l-2 = 1 vanishes only linearly, so raw values are not Cauchy)
    r1 = (10.0 * v5 - v4) / 9.0
    r2 = (10.0 * v6 - v5) / 9.0
    if abs(r2 - r1) > 1e-8:
        raise RuntimeError(f"right limit of F{(k, l)} not Cauchy at 0: {(r1, r2)}")
    return r2


def f_zero(idx: AuxIndex, p: ModelParams) -> float:
    """Right limit of F at 0: Richardson-extrapolated from x in {1e-4, 1e-5, 1e-6}."""
    return _f_zero_cached(idx.k, idx.l, p.n, p.lam)


def G(idx: AuxIndex, p: ModelParams, x: float) -> float:
    """Difference quotient (F(x) - F(0)) / x for x > 0."""
    if not x > 0:
        raise ValueError("G requires x > 0")
    return (F(idx, p, x) - f_zero(idx, p)) / x


# ---------------------------------------------------------------------------
# three-part decomposition valid on (0, 1]
# ---------------------------------------------------------------------------


def _taylor_remainder(lam: float, order: int, u: np.ndarray) -> np.ndarray:
    """(1+u)^(lam-1) minus its Taylor polynomial of degree ``order`` at 0.

    Summed from the tail series to avoid the catastrophic cancellation of the
    direct difference; requires |u| < 1/2 for fast convergence (here u = -t/2
    with t in [0, 1/2]).
    """
    term = np.full_like(u, gen_binomial(lam - 1.0, order + 1))
    term = term * u ** (order + 1)
    total = term.copy()
    j = order + 1
    for _ in range(200):
        j += 1
        term = term * ((lam - j) / j) * u
        total += term
        if np.all(np.abs(term) <= 1e-18 * (np.abs(total) + 1e-300)):
            break
    return total


def A_part(idx: AuxIndex, p: ModelParams, x: float) -> float:
    """Smooth component: the t-integral restricted to [1/2, 2]."""
    n, lam = p.n, p.lam
    power = -lam - n / 2 - 1.0

    def g(t):
        return (x * x + 2.0 * t) ** power * t ** (lam + idx.l - 1.0)

    return panel_integral(g, (0.5, 2.0), beta=lam - 1.0)


def B_part(idx: AuxIndex, p: ModelParams, x: float) -> float:
    """Regularized near component on [0, 1/2] (Taylor remainder of (1-t/2)^(lam-1))."""
    n, lam = p.n, p.lam
    power = -lam - n / 2 - 1.0

    def g(t):
        rem = _taylor_remainder(lam, n + 2, -0.5 * t)
        return (x * x + 2.0 * t) ** power * 2.0 ** (lam - 1.0) * rem * t**idx.l

    breaks = geometric_breaks(min(max(x * x, 1e-12), 0.5), 0.5)
    return x**n * panel_integral(g, breaks, alpha=lam - 1.0)


def C_tail(p: ModelParams, l: int, j: int, x: float) -> float:
    """x^(2j) * integral over (x^2, inf) of (s+1)^(-lam-n/2-1) s^(n/2-j-l) ds."""
    if not 0 < x <= 1:
        raise ValueError("C_tail requires 0 < x <= 1")
    n, lam = p.n, p.lam
    power = -lam - n / 2 - 1.0
    s_exp = n / 2 - j - l

    def g_near(s):
        return (s + 1.0) ** power * s**s_exp

    near = 0.0
    if x * x < 1.0:
        near = panel_integral(g_near, geometric_breaks(x * x, 1.0)[1:])

    def g_far(u):
        return (1.0 + u) ** power

    far = panel_integral(g_far, (0.0, 1.0), alpha=lam + j + l - 1.0)
    return x ** (2 * j) * (near + far)


def a_coeff(l: int, j: int, p: ModelParams) -> float:
    """Log-term coefficient 2 * binom(-lam-n/2-1, j+l-n/2-1), nonzero only when
    n is even and j+l-n/2-1 is a positive integer."""
    if p.n % 2 == 1:
        return 0.0
    m = j + l - p.n // 2 - 1
    if m < 1:
        return 0.0
    return 2.0 * gen_binomial(-p.lam - p.n / 2 - 1.0, m)


def c_coeff(p: ModelParams, l: int, j: int) -> float:
    """Tail combination coefficient (-1)^j 2^-(l+2j+1) binom(lam-1, j)."""
    return (-1.0) ** j * 2.0 ** (-(l + 2 * j + 1)) * gen_binomial(p.lam - 1.0, j)


@dataclass
class AuxDecomposition:
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

    def A(self, x: float) -> float:
        return A_part(self.idx, self.params, x)

    def B(self, x: float) -> float:
        return B_part(self.idx, self.params, x)

    def __call__(self, x: float) -> float:
        p, idx = self.params, self.idx
        tail = sum(cj * C_tail(p, idx.l, j, x) for j, cj in self.C_coeffs)
        return (
            x ** (p.n + idx.k) * self.A(x)
            + x**idx.k * self.B(x)
            + x ** (idx.k + 2 * idx.l - 2) * tail
        )


def F_decomposed(idx: AuxIndex, p: ModelParams, x: float) -> float:
    """Evaluate F on (0, 1] through the three-part decomposition."""
    if not 0 < x <= 1:
        raise ValueError("F_decomposed requires 0 < x <= 1")
    return AuxDecomposition(idx, p)(x)


# ---------------------------------------------------------------------------
# derivative envelope probe
# ---------------------------------------------------------------------------


@dataclass
class EnvelopeReport:
    idx: AuxIndex
    order: int
    xs: np.ndarray
    weighted: np.ndarray  # |F^(j)(x)| * x^(2 + 2 lam + j - k)
    decade_edges: np.ndarray
    decade_sups: np.ndarray
    bounded: bool


def derivative_bound_probe(idx: AuxIndex, p: ModelParams, j: int, xs) -> EnvelopeReport:
    """Probe the envelope |F^(j)(x)| <= C x^(k - 2 - 2 lam - j) on the given xs.

    Derivatives use central differences with step x * 1e-4 and fixed-order
    quadrature so the finite differences are not polluted by adaptive level
    switches.  ``bounded`` is cleared when the last decade sup still exceeds
    the previous one by more than 1%, i.e. when the weighted quantity has not
    levelled off toward the envelope constant.
    """
    if j not in (0, 1, 2):
        raise ValueError("probe supports derivative orders 0, 1, 2")
    xs = np.asarray(xs, dtype=float)
    if xs.min() <= 0:
        raise ValueError("xs must be positive")
    n, lam, k = p.n, p.lam, idx.k
    order = 96

    def f(x):
        return F(idx, p, x, fixed_order=order)

    vals = np.empty_like(xs)
    for i, x in enumerate(xs):
        h = x * 1e-4
        if j == 0:
            vals[i] = f(x)
        elif j == 1:
            vals[i] = (f(x + h) - f(x - h)) / (2 * h)
        else:
            vals[i] = (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    weighted = np.abs(vals) * xs ** (2.0 + 2.0 * lam + j - k)

    lo = np.floor(np.log10(xs.min()) + 1e-9)
    hi = np.ceil(np.log10(xs.max()) - 1e-9)
    edges = 10.0 ** np.arange(lo, hi + 1)
    sups = []
    for a, b in zip(edges[:-1], edges[1:]):
        mask = (xs >= a) & (xs <= b)
        if mask.any():
            sups.append(weighted[mask].max())
    sups = np.array(sups)
    # The weighted quantity climbs toward the envelope constant as x grows, so
    # decade sups increase in x but with rapidly shrinking increments.  Flag
    # unboundedness only when the growth is not levelling off: the final
    # decade still grows by more than 1% and the pointwise increments over the
    # log-spaced xs are not decaying.
    bounded = bool(np.all(np.isfinite(sups)))
    if len(sups) > 1 and sups[-1] > sups[-2] * 1.01:
        increments = np.abs(np.diff(weighted))
        if not (len(increments) >= 2 and increments[-1] <= increments[0] + 1e-12):
            bounded = False
    return EnvelopeReport(
        idx=idx, order=j, xs=xs, weighted=weighted,
        decade_edges=edges, decade_sups=sups, bounded=bounded,
    )


# ---------------------------------------------------------------------------
# fast tabulated evaluation for matrix assembly
# ---------------------------------------------------------------------------


class FTable:
    """Cubic-spline tabulation of F on [0, h_max] for vectorized kernel assembly.

    The node set is graded toward 0 where F is least smooth.  Accuracy is
    ~1e-9 relative (checked in the test suite against direct quadrature),
    far below every spectral tolerance that consumes it.
    """

    def __init__(self, idx: AuxIndex, p: ModelParams, h_max: float):
        h_max = max(h_max, 0.4)
        self.idx = idx
        self.params = p
        self.h_max = h_max
        small = np.geomspace(1e-4, 0.2, 120)
        bulk = np.linspace(0.2, h_max, 1600)[1:]
        grid = np.concatenate([[0.0], small, bulk])
        vals = np.array([F(idx, p, x) for x in grid])
        self._spline = CubicSpline(grid, vals)

    def __call__(self, h):
        h = np.asarray(h, dtype=float)
        if np.any(h > self.h_max * (1 + 1e-12)):
            raise ValueError(f"F table built for h <= {self.h_max}, got {h.max()}")
        return self._spline(np.clip(h, 0.0, self.h_max))
