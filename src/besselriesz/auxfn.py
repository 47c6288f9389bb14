"""The auxiliary kernel profiles F and G, their evaluators for the kernels,
and their small-argument decomposition.

F indexed by (k, l) maps the scale-invariant separation H = |x-y|/sqrt(x_b y_b)
to the weight of each term of the Bessel-Riesz kernel, which reads the three
``PROFILES`` through ``DirectF`` or ``TabulatedF``.  The decomposition
splits F into a smooth far part, a regularized near part, and incomplete-Beta
tails whose leading coefficients control the behaviour at 0 (including the
log term present in even dimensions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial
from scipy.linalg import solve_banded

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


IDX20 = AuxIndex(2, 0)
IDX11 = AuxIndex(1, 1)
IDX21 = AuxIndex(2, 1)
# the profiles the Bessel-Riesz kernel reads; this order is auxfn.csv's
# column order
PROFILES = (IDX20, IDX11, IDX21)


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


class DirectF:
    """Per-point quadrature evaluation of F; for test points and probes."""

    def __init__(self, p: ModelParams):
        self.params = p

    def __call__(self, idx: AuxIndex, h):
        h = np.asarray(h, dtype=float)
        if h.ndim == 0:
            return F(idx, self.params, float(h))
        return np.array([F(idx, self.params, v) for v in h.ravel()]).reshape(h.shape)


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


def _A_integrals(p: ModelParams, xs: np.ndarray, ls) -> np.ndarray:
    """The smooth component: the t-integral restricted to [1/2, 2], for every
    l of ``ls`` (rows) and x of ``xs`` (columns).  Its rule does not depend
    on x, so this is one batched quadrature."""
    n, lam = p.n, p.lam
    power = -lam - n / 2 - 1.0
    x2 = xs * xs

    def g(t):
        base = (x2 + 2.0 * t[:, None]) ** power
        out = np.stack([base * t[:, None] ** (lam + l - 1.0) for l in ls], axis=1)
        return out.reshape(len(t), -1)

    return panel_integral(g, (0.5, 2.0), beta=lam - 1.0).reshape(len(ls), len(xs))


def _B_integrals(p: ModelParams, xs: np.ndarray, ls) -> np.ndarray:
    """The regularized near component on [0, 1/2] (Taylor remainder of
    (1-t/2)^(lam-1)), times x^n, for every l of ``ls`` (rows) and x >= 0 of
    ``xs`` (columns): one batched quadrature on panels graded from the least
    min(max(x^2, 1e-12), 1/2), which is fine enough for every larger x."""
    n, lam = p.n, p.lam
    power = -lam - n / 2 - 1.0
    x2 = xs * xs

    def g(t):
        rem = _taylor_remainder(lam, n + 2, -0.5 * t)
        base = (x2 + 2.0 * t[:, None]) ** power * 2.0 ** (lam - 1.0) * rem[:, None]
        vals = np.stack([base * t[:, None] ** l for l in ls], axis=1)
        return vals.reshape(len(t), -1)

    start = min(max(float(x2.min()), 1e-12), 0.5)
    vals = panel_integral(g, geometric_breaks(start, 0.5), alpha=lam - 1.0)
    return xs**n * vals.reshape(len(ls), len(xs))


@lru_cache(maxsize=64)
def _far_tails(n: int, lam: float, top: int) -> np.ndarray:
    """Integral over (0, 1) of (1+u)^(-lam-n/2-1) u^(lam+m-1) for m = 0 ..
    ``top``: the part of C_tail(l, j) with j + l = m that does not depend on
    x.  m = 0 has its own Jacobi rule; every m >= 1 shares the weight u^lam,
    with u^(m-1) in the integrand."""
    power = -lam - n / 2 - 1.0
    first = panel_integral(lambda u: (1.0 + u) ** power, (0.0, 1.0), alpha=lam - 1.0)
    rest = panel_integral(lambda u: (1.0 + u[:, None]) ** power * u[:, None] ** np.arange(top),
                          (0.0, 1.0), alpha=lam)
    out = np.concatenate([[first], rest])
    out.flags.writeable = False
    return out


def _tail_integrals(p: ModelParams, xs: np.ndarray, ls, js) -> np.ndarray:
    """C_tail(l, j, x) = x^(2j) * integral over (x^2, inf) of
    (s+1)^(-lam-n/2-1) s^(n/2-j-l) ds for every l of ``ls``, j of ``js``
    and 0 < x <= 1 of ``xs``, shape (len(ls), len(js), len(xs)).  The near
    integral over (x^2, 1) is taken in u = ln s / ln x^2, so every x and
    (l, j) share one batched quadrature on [0, 1]: its uniform panels are at
    most ln 4 wide in ln s, the geometric grading of (x^2, 1) by 4 at the
    least x.  The far integrals over (0, 1) come from ``_far_tails``."""
    n, lam = p.n, p.lam
    power = -lam - n / 2 - 1.0
    # s^e ds = -ln(x^2) s^(e + 1) du
    exps = np.array([n / 2 - j - l + 1.0 for l in ls for j in js])[:, None, None]
    logs = -np.log(xs * xs)

    def g(u):
        s = np.exp(-u[:, None] * logs)
        base = (s + 1.0) ** power * logs
        return np.moveaxis(base * s**exps, 1, 0).reshape(len(u), -1)

    panels = max(1, math.ceil(float(logs.max()) / math.log(4.0)))
    near = panel_integral(g, np.linspace(0.0, 1.0, panels + 1)).reshape(len(exps), len(xs))
    far = _far_tails(n, lam, max(ls) + max(js))[[l + j for l in ls for j in js]]
    total = near + far[:, None]
    return np.array([xs ** (2 * j) for j in js]) * total.reshape(len(ls), len(js), len(xs))


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


def F_decomposed_batch(p: ModelParams, xs, indices) -> dict:
    """{idx: F_idx(x) at every 0 < x <= 1 of ``xs``} through the three-part
    decomposition

        F = x^(n+k) A + x^k B + x^(k+2l-2) sum_j c_j C_tail(l, j, x).

    A, B and the tails depend on the index only through l, so every part is
    computed once per l for all of ``xs`` together: one batched quadrature
    each for A, for B (one panel layout for every x) and for the near tails
    of every (l, j) and x, and two for the far tails (``_far_tails``)."""
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs > 0) & (xs <= 1)):
        raise ValueError("F_decomposed_batch requires 0 < x <= 1")
    n = p.n
    ls = sorted({idx.l for idx in indices})
    js = range(n + 3)
    A = _A_integrals(p, xs, ls)
    B = _B_integrals(p, xs, ls)
    tails = _tail_integrals(p, xs, ls, js)
    out = {}
    for idx in indices:
        k, row = idx.k, ls.index(idx.l)
        tail = sum(c_coeff(p, idx.l, j) * tails[row, j] for j in js)
        out[idx] = (xs ** (n + k) * A[row] + xs**k * B[row]
                    + xs ** (k + 2 * idx.l - 2) * tail)
    return out


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


# an F table's node layout: 0, then a geometric run (first, last, count)
# graded toward 0 where F is least smooth, then a uniform run of this many
# nodes from the geometric run's last to the table's end
_GEOMETRIC_RUN = (1e-4, 0.2, 120)
_UNIFORM_RUN = 1600


def table_nodes(h_max: float) -> np.ndarray:
    """The spline nodes of an F table on [0, max(h_max, 0.4)]."""
    first, last, count = _GEOMETRIC_RUN
    small = np.geomspace(first, last, count)
    bulk = np.linspace(last, max(h_max, 0.4), _UNIFORM_RUN)[1:]
    return np.concatenate([[0.0], small, bulk])


def F_batch(p: ModelParams, xs, indices, record: dict | None = None) -> dict:
    """{idx: F(idx, p, x) at every x of ``xs``} for each index of ``indices``.

    F_kl is x^(n+k) times the Gegenbauer integral of (x^2+2t)^(-lam-n/2-1)
    t^l, so the indices need one integral per distinct l, and (1, 1) and
    (2, 1) share theirs.  The panel rule depends on x only through min(x^2,
    1), so every x >= 1 shares one rule: the nodes are grouped by it, and
    each group is one batched ``gegenbauer_integral``, converged per
    integrand.  At x = 0 the value is ``f_zero``.  With ``record``, its
    ``nodes`` is len(xs) and the quadrature's ``integrals`` and
    ``max_order`` are accumulated into it.
    """
    xs = np.asarray(xs, dtype=float)
    if np.any(xs < 0):
        raise ValueError("F requires x >= 0")
    # the limits at 0 first: the rules they build at x = 1e-4 are then still
    # cached when a table node at 1e-4 asks for them
    limits = {idx: f_zero(idx, p) for idx in indices}
    ls = sorted({idx.l for idx in indices})
    power = -p.lam - p.n / 2 - 1.0
    integrals = np.zeros((len(ls), len(xs)))
    scales = np.minimum(xs * xs, 1.0)
    for scale in np.unique(scales[xs > 0]):
        group = np.flatnonzero(scales == scale)
        x2 = xs[group] * xs[group]

        def g(t):
            # one (nodes, l, x) array: a temporary of its size would stay on
            # the heap, below the allocator's mmap threshold
            out = np.empty((len(t), len(ls), len(group)))
            base = np.add(x2, 2.0 * t[:, None], out=out[:, 0])
            np.power(base, power, out=base)
            for i in reversed(range(len(ls))):  # the base in out[:, 0] last
                if ls[i]:
                    np.multiply(base, t[:, None] ** ls[i], out=out[:, i])
            return out.reshape(len(t), -1)

        vals = gegenbauer_integral(g, p.lam, peak_scale=scale, record=record)
        integrals[:, group] = vals.reshape(len(ls), len(group))
    if record is not None:
        record["nodes"] = record.get("nodes", 0) + len(xs)
    out = {}
    for idx in indices:
        values = xs ** (p.n + idx.k) * integrals[ls.index(idx.l)]
        values[xs == 0] = limits[idx]
        out[idx] = values
    return out


# points per evaluation block: whole-array temporaries of an assembly's size
# would be returned to the system and faulted in again on every call
_EVAL_BLOCK = 8192


def not_a_knot_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (4, len(x) - 1) piece coefficients, highest degree first, of the
    not-a-knot cubic spline through (x, y), len(x) > 3.

    The arithmetic is that of ``scipy.interpolate.CubicSpline``: the node
    slopes from the same tridiagonal system and one ``solve_banded`` call,
    the coefficients formed as ``CubicHermiteSpline`` forms them, so the two
    agree bit for bit.
    """
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    A = np.zeros((3, n))
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b = np.empty(n)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    A[1, 0] = dx[1]
    A[0, 1] = d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    A[1, -1] = dx[-2]
    A[-1, -2] = d
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_banded((1, 1), A, b.reshape(n, 1), overwrite_ab=True, overwrite_b=True,
                     check_finite=False).reshape(n)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


class TabulatedF:
    """Cubic-spline tables of the three ``PROFILES`` on [0, h_max]; for
    vectorized kernel assembly.

    The tables share one node set, ``table_nodes(h_max)``, filled by one
    batched quadrature pass (``F_batch``: two integrals per node, each
    distinct panel rule built once); ``record`` holds that pass's
    ``nodes``, ``integrals`` and ``max_order``.  Each profile's spline is
    the not-a-knot cubic (``not_a_knot_coefficients``), evaluated as
    ``PPoly`` evaluates it, in blocks of ``_EVAL_BLOCK`` points.  Accuracy
    is ~1e-9 relative (checked in the test suite against direct
    quadrature), far below every spectral tolerance that consumes it.
    """

    def __init__(self, p: ModelParams, h_max: float):
        nodes = table_nodes(h_max)
        self.h_max = nodes[-1]
        self.nodes = nodes
        self.record = {}
        values = F_batch(p, nodes, PROFILES, self.record)
        self.coeffs = {idx: not_a_knot_coefficients(nodes, values[idx]) for idx in PROFILES}
        first, last, count = _GEOMETRIC_RUN
        # fractional node index per unit of log(h / first), and per unit of h
        # past last
        self._geometric_rate = (count - 1) / np.log(last / first)
        self._uniform_rate = (_UNIFORM_RUN - 1) / (self.h_max - last)

    def __call__(self, idx: AuxIndex, h):
        h = np.asarray(h, dtype=float)
        if not np.all(h <= self.h_max * (1 + 1e-12)):  # NaN as well
            raise ValueError(f"F table built for h <= {self.h_max}, got {h.max()}")
        coeffs = self.coeffs[idx]
        flat = np.clip(h, 0.0, self.h_max).ravel()
        out = np.empty_like(flat)
        for lo in range(0, len(flat), _EVAL_BLOCK):
            self._evaluate(coeffs, flat[lo:lo + _EVAL_BLOCK], out[lo:lo + _EVAL_BLOCK])
        return out.reshape(h.shape)

    def _evaluate(self, coeffs: np.ndarray, h: np.ndarray, v: np.ndarray) -> None:
        """The spline of ``coeffs`` at h in [0, h_max], into v: the piece
        x[i] <= h < x[i+1] (the last piece closed), then c3 + c2 s + c1 s^2
        + c0 s^3 summed in that order with s = h - x[i], as ``PPoly`` sums
        it."""
        i = self._piece(h)
        c0, c1, c2, c3 = coeffs
        s = np.take(self.nodes, i)
        np.subtract(h, s, out=s)
        term = np.take(c3, i)
        np.take(c2, i, out=v)
        v *= s
        v += term
        z = s * s
        np.take(c1, i, out=term)
        term *= z
        v += term
        z *= s
        np.take(c0, i, out=term)
        term *= z
        v += term

    def _piece(self, h: np.ndarray) -> np.ndarray:
        """searchsorted(x, h, "right") - 1 clipped to [0, len(x) - 2], for h
        in [0, h_max]: the index read off the node layout lands within one
        piece of it, and one step each way against the nodes corrects it."""
        x = self.nodes
        first, last, count = _GEOMETRIC_RUN
        geometric = np.maximum(h, first)
        geometric /= first
        np.log(geometric, out=geometric)
        geometric *= self._geometric_rate
        geometric += 1
        guess = h - last
        guess *= self._uniform_rate
        guess += count
        np.copyto(guess, geometric, where=h < last)
        # every guess is at least 1, so the cast floors it
        i = guess.astype(np.intp)
        np.minimum(i, len(x) - 2, out=i)
        i -= np.take(x, i) > h
        i += np.take(x[1:], i) <= h
        np.minimum(i, len(x) - 2, out=i)
        return i
