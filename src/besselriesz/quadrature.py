"""Gauss-Jacobi panel quadrature for integrals with Gegenbauer-type endpoint weights.

Every endpoint-weighted integral here is one ``panel_integral``: g(t) against
(t-a)^alpha (b-t)^beta on a panelled interval [a, b], with the endpoint
singularities absorbed into Gauss-Jacobi rules on the end panels and the
order of every panel doubled until two values agree.  ``gegenbauer_integral``
is the case t^(lam-1) (2-t)^(lam-1) on (0, 2), the algebraic form of the
sin^(2*lam-1) weight produced by the substitution t = 2*sin(theta/2)**2, with
panels graded geometrically toward sharp peaks at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the achieved error estimate."""

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(f"{message} (value={value:.6e}, err~{error_estimate:.2e})")
        self.value = value
        self.error_estimate = error_estimate


@lru_cache(maxsize=512)
def _jacobi_rule(order: int, alpha: float, beta: float):
    x, w = roots_jacobi(order, alpha, beta)
    return x, w


@lru_cache(maxsize=128)
def _legendre_rule(order: int):
    x, w = roots_legendre(order)
    return x, w


@lru_cache(maxsize=256)
def _panel_rule(breaks: tuple, alpha: float, beta: float, order: int):
    """Nodes/weights for integrating g(t)*(t-lo)^alpha*(hi-t)^beta over [lo, hi].

    Here lo, hi = breaks[0], breaks[-1].  The first panel carries the
    (t-lo)^alpha factor in a Jacobi rule, the last panel carries (hi-t)^beta,
    a single panel carries both; interior panels use Gauss-Legendre with the
    full weight evaluated explicitly.  Memoized; the returned arrays are
    shared between callers and therefore read-only.
    """
    lo, hi = breaks[0], breaks[-1]
    last = len(breaks) - 2
    ts = []
    ws = []
    for i in range(last + 1):
        a, b = breaks[i], breaks[i + 1]
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        if i == 0 and i == last:
            x, w = _jacobi_rule(order, beta, alpha)
            t = mid + half * x
            weight = w * half ** (alpha + beta + 1.0)
        elif i == 0:
            # (t-lo)^alpha dt maps to half^(alpha+1) (1+xi)^alpha dxi on [-1, 1]
            x, w = _jacobi_rule(order, 0.0, alpha)
            t = mid + half * x
            weight = w * half ** (alpha + 1.0) * (hi - t) ** beta
        elif i == last:
            x, w = _jacobi_rule(order, beta, 0.0)
            t = mid + half * x
            weight = w * half ** (beta + 1.0) * (t - lo) ** alpha
        else:
            x, w = _legendre_rule(order)
            t = mid + half * x
            weight = w * half * (t - lo) ** alpha * (hi - t) ** beta
        ts.append(t)
        ws.append(weight)
    t, w = np.concatenate(ts), np.concatenate(ws)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def panel_integral(
    g,
    breaks,
    alpha: float = 0.0,
    beta: float = 0.0,
    rel_tol: float = 1e-13,
    fixed_order: int | None = None,
) -> float:
    """Integrate g(t) * (t-a)^alpha * (b-t)^beta over [a, b] = [breaks[0], breaks[-1]].

    ``g`` must accept an ndarray of nodes.  The order of every panel doubles
    from 16 until two successive values agree to ``rel_tol``; past order 256
    a ``QuadratureError`` is raised.  With ``fixed_order`` the rule is applied
    once without adaptivity, which keeps the quadrature error a smooth
    function of any parameters of g (useful for finite differencing through
    the result).
    """
    breaks = tuple(breaks)

    def value(order: int) -> float:
        t, w = _panel_rule(breaks, alpha, beta, order)
        return float(np.dot(w, g(t)))

    if fixed_order is not None:
        return value(fixed_order)
    order = 16
    prev = value(order)
    while order < 256:
        order *= 2
        cur = value(order)
        err = abs(cur - prev)
        if err <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError("panel_integral did not converge", cur, err)


def gegenbauer_integral(
    g,
    lam: float,
    peak_scale: float = 1.0,
    fixed_order: int | None = None,
) -> float:
    """Integrate g(t) * (2t - t^2)^(lam - 1) over t in (0, 2) to 1e-12 relative.

    ``peak_scale`` is the width of any sharp feature of g at t = 0: panels are
    graded geometrically from it up to 1 (grading hint only; correctness does
    not depend on it).  ``fixed_order`` is passed to ``panel_integral``.
    """
    start = min(max(peak_scale, 1e-14), 1.0)
    breaks = tuple(geometric_breaks(start, 1.0)) + (2.0,)
    return panel_integral(
        g, breaks, lam - 1.0, lam - 1.0, rel_tol=1e-12, fixed_order=fixed_order
    )


def geometric_breaks(start: float, stop: float, ratio: float = 4.0) -> np.ndarray:
    """Breakpoints [0, start, start*ratio, ..., stop] grading toward 0."""
    pts = [0.0]
    h = start
    while h < stop:
        pts.append(h)
        h *= ratio
    pts.append(stop)
    return np.array(pts)


@dataclass
class BoxRule:
    """Tensor-product Gauss-Legendre rule over a rectangular box."""

    nodes: np.ndarray  # (N, dim)
    weights: np.ndarray  # (N,)


def gauss_legendre_box(bounds, order: int) -> BoxRule:
    """Gauss-Legendre product rule with `order` points per dimension."""
    xs = []
    ws = []
    for a, b in bounds:
        x, w = _legendre_rule(order)
        xs.append(0.5 * (b + a) + 0.5 * (b - a) * x)
        ws.append(0.5 * (b - a) * w)
    grids = np.meshgrid(*xs, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weight_grids = np.meshgrid(*ws, indexing="ij")
    weights = np.ones(nodes.shape[0])
    for wg in weight_grids:
        weights = weights * wg.ravel()
    return BoxRule(nodes=nodes, weights=weights)
