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
    if len(breaks) == 2:
        x, w = _jacobi_rule(order, beta, alpha)
        half = 0.5 * (hi - lo)
        t, w = 0.5 * (hi + lo) + half * x, w * half ** (alpha + beta + 1.0)
    else:
        # (t-lo)^alpha dt maps to half^(alpha+1) (1+xi)^alpha dxi on [-1, 1]
        a, b = breaks[0], breaks[1]
        x, w = _jacobi_rule(order, 0.0, alpha)
        half = 0.5 * (b - a)
        t_first = 0.5 * (b + a) + half * x
        w_first = w * half ** (alpha + 1.0) * (hi - t_first) ** beta
        a, b = breaks[-2], breaks[-1]
        x, w = _jacobi_rule(order, beta, 0.0)
        half = 0.5 * (b - a)
        t_last = 0.5 * (b + a) + half * x
        w_last = w * half ** (beta + 1.0) * (t_last - lo) ** alpha
        # the interior panels at once, one row each
        a, b = np.array(breaks[1:-2]), np.array(breaks[2:-1])
        x, w = _legendre_rule(order)
        half = (0.5 * (b - a))[:, None]
        t_mid = (0.5 * (b + a))[:, None] + half * x
        w_mid = w * half * (t_mid - lo) ** alpha * (hi - t_mid) ** beta
        t = np.concatenate([t_first, t_mid.ravel(), t_last])
        w = np.concatenate([w_first, w_mid.ravel(), w_last])
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
    record: dict | None = None,
):
    """Integrate g(t) * (t-a)^alpha * (b-t)^beta over [a, b] = [breaks[0], breaks[-1]].

    ``g`` must accept an ndarray of nodes and return one value per node, or
    a (nodes, m) array of m integrands sharing the rule; the result is then a
    float, or the m integrals.  The order of every panel doubles from 16, and
    each integrand's value is the first that agrees with the one before to
    ``rel_tol``; while any integrand has not converged past order 256 a
    ``QuadratureError`` is raised.  With ``fixed_order`` the rule is applied
    once without adaptivity, which keeps the quadrature error a smooth
    function of any parameters of g (useful for finite differencing through
    the result).  With ``record`` the number of integrands is added to
    ``record["integrals"]`` and the highest order used is kept in
    ``record["max_order"]``.
    """
    breaks = tuple(breaks)

    def value(order: int):
        t, w = _panel_rule(breaks, alpha, beta, order)
        return np.asarray(np.dot(w, g(t)))

    order = 16 if fixed_order is None else fixed_order
    cur = value(order)
    if fixed_order is None:
        result = np.full(cur.shape, np.nan)
        pending = np.ones(cur.shape, dtype=bool)
        while pending.any():
            if order >= 256:
                worst = np.argmax(np.where(pending, err, -np.inf))
                raise QuadratureError("panel_integral did not converge",
                                      cur.flat[worst], err.flat[worst])
            order *= 2
            prev, cur = cur, value(order)
            err = np.abs(cur - prev)
            done = pending & (err <= rel_tol * np.maximum(np.abs(cur), 1e-300))
            result[done] = cur[done]
            pending &= ~done
        cur = result
    if record is not None:
        record["integrals"] = record.get("integrals", 0) + cur.size
        record["max_order"] = max(record.get("max_order", 0), order)
    return float(cur) if cur.ndim == 0 else cur


def gegenbauer_integral(
    g,
    lam: float,
    peak_scale: float = 1.0,
    fixed_order: int | None = None,
    record: dict | None = None,
):
    """Integrate g(t) * (2t - t^2)^(lam - 1) over t in (0, 2) to 1e-12 relative.

    ``peak_scale`` is the width of any sharp feature of g at t = 0: panels are
    graded geometrically from it up to 1 (grading hint only; correctness does
    not depend on it).  ``g`` may return a batch of integrands, and
    ``fixed_order`` and ``record`` are passed to ``panel_integral``.
    """
    start = min(max(peak_scale, 1e-14), 1.0)
    breaks = tuple(geometric_breaks(start, 1.0)) + (2.0,)
    return panel_integral(
        g, breaks, lam - 1.0, lam - 1.0, rel_tol=1e-12, fixed_order=fixed_order, record=record
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
