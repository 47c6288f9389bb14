"""Gauss-Jacobi panel quadrature for integrals with Gegenbauer-type endpoint weights.

Everything here integrates against the weight t^a (2-t)^b on (0, 2), which is the
algebraic form of the sin^(2*lam-1) weight produced by the substitution
t = 2*sin(theta/2)**2.  Endpoint singularities are absorbed into Gauss-Jacobi
rules; sharply peaked integrands near t = 0 are handled with geometrically
graded interior panels.
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


def _panel_nodes(breaks: np.ndarray, lam: float, order: int):
    """Nodes/weights for integrating g(t)*t^(lam-1)*(2-t)^(lam-1) over [breaks[0], 2].

    The leftmost panel carries the t^(lam-1) factor in a Jacobi rule, the
    rightmost panel (ending at 2) carries (2-t)^(lam-1); interior panels use
    Gauss-Legendre with the full weight evaluated explicitly.  Memoized; the
    returned arrays are shared between callers and therefore read-only.
    """
    return _panel_nodes_cached(tuple(breaks), lam, order)


@lru_cache(maxsize=256)
def _panel_nodes_cached(breaks: tuple, lam: float, order: int):
    ts = []
    ws = []
    for i in range(len(breaks) - 1):
        a, b = breaks[i], breaks[i + 1]
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        if i == 0 and a == 0.0:
            # t^(lam-1) dt maps to (b/2)^lam (1+xi)^(lam-1) dxi on [-1, 1]
            x, w = _jacobi_rule(order, 0.0, lam - 1.0)
            t = mid + half * x
            weight = w * half**lam * (2.0 - t) ** (lam - 1.0)
        elif i == len(breaks) - 2 and b == 2.0:
            x, w = _jacobi_rule(order, lam - 1.0, 0.0)
            t = mid + half * x
            weight = w * half**lam * t ** (lam - 1.0)
        else:
            x, w = _legendre_rule(order)
            t = mid + half * x
            weight = w * half * t ** (lam - 1.0) * (2.0 - t) ** (lam - 1.0)
        ts.append(t)
        ws.append(weight)
    t, w = np.concatenate(ts), np.concatenate(ws)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def _breakpoints(peak_scale: float) -> np.ndarray:
    """Geometric grading from the peak scale of the integrand up to 2."""
    if peak_scale >= 1.0:
        return np.array([0.0, 1.0, 2.0])
    h = max(peak_scale, 1e-14)
    pts = [0.0]
    while h < 1.0:
        pts.append(h)
        h *= 4.0
    pts.extend([1.0, 2.0])
    return np.array(pts)


def gegenbauer_integral(
    g,
    lam: float,
    peak_scale: float = 1.0,
    rel_tol: float = 1e-12,
    abs_floor: float = 0.0,
    max_order: int = 256,
    fixed_order: int | None = None,
) -> float:
    """Integrate g(t) * (2t - t^2)^(lam - 1) over t in (0, 2).

    ``g`` must accept an ndarray of nodes.  ``peak_scale`` is the width of any
    sharp feature of g at t = 0 (grading hint only; correctness does not
    depend on it).  With ``fixed_order`` the rule is applied once without
    adaptivity, which keeps the quadrature error a smooth function of any
    parameters of g (useful for finite differencing through the result).
    """
    breaks = _breakpoints(peak_scale)
    if fixed_order is not None:
        t, w = _panel_nodes(breaks, lam, fixed_order)
        return float(np.dot(w, g(t)))
    order = 16
    t, w = _panel_nodes(breaks, lam, order)
    prev = float(np.dot(w, g(t)))
    err = np.inf
    while order < max_order:
        order *= 2
        t, w = _panel_nodes(breaks, lam, order)
        cur = float(np.dot(w, g(t)))
        err = abs(cur - prev)
        if err <= rel_tol * max(abs(cur), abs_floor):
            return cur
        prev = cur
    if err <= 10 * rel_tol * max(abs(cur), abs_floor, 1e-300):
        return cur
    raise QuadratureError("gegenbauer_integral did not converge", cur, err)


def left_weighted_integral(
    g,
    left_exponent: float,
    breaks: np.ndarray,
    rel_tol: float = 1e-13,
    max_order: int = 256,
) -> float:
    """Integrate g(t) * t^left_exponent over [breaks[0], breaks[-1]], breaks[0] = 0.

    The first panel uses a Gauss-Jacobi rule for the t^a endpoint factor;
    the remaining panels are Gauss-Legendre with the factor evaluated directly.
    """
    a_exp = left_exponent

    def once(order: int) -> float:
        total = 0.0
        for i in range(len(breaks) - 1):
            a, b = breaks[i], breaks[i + 1]
            half = 0.5 * (b - a)
            mid = 0.5 * (b + a)
            if i == 0:
                x, w = _jacobi_rule(order, 0.0, a_exp)
                t = mid + half * x
                total += half ** (a_exp + 1.0) * np.dot(w, g(t))
            else:
                x, w = _legendre_rule(order)
                t = mid + half * x
                total += half * np.dot(w, g(t) * t**a_exp)
        return total

    order = 16
    prev = once(order)
    err = np.inf
    while order < max_order:
        order *= 2
        cur = once(order)
        err = abs(cur - prev)
        if err <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError("left_weighted_integral did not converge", cur, err)


def jacobi_interval_integral(
    g,
    a: float,
    b: float,
    left_exp: float = 0.0,
    right_exp: float = 0.0,
    rel_tol: float = 1e-13,
    max_order: int = 256,
) -> float:
    """Integrate g(t) * (t-a)^left_exp * (b-t)^right_exp over [a, b] adaptively."""
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    factor = half ** (left_exp + right_exp + 1.0)

    def once(order: int) -> float:
        x, w = _jacobi_rule(order, right_exp, left_exp)
        return factor * float(np.dot(w, g(mid + half * x)))

    order = 16
    prev = once(order)
    err = np.inf
    while order < max_order:
        order *= 2
        cur = once(order)
        err = abs(cur - prev)
        if err <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError("jacobi_interval_integral did not converge", cur, err)


def legendre_panels_integral(
    g,
    breaks: np.ndarray,
    rel_tol: float = 1e-13,
    max_order: int = 256,
) -> float:
    """Integrate a smooth g over consecutive panels with Gauss-Legendre."""

    def once(order: int) -> float:
        x, w = _legendre_rule(order)
        total = 0.0
        for i in range(len(breaks) - 1):
            half = 0.5 * (breaks[i + 1] - breaks[i])
            mid = 0.5 * (breaks[i + 1] + breaks[i])
            total += half * float(np.dot(w, g(mid + half * x)))
        return total

    order = 16
    prev = once(order)
    err = np.inf
    while order < max_order:
        order *= 2
        cur = once(order)
        err = abs(cur - prev)
        if err <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError("legendre_panels_integral did not converge", cur, err)


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
