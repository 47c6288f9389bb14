"""Gradient seminorms: the plain L_p gradient norm and its sphere-averaged
directional variant whose ratio the spectral-asymptotic experiments consume."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .discretize import BoxGrid
from .symbols import Symbol


@dataclass(frozen=True)
class SphereRule:
    """Quadrature nodes/weights on the unit sphere S^n in R^(n+1)."""

    nodes: np.ndarray  # (M, n+1) unit vectors
    weights: np.ndarray  # (M,), summing to the surface measure

    @property
    def n(self) -> int:
        return self.nodes.shape[1] - 1


def sphere_rule(n: int, order: int = 64) -> SphereRule:
    """Uniform rule on the circle for n = 1; Gauss-Legendre(cos) x uniform
    product rule for n = 2.  Exact for polynomial integrands up to ~order."""
    if n == 1:
        m = max(order, 64)
        theta = 2.0 * np.pi * np.arange(m) / m
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        weights = np.full(m, 2.0 * np.pi / m)
        return SphereRule(nodes=nodes, weights=weights)
    if n == 2:
        m_polar = max(11, (order + 1) // 2)
        m_azimuth = max(2 * m_polar, 22)
        u, wu = roots_legendre(m_polar)  # u = cos(theta)
        phi = 2.0 * np.pi * np.arange(m_azimuth) / m_azimuth
        su = np.sqrt(1.0 - u**2)
        nodes = np.stack(
            [
                np.outer(su, np.cos(phi)).ravel(),
                np.outer(su, np.sin(phi)).ravel(),
                np.outer(u, np.ones(m_azimuth)).ravel(),
            ],
            axis=-1,
        )
        weights = np.outer(wu, np.full(m_azimuth, 2.0 * np.pi / m_azimuth)).ravel()
        return SphereRule(nodes=nodes, weights=weights)
    raise NotImplementedError("sphere rules implemented for n in {1, 2}")


def sobolev_seminorm(f: Symbol, p: float, box: BoxGrid) -> float:
    """(integral over the box of |grad f|^p dx)^(1/p) by the grid's cell rule."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    grad = f.grad(box.nodes)
    mag = np.sqrt(np.sum(grad**2, axis=-1))
    return float(np.dot(box.cell_weights, mag**p) ** (1.0 / p))


def directional_seminorm(f: Symbol, k: int, p: float, box: BoxGrid, sphere: SphereRule) -> float:
    """Sphere-averaged seminorm mixing the k-th partial with the radial
    projection of the gradient:

        ( int_box int_sphere |d_k f(x) - s_k <s, grad f(x)>|^p dx ds )^(1/p)
    """
    if not p > 1:
        raise ValueError("p must exceed 1")
    if not 1 <= k <= box.dim:
        raise ValueError(f"k must be in [1, {box.dim}]")
    if sphere.nodes.shape[1] != box.dim:
        raise ValueError("sphere dimension does not match the box")
    grad = f.grad(box.nodes)  # (N, dim)
    s = sphere.nodes  # (M, dim)
    radial = grad @ s.T  # (N, M): <s, grad f(x)>
    integrand = np.abs(grad[:, k - 1][:, None] - s[None, :, k - 1] * radial) ** p
    inner = integrand @ sphere.weights  # (N,)
    return float(np.dot(box.cell_weights, inner) ** (1.0 / p))
