"""Multiplication symbols: bounded functions on the half-space with analytic
gradients and support boxes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Symbol:
    """A bounded scalar function with its analytic gradient.

    ``func`` maps point arrays of shape (..., dim) to values of shape (...);
    ``gradient`` maps them to (..., dim).  ``support`` is an optional box,
    ((lo_1, hi_1), ..., (lo_dim, hi_dim)), outside which the symbol is
    numerically negligible (a bump is below 1e-4 of its peak there).
    """

    func: callable
    gradient: callable
    support: tuple | None = None

    def __call__(self, pts):
        return self.func(np.asarray(pts, dtype=float))

    def grad(self, pts):
        return self.gradient(np.asarray(pts, dtype=float))


def constant_symbol(value: float) -> Symbol:
    return Symbol(
        func=lambda x: np.full(x.shape[:-1], float(value)),
        gradient=lambda x: np.zeros(x.shape),
    )


def scale_symbol(f: Symbol, c: float) -> Symbol:
    return Symbol(func=lambda x: c * f.func(x), gradient=lambda x: c * f.gradient(x),
                  support=f.support)


def translate_symbol(f: Symbol, shift) -> Symbol:
    """Translate by ``shift`` (f_new(x) = f(x - shift))."""
    shift = np.asarray(shift, dtype=float)
    support = None
    if f.support is not None:
        support = tuple((a + s, b + s) for (a, b), s in zip(f.support, shift))
    return Symbol(func=lambda x: f.func(x - shift), gradient=lambda x: f.gradient(x - shift),
                  support=support)


def gaussian_bump(center, width: float, amplitude: float = 1.0) -> Symbol:
    """amplitude * exp(-|x - center|^2 / (2 width^2))."""
    center = np.asarray(center, dtype=float)
    w2 = float(width) ** 2

    def func(x):
        return amplitude * np.exp(-0.5 * np.sum((x - center) ** 2, axis=-1) / w2)

    def gradient(x):
        return func(x)[..., None] * (-(x - center) / w2)

    # exp(-r^2 / (2 width^2)) = 1e-4 at the radius r, about 4.29 widths
    r = width * np.sqrt(-2.0 * np.log(1e-4))
    support = tuple((c - r, c + r) for c in center)
    return Symbol(func=func, gradient=gradient, support=support)


def cosine_bump(center, width, amplitude: float = 1.0) -> Symbol:
    """amplitude * prod_i cos^2(pi (x_i - c_i) / (2 w_i)) on |x_i - c_i| < w_i."""
    center = np.asarray(center, dtype=float)
    width = np.broadcast_to(np.asarray(width, dtype=float), center.shape).copy()

    def factors(x):
        u = (x - center) / width
        inside = np.abs(u) < 1.0
        c = np.where(inside, np.cos(0.5 * np.pi * u), 0.0)
        return u, inside, c

    def func(x):
        _, _, c = factors(x)
        return amplitude * np.prod(c**2, axis=-1)

    def gradient(x):
        u, inside, c = factors(x)
        s = np.where(inside, np.sin(0.5 * np.pi * u), 0.0)
        prod_all = np.prod(c**2, axis=-1)
        out = np.zeros(x.shape)
        for i in range(x.shape[-1]):
            ci2 = c[..., i] ** 2
            others = np.where(ci2 > 0, prod_all / np.where(ci2 > 0, ci2, 1.0), 0.0)
            out[..., i] = (
                amplitude * others * (-np.pi / width[i]) * c[..., i] * s[..., i]
            )
        return out

    support = tuple((c - w, c + w) for c, w in zip(center, width))
    return Symbol(func=func, gradient=gradient, support=support)


def coordinate_window(axis: int, center, width, amplitude: float = 1.0) -> Symbol:
    """(x_axis - c_axis) times a Gaussian window; a localized coordinate symbol."""
    center = np.asarray(center, dtype=float)
    g = gaussian_bump(center, width, 1.0)

    def func(x):
        return amplitude * (x[..., axis] - center[axis]) * g.func(x)

    def gradient(x):
        gv = g.func(x)
        gg = g.gradient(x)
        out = amplitude * (x[..., axis] - center[axis])[..., None] * gg
        out[..., axis] += amplitude * gv
        return out

    return Symbol(func=func, gradient=gradient, support=g.support)


def coordinate_symbol(axis: int, dim: int) -> Symbol:
    """The unbounded coordinate function x_axis (for analytic test cases)."""

    def gradient(x):
        out = np.zeros(x.shape)
        out[..., axis] = 1.0
        return out

    return Symbol(func=lambda x: x[..., axis], gradient=gradient)


def build_symbol(spec: dict) -> Symbol:
    """Construct a symbol from a config mapping (see the experiment schema)."""
    kinds = {"gaussian-bump", "cosine-bump", "coordinate-window", "constant"}
    kind = spec.get("kind")
    if kind not in kinds:
        raise ValueError(f"symbol.kind must be one of {sorted(kinds)}, got {kind!r}")
    amplitude = float(spec.get("amplitude", 1.0))
    if kind == "constant":
        return constant_symbol(amplitude)
    center = spec["center"]
    width = spec["width"]
    if kind == "gaussian-bump":
        return gaussian_bump(center, float(width), amplitude)
    if kind == "cosine-bump":
        return cosine_bump(center, width, amplitude)
    return coordinate_window(int(spec.get("axis", 0)), center, float(width), amplitude)
