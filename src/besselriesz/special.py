"""Special functions and model constants for the upper-half-space Bessel setting.

Bessel J and Gamma are delegated to scipy.special; this module adds the
radial Fourier-Bessel profiles phi/psi, the generalized binomial coefficient,
and the constant family (heat normalization, inverse-square-root kernel
constant, its gradient multiple, and the classical Riesz normalization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _gamma
from scipy.special import jv as _jv


@dataclass(frozen=True)
class ModelParams:
    """Dimension n (ambient space has n+1 coordinates), weight exponent lam > 0,
    and transform index k in [1, n+1]."""

    n: int
    lam: float
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if not 1 <= self.k <= self.n + 1:
            raise ValueError(f"k must be in [1, {self.n + 1}], got {self.k}")


@dataclass(frozen=True)
class ModelConstants:
    kappa_lambda: float  # heat kernel normalization
    kappa1: float  # inverse-square-root kernel constant
    kappa2: float  # (2*lam + n) * kappa1
    omega_n: float  # classical Riesz kernel constant in dimension n+1
    kappa3: float  # kappa2 / omega_n


def gamma(x):
    """Gamma function (scipy), exposed for oracle formulas."""
    return _gamma(x)


def bessel_j(nu, x):
    """Bessel function of the first kind J_nu(x), x >= 0, nu >= -1/2."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("bessel_j requires x >= 0")
    if np.any(np.asarray(nu) < -0.5):
        raise ValueError("bessel_j requires nu >= -1/2")
    out = _jv(nu, x)
    if out.ndim == 0:
        return float(out)
    return out


def phi_lambda(lam, xi):
    """Radial profile xi^(1/2-lam) * J_(lam-1/2)(xi), continued to xi = 0.

    For small xi the power prefactor is absorbed into the ascending series of
    J to avoid overflow of the separate factors.
    """
    if not lam > 0:
        raise ValueError("phi_lambda requires lam > 0")
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    xi = np.atleast_1d(xi)
    if np.any(xi < 0):
        raise ValueError("phi_lambda requires xi >= 0")
    out = np.empty_like(xi)
    small = xi < 1e-4
    if np.any(small):
        q = 0.25 * xi[small] ** 2
        out[small] = 2.0 ** (0.5 - lam) * (
            1.0 / _gamma(lam + 0.5)
            - q / _gamma(lam + 1.5)
            + 0.5 * q**2 / _gamma(lam + 2.5)
        )
    big = ~small
    if np.any(big):
        xb = xi[big]
        out[big] = xb ** (0.5 - lam) * _jv(lam - 0.5, xb)
    return float(out[0]) if scalar else out


def psi_lambda(lam, t):
    """t^(1/2) * J_(lam-1/2)(t) = t^lam * phi_lambda(t); bounded on (0, inf).

    A float ``t`` (what ``quad`` passes) takes a scalar path with the same
    value as the array path; below 1e-4 it goes through the array code, whose
    ``**`` may differ from libm ``pow`` in the last bit.
    """
    if not lam > 0:
        raise ValueError("psi_lambda requires lam > 0")
    if isinstance(t, float) and t >= 1e-4:
        return float(math.sqrt(t) * _jv(lam - 0.5, t))
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    if np.any(t < 0):
        raise ValueError("psi_lambda requires t >= 0")
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.sqrt(t[pos]) * _jv(lam - 0.5, t[pos])
    tiny = pos & (t < 1e-4)
    if np.any(tiny):
        # t^lam * phi via the series branch; avoids jv overflow for lam < 1/2
        out[tiny] = t[tiny] ** lam * phi_lambda(lam, t[tiny])
    return float(out[0]) if scalar else out


@lru_cache(maxsize=64)
def psi_bound(lam: float, grid_points: int = 4000) -> float:
    """Empirical sup of |psi_lambda| on a log grid over (0, 1e4].

    Used as an envelope constant when truncating spectral integrals.
    """
    t = np.logspace(-6, 4, grid_points)
    return float(np.max(np.abs(psi_lambda(lam, t))))


def gen_binomial(x: float, k: int):
    """Generalized binomial coefficient x(x-1)...(x-k+1)/k!; k = 0 gives 1."""
    if k < 0 or k != int(k):
        raise ValueError("gen_binomial requires a nonnegative integer k")
    result = 1.0
    for i in range(int(k)):
        result *= (x - i) / (i + 1)
    return result


def riesz_constant(n: int) -> float:
    """Normalization of the classical Riesz kernel (y-x)_l / |x-y|^(n+2) in
    dimension n+1: Gamma((n+2)/2) / pi^((n+2)/2)."""
    return float(_gamma((n + 2) / 2) / np.pi ** ((n + 2) / 2))


@lru_cache(maxsize=64)
def model_constants(p: ModelParams) -> ModelConstants:
    """All model constants for the given (n, lam), memoised per parameter set.

    kappa_lambda normalizes the heat kernel so the semigroup preserves
    constants; kappa1 is the resulting constant of the inverse-square-root
    kernel after subordination.  The chain kappa2 = (2*lam + n) * kappa1 and
    kappa3 = kappa2 / omega_n is kept exact so downstream kernel identities
    cancel the absolute scale.
    """
    n, lam = p.n, p.lam
    kappa_lambda = 2.0 ** (-2.0 * lam - n) * np.pi ** (-(n + 1) / 2) / _gamma(lam)
    kappa1 = np.pi ** (-(n + 2) / 2) * _gamma(lam + n / 2) / _gamma(lam)
    kappa2 = (2.0 * lam + n) * kappa1
    omega_n = riesz_constant(n)
    kappa3 = kappa2 / omega_n
    return ModelConstants(
        kappa_lambda=float(kappa_lambda),
        kappa1=float(kappa1),
        kappa2=float(kappa2),
        omega_n=omega_n,
        kappa3=float(kappa3),
    )
