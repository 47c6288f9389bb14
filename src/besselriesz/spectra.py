"""Singular values, weak-Schatten diagnostics, the tail certificate of a
solved head, power-law fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .discretize import OperatorMatrix

GRAM_BOUND_MAX = 1e-12  # largest relative error accepted from the Gram route


def singular_values(A, count: int | None = None, record: dict | None = None) -> np.ndarray:
    """Singular values, descending: all of them, or the top ``count``.

    The top ``count`` come from the Gram matrix G = A^T A and a subset
    ``eigh`` of its largest eigenvalues.  Squaring costs relative accuracy
    of about eps * (mu_0 / mu_{count-1})^2; when that bound exceeds
    ``GRAM_BOUND_MAX`` (or mu_{count-1} is 0) the dense SVD runs instead and
    its head is returned.  With ``record`` the solver that ran (``"gram"``
    or ``"dense"``), ``count`` and the Gram bound (None when the Gram route
    was not tried) are written into it.
    """
    entries = A.entries if isinstance(A, OperatorMatrix) else np.asarray(A, dtype=float)
    N = min(entries.shape)
    solver, bound = "dense", None
    if count is None:
        count = N
    else:
        count = int(count)
        if not 0 < count <= N:
            raise ValueError(f"count {count} outside [1, {N}]")
        cols = entries.shape[1]
        # G is symmetric, so G.T is G in the Fortran order that eigh can
        # overwrite in place; a C-ordered G would be copied first
        gram = (entries.T @ entries).T
        lam = scipy.linalg.eigh(
            gram, subset_by_index=[cols - count, cols - 1],
            eigvals_only=True, overwrite_a=True, check_finite=False,
        )[::-1]
        bound = float(np.finfo(float).eps * lam[0] / lam[-1]) if lam[-1] > 0 else np.inf
        if bound <= GRAM_BOUND_MAX:
            solver = "gram"
    if record is not None:
        record.update(solver=solver, count=count, error_bound=bound)
    if solver == "gram":
        return np.sqrt(np.clip(lam, 0.0, None))
    try:
        s = np.linalg.svd(entries, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"SVD failed for a {entries.shape[0]}x{entries.shape[1]} matrix "
            f"(fro={np.linalg.norm(entries):.3e}): {exc}"
        ) from exc
    return np.sort(s)[::-1][:count]


def weak_quasinorm(s, p: float) -> float:
    """sup over k of (k+1)^(1/p) * mu_k for a descending sequence."""
    s = np.asarray(s, dtype=float)
    if s.size == 0:
        raise ValueError("empty singular value sequence")
    if p <= 0:
        raise ValueError("p must be positive")
    k = np.arange(s.size, dtype=float)
    return float(np.max((k + 1.0) ** (1.0 / p) * s))


def tail_certificate(head, frobenius_sq: float, N: int, p: float,
                     error_bound: float = 0.0) -> tuple[float, float]:
    """(head_sup, tail_bound) for the top r singular values ``head`` of a
    matrix with N singular values and squared Frobenius norm ``frobenius_sq``.

    The unsolved values hold the tail mass T_r = |A|_F^2 - sum_{j<r} mu_j^2,
    and every mu_k with k >= r is at most mu_{r-1} and at most
    sqrt(T_r / (k - r + 1)) (Rochberg and Semmes, JFA 1989), so
    ``tail_bound`` = max over k >= r of (k+1)^(1/p) min(mu_{r-1},
    sqrt(T_r / (k - r + 1))) bounds the weighted tail.  When it is at most
    ``head_sup`` = ``weak_quasinorm(head, p)``, the head carries the weak-p
    quasinorm of the whole sequence.  T_r is a difference of nearly equal
    sums, so it is raised by (error_bound + N eps) |A|_F^2, ``error_bound``
    being the relative error of the head's squares (the Gram route's bound;
    0 for a dense SVD): rounding cannot pass the certificate.
    """
    head = np.asarray(head, dtype=float)
    r = head.size
    slack = (error_bound + N * np.finfo(float).eps) * frobenius_sq
    tail = max(frobenius_sq - float(np.dot(head, head)) + slack, 0.0)
    k = np.arange(r, N, dtype=float)
    bound = (k + 1.0) ** (1.0 / p) * np.minimum(head[-1], np.sqrt(tail / (k - r + 1.0)))
    # a head of all N values leaves no tail
    return weak_quasinorm(head, p), float(np.max(bound, initial=0.0))


@dataclass
class WeylFit:
    exponent: float  # free-fit slope of log mu vs log(k+1); ~ -1/p on a power law
    coefficient: float  # exp(intercept) of the free fit
    pinned_coefficient: float  # coefficient with the exponent pinned to -1/p
    window: tuple  # (lo, hi) inclusive 0-based index range used
    residual: float  # rms log-residual of the free fit

    def as_dict(self) -> dict:
        return {
            "exponent": self.exponent,
            "coefficient": self.coefficient,
            "pinned_coefficient": self.pinned_coefficient,
            "window": [int(self.window[0]), int(self.window[1])],
            "residual": self.residual,
        }


def default_window(N: int, lo_exp: float = 0.3, hi_exp: float = 0.7) -> tuple:
    lo = int(np.ceil(N**lo_exp))
    hi = int(np.floor(N**hi_exp))
    return lo, hi


def weyl_fit(s, p: float, window=None) -> WeylFit:
    """Power-law fit of the singular value tail over an index window.

    The head of the spectrum carries the symbol's large-scale shape and the
    tail the discretization cutoff, so the default window is
    [N^0.3, N^0.7].  Both the free fit and the fit with exponent pinned to
    -1/p are reported; ratio experiments consume the pinned coefficient.
    """
    s = np.asarray(s, dtype=float)
    N = s.size
    if window is None:
        window = default_window(N)
    lo, hi = int(window[0]), int(window[1])
    if not (0 <= lo < hi < N):
        raise ValueError(f"window {window} invalid for a sequence of length {N}")
    mu = s[lo : hi + 1]
    if np.any(mu <= 0):
        raise ValueError("zero singular values inside the fit window")
    logk = np.log(np.arange(lo, hi + 1, dtype=float) + 1.0)
    logmu = np.log(mu)
    slope, intercept = np.polyfit(logk, logmu, 1)
    resid = logmu - (slope * logk + intercept)
    pinned = float(np.exp(np.mean(logmu + logk / p)))
    return WeylFit(
        exponent=float(slope),
        coefficient=float(np.exp(intercept)),
        pinned_coefficient=pinned,
        window=(lo, hi),
        residual=float(np.sqrt(np.mean(resid**2))),
    )
