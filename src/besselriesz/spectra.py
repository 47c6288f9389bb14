"""Singular values, weak-Schatten diagnostics, the tail certificate of a
solved head, power-law fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.blas

GRAM_BOUND_MAX = 1e-12  # largest relative error accepted from the Gram route


def singular_values(A, count: int | None = None, p: float | None = None,
                    record: dict | None = None) -> np.ndarray:
    """Singular values, descending: the certified top ``count``, or all of them.

    ``A`` is a matrix produced by rows (``discretize.ProducedMatrix``, or the
    ``OperatorMatrix`` that ``assemble`` builds), and both routes solve the
    blocks of its mirror split (``mirror_blocks``; a matrix with no split is
    one block), whose values together are exactly A's, one block at a time.
    With ``count`` the top ``count`` come from the Gram matrices: per block
    B, G = B^T B, summed over B's row blocks (``gram_lower``), and the
    largest min(``count``, size) of all its eigenvalues.  ``eigh`` reduces
    G to tridiagonal form (dsytrd) and takes every eigenvalue of that
    (dsterf), which costs less than bisecting it for a subset; the values
    of every block are merged and the top ``count`` kept.  The head is
    returned only when two certificates hold: the bound
    eps * mu_0^2 / mu_{count-1}^2 on the relative error of the squares (the
    backward error of the reduction) is at most ``GRAM_BOUND_MAX``, and the
    head carries the weak-``p`` quasinorm of the whole sequence
    (``tail_certificate``, with ``p`` the problem's exponent:
    ``tail_bound <= head_sup``).  Without ``count``, or when a certificate
    fails, every value comes from the dense SVD of each block, filled from
    its rows into an array of its own that is freed before the next; a
    block with more columns than rows adds cols - rows zeros.  Neither
    route reads or builds A's ``entries``.  With ``record`` the solver that
    ran (``"gram"`` or ``"dense"``), ``count`` (the number of values
    returned), the error bound, the certificate's ``head_sup`` and
    ``tail_bound``, and ``blocks`` (the number of blocks solved) are written
    into it; a key the solve never reached (no Gram route, or
    mu_{count-1} = 0 and no bound) is None.
    """
    N = A.shape[1]
    blocks = A.mirror_blocks()
    if record is None:
        record = {}
    record.update(solver="dense", count=N, error_bound=None, head_sup=None, tail_bound=None,
                  blocks=len(blocks))
    if count is not None:
        if p is None:
            raise ValueError("a head of count values needs the exponent p to certify it")
        count = int(count)
        if not 0 < count <= N:
            raise ValueError(f"count {count} outside [1, {N}]")
        frobenius_sq = 0.0
        values = []
        for block in blocks:
            cols = block.shape[1]
            gram = gram_lower(block)
            frobenius_sq += float(np.trace(gram))  # read before eigh overwrites G
            # every eigenvalue (dsytrd, then dsterf), ascending; the top
            # min(count, cols) are kept
            values.append(scipy.linalg.eigh(
                gram, lower=True, driver="evd", eigvals_only=True, overwrite_a=True,
                check_finite=False,
            )[cols - min(count, cols):])
            del gram  # freed before the next block's G, or a dense fallback's block
        lam = np.sort(np.concatenate(values))[::-1][:count]
        if lam[-1] > 0:
            bound = float(np.finfo(float).eps * lam[0] / lam[-1])
            record["error_bound"] = bound
            if bound <= GRAM_BOUND_MAX:
                head = np.sqrt(np.clip(lam, 0.0, None))
                head_sup, tail_bound = tail_certificate(head, frobenius_sq, N, p, bound)
                record.update(head_sup=head_sup, tail_bound=tail_bound)
                if tail_bound <= head_sup:
                    record.update(solver="gram", count=count)
                    return head
    values = []
    for block in blocks:
        rows, cols = block.shape
        entries = np.empty(block.shape)
        block.fill(0, entries)
        try:
            values.append(np.linalg.svd(entries, compute_uv=False))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"SVD failed for a {rows}x{cols} matrix "
                f"(fro={np.linalg.norm(entries):.3e}): {exc}"
            ) from exc
        del entries  # freed before the next block's
        values.append(np.zeros(max(cols - rows, 0)))
    return np.sort(np.concatenate(values))[::-1]


def gram_lower(A) -> np.ndarray:
    """The lower triangle of G = A^T A in one Fortran-ordered array, the
    upper triangle left 0.  dsyrk adds each of A's ``row_blocks`` into it,
    so no other array of G's size is held, and ``eigh`` can overwrite it in
    place (a C-ordered G would be copied first)."""
    cols = A.shape[1]
    gram = np.zeros((cols, cols), order="F")
    for block in A.row_blocks():
        # a C-ordered (rows, cols) block is its Fortran-ordered transpose,
        # and dsyrk adds that transpose times its own transpose
        gram = scipy.linalg.blas.dsyrk(1.0, np.ascontiguousarray(block).T, beta=1.0, c=gram,
                                       lower=1, overwrite_c=1)
    return gram


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


def weyl_fit(s, p: float, window) -> WeylFit:
    """Power-law fit of the singular value tail over the inclusive index
    ``window`` (lo, hi).

    The head of the spectrum carries the symbol's large-scale shape and the
    tail the discretization cutoff, so callers take the window from the
    operator's size, ``default_window(N)`` = [N^0.3, N^0.7], not from the
    length of a solved head.  Both the free fit and the fit with exponent
    pinned to -1/p are reported; ratio experiments consume the pinned
    coefficient.
    """
    s = np.asarray(s, dtype=float)
    N = s.size
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
