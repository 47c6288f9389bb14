"""Midpoint tensor grids and symmetric Nystrom assembly of two-point kernels.

Matrices carry their grid and measure exponent with them: a matrix assembled
with ``lam`` lives on L2(x_last^(2 lam) dx), and ``lam=0`` is Lebesgue
measure.  The symmetric sqrt(cell * density) normalization makes matrix
singular values direct approximations of operator singular values there.
"""

from __future__ import annotations

import csv
import itertools
import struct
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

NODE_CAP = 2**14
_MAGIC = b"BRSL"
_VERSION = 1


@dataclass(frozen=True)
class BoxGrid:
    bounds: tuple  # ((a_1, b_1), ..., (a_dim, b_dim))
    points_per_dim: tuple
    nodes: np.ndarray  # (N, dim), lexicographic order
    cell_weights: np.ndarray  # (N,)

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def cell_widths(self) -> np.ndarray:
        return np.array([(b - a) / m for (a, b), m in zip(self.bounds, self.points_per_dim)])

    @property
    def volume(self) -> float:
        return float(np.prod([b - a for a, b in self.bounds]))


def make_grid(bounds, points_per_dim, halfspace: bool = False) -> BoxGrid:
    """Midpoint-rule tensor grid with deterministic lexicographic node order.

    With ``halfspace`` the lower bound of the last coordinate must be positive
    (box compactly inside the upper half-space).
    """
    bounds = tuple((float(a), float(b)) for a, b in bounds)
    if np.isscalar(points_per_dim):
        points_per_dim = (int(points_per_dim),) * len(bounds)
    points_per_dim = tuple(int(m) for m in points_per_dim)
    if len(points_per_dim) != len(bounds):
        raise ValueError("points_per_dim must match the number of bounds")
    for (a, b), m in zip(bounds, points_per_dim):
        if not b > a:
            raise ValueError(f"degenerate interval [{a}, {b}]")
        if m < 1:
            raise ValueError("points_per_dim entries must be >= 1")
    if halfspace and bounds[-1][0] <= 0:
        raise ValueError("half-space box requires the last interval to start above 0")
    total = int(np.prod(points_per_dim))
    if total > NODE_CAP:
        raise ValueError(f"grid of {total} nodes exceeds the cap {NODE_CAP}")

    axes = [
        a + (b - a) * (np.arange(m) + 0.5) / m
        for (a, b), m in zip(bounds, points_per_dim)
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    cell = np.prod([(b - a) / m for (a, b), m in zip(bounds, points_per_dim)])
    weights = np.full(total, cell)
    return BoxGrid(bounds=bounds, points_per_dim=points_per_dim, nodes=nodes, cell_weights=weights)


@dataclass
class OperatorMatrix:
    entries: np.ndarray
    grid: BoxGrid
    measure_exponent: float  # 2*lam: the measure is x_last^(2 lam) dx
    diagonal_bias: float = 0.0

    def __post_init__(self):
        if self.entries.shape != (len(self.grid.nodes),) * 2:
            raise ValueError("entries shape does not match the grid")


def assemble(kernel, grid: BoxGrid, lam: float, zero_diagonal: bool = True,
             symbol=None) -> OperatorMatrix:
    """Symmetric Nystrom matrix A_ij = kernel(x_i, x_j) sqrt(w_i mu_i w_j mu_j)
    on L2(x_last^(2 lam) dx), with mu_i = x_last^(2 lam) at node i; ``lam=0``
    is Lebesgue measure.

    The kernel must broadcast over point arrays of shape (..., dim).  Diagonal
    entries are zeroed by default (commutator-type kernels are odd to leading
    order, so zeroing is unbiased); pass ``zero_diagonal=False`` for kernels
    that are smooth across the diagonal.  ``diagonal_bias`` reports a crude
    cell-local scale of the omitted entries.

    With ``symbol=f`` the result is the commutator matrix
    A_ij = kernel(x_i, x_j) (f(x_j) - f(x_i)) sqrt(w_i mu_i w_j mu_j), and
    ``kernel`` must depend on the lateral coordinates (all but the last) only
    through x' - y'.  On the midpoint grid the kernel matrix is then
    block-Toeplitz in the lateral index, so the kernel is evaluated only on
    its generator, one block of vertical pairs per lateral offset
    (prod(2 m_l - 1) m_v^2 entries instead of N^2), and the matrix is filled
    from it one lateral row block at a time.  The diagonal-bias probes
    evaluate the kernel and the symbol pointwise.
    """
    nodes = grid.nodes
    N = len(nodes)
    norm = np.sqrt(grid.cell_weights * grid.nodes[:, -1] ** (2.0 * lam))
    if symbol is None:
        out = _assemble_dense(kernel, nodes)
        probe = kernel
    else:
        out = _assemble_toeplitz(kernel, symbol, grid)

        def probe(x, y):
            return kernel(x, y) * (symbol(y) - symbol(x))

    idx = np.arange(N)
    if zero_diagonal:
        out[idx, idx] = 0.0
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(out))[0]
        raise FloatingPointError(
            f"kernel evaluation not finite at node pair {tuple(bad.tolist())}: "
            f"x={nodes[bad[0]]}, y={nodes[bad[1]]}"
        )
    out *= norm[:, None]
    out *= norm[None, :]

    bias = 0.0
    if zero_diagonal:
        sample = idx if N <= 1024 else idx[:: max(1, N // 1024)]
        h = grid.cell_widths.min()
        probes = []
        for axis in range(min(grid.dim, 2)):
            e = np.zeros(grid.dim)
            e[axis] = 0.25 * h
            probes.extend([e, -e])
        vals = np.zeros(len(sample))
        for e in probes:
            vals += np.abs(probe(nodes[sample], nodes[sample] + e))
        vals /= len(probes)
        bias = float(np.max(vals * norm[sample] ** 2))

    return OperatorMatrix(
        entries=out, grid=grid, measure_exponent=2.0 * lam, diagonal_bias=bias,
    )


# rows per kernel call in the plain path: bounds the kernel's temporaries
_ROW_BLOCK = 256


def _assemble_dense(kernel, nodes: np.ndarray) -> np.ndarray:
    """kernel(x_i, x_j) on all N^2 node pairs, _ROW_BLOCK rows at a time."""
    N = len(nodes)
    out = np.empty((N, N))
    for lo in range(0, N, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        with np.errstate(divide="ignore", invalid="ignore"):
            out[rows, :] = kernel(nodes[rows, None, :], nodes[None, :, :])
    return out


# generator entries evaluated per kernel call: bounds the kernel's temporaries
_GENERATOR_CHUNK = 2**18


def _toeplitz_generator(kernel, grid: BoxGrid) -> np.ndarray:
    """Kernel blocks of a laterally translation-invariant kernel, one per offset.

    Returns G of shape (2 m_1 - 1, ..., 2 m_n - 1, m_v, m_v) with
    G[d + m - 1][a, b] = kernel(x, y) for any node pair whose lateral indices
    differ by d and whose vertical indices are a and b.  Each offset is
    evaluated at the node pair with lateral indices (max(d, 0), max(-d, 0)).
    """
    *lateral, mv = grid.points_per_dim
    dim = grid.dim
    coords = [np.unique(grid.nodes[:, l]) for l in range(dim)]
    offsets = list(itertools.product(*(range(1 - m, m) for m in lateral)))
    D = len(offsets)
    offsets = np.array(offsets, dtype=int).reshape(D, dim - 1)
    x = np.empty((D, mv, 1, dim))
    y = np.empty((D, 1, mv, dim))
    for l in range(dim - 1):
        x[..., l] = coords[l][np.maximum(offsets[:, l], 0)][:, None, None]
        y[..., l] = coords[l][np.maximum(-offsets[:, l], 0)][:, None, None]
    x[..., -1] = coords[-1][None, :, None]
    y[..., -1] = coords[-1][None, None, :]

    gen = np.empty((D, mv, mv))
    step = max(1, _GENERATOR_CHUNK // (mv * mv))
    for lo in range(0, D, step):
        with np.errstate(divide="ignore", invalid="ignore"):
            gen[lo:lo + step] = kernel(x[lo:lo + step], y[lo:lo + step])
    return gen.reshape(*(2 * m - 1 for m in lateral), mv, mv)


def _assemble_toeplitz(kernel, symbol, grid: BoxGrid) -> np.ndarray:
    """kernel(x_i, x_j) (f(x_j) - f(x_i)) from the lateral Toeplitz generator."""
    *lateral, mv = grid.points_per_dim
    N = len(grid.nodes)
    gen = _toeplitz_generator(kernel, grid)
    fv = np.asarray(symbol(grid.nodes), dtype=float)
    out = np.empty((N, N))
    flip = (slice(None, None, -1),) * len(lateral)
    for row in range(N // mv):
        # lateral column J sits at generator offset I - J + m - 1, which runs
        # down from I + m - 1 to I as J runs up: a reversed slice per axis
        I = np.unravel_index(row, lateral)
        blocks = gen[tuple(slice(i, i + m) for i, m in zip(I, lateral))][flip]
        rows = slice(row * mv, (row + 1) * mv)
        dest = out[rows]
        dest.reshape(mv, *lateral, mv)[...] = np.moveaxis(blocks, -2, 0)
        with np.errstate(invalid="ignore"):
            dest *= fv[None, :] - fv[rows, None]
    return out


def schur_apply(symbol, A: OperatorMatrix) -> OperatorMatrix:
    """Entrywise product B_ij = symbol(x_i, x_j) * A_ij; Nystrom weights untouched."""
    nodes = A.grid.nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        M = symbol(nodes[:, None, :], nodes[None, :, :])
    M = np.asarray(M, dtype=float)
    idx = np.arange(len(nodes))
    M[idx, idx] = np.nan_to_num(M[idx, idx])
    return replace(A, entries=A.entries * M)


def save_matrix(A: OperatorMatrix, path) -> None:
    """Binary export: magic 'BRSL', version, dimension, space tag (1 for a
    weighted measure, 0 for Lebesgue measure), then the entries as
    column-major float64.  A CSV sidecar carries grid metadata."""
    path = Path(path)
    N = len(A.grid.nodes)
    weighted = A.measure_exponent > 0
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, N))
        fh.write(struct.pack("<B", 1 if weighted else 0))
        fh.write(np.asfortranarray(A.entries).tobytes(order="F"))
    with open(path.with_suffix(path.suffix + ".meta.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["key", "value"])
        w.writerow(["dimension", N])
        w.writerow(["space_tag", "weighted" if weighted else "unweighted"])
        w.writerow(["measure_exponent", repr(A.measure_exponent)])
        w.writerow(["diagonal_bias", repr(A.diagonal_bias)])
        w.writerow(["bounds", ";".join(f"{a},{b}" for a, b in A.grid.bounds)])
        w.writerow(["points_per_dim", ";".join(str(m) for m in A.grid.points_per_dim)])


def load_matrix(path) -> tuple[np.ndarray, str]:
    """Read back a matrix written by ``save_matrix``; returns (entries, space_tag)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        version, N = struct.unpack("<II", fh.read(8))
        if version != _VERSION:
            raise ValueError(f"unsupported version {version}")
        (tag,) = struct.unpack("<B", fh.read(1))
        data = np.frombuffer(fh.read(8 * N * N), dtype="<f8")
    entries = data.reshape((N, N), order="F").copy()
    return entries, "weighted" if tag else "unweighted"
