"""Midpoint tensor grids and symmetric Nystrom assembly of commutators.

A commutator matrix is held in one form: the row producer of its lateral
block-Toeplitz generator (``OperatorMatrix``, a ``ProducedMatrix`` built by
``assemble``, with the row producers of its mirror blocks), whose dense
entries are built only when read.  Matrices carry their grid and
measure exponent with them: a matrix assembled with ``lam`` lives on
L2(x_last^(2 lam) dx), and ``lam=0`` is Lebesgue measure.  The symmetric
sqrt(cell * density) normalization makes matrix singular values direct
approximations of operator singular values there.
"""

from __future__ import annotations

import csv
import itertools
import numbers
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NODE_CAP = 2**14
_MAGIC = b"BRSL"
_VERSION = 1
# save_matrix's header: magic, version, dimension, space tag
_HEADER = struct.Struct("<4sIIB")


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


def make_grid(bounds, points_per_dim, halfspace: bool = False) -> BoxGrid:
    """Midpoint-rule tensor grid with deterministic lexicographic node order.

    With ``halfspace`` the lower bound of the last coordinate must be positive
    (box compactly inside the upper half-space).  Each lateral axis (all but
    the last) is built as mirror pairs: its first m // 2 nodes are a + b
    minus the last m // 2 in reverse, so a symbol centred on the box's
    lateral mirror takes exactly mirror-even values and the commutator
    splits into half-size blocks (``assemble``).  The plain midpoint formula
    gives mirror images bit for bit only when m is a power of two, and for
    those m the nodes are the same.
    """
    bounds = tuple((float(a), float(b)) for a, b in bounds)
    if np.isscalar(points_per_dim):
        points_per_dim = (points_per_dim,) * len(bounds)
    for m in points_per_dim:
        # int() would truncate 48.7 to 48; an integral float (48.0) is a count
        if isinstance(m, bool) or not isinstance(m, numbers.Real) or not float(m).is_integer():
            raise ValueError(f"points_per_dim entries must be integers, got {m!r}")
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
    for (a, b), x in zip(bounds[:-1], axes[:-1]):
        half = len(x) // 2
        x[:half] = (a + b) - x[::-1][:half]
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    cell = np.prod([(b - a) / m for (a, b), m in zip(bounds, points_per_dim)])
    weights = np.full(total, cell)
    return BoxGrid(bounds=bounds, points_per_dim=points_per_dim, nodes=nodes, cell_weights=weights)


class ProducedMatrix:
    """A (rows, cols) matrix held as its row producer.  ``make_fill()``
    returns a function ``fill(lo, out)`` that writes rows lo, lo + 1, ...
    into the C-ordered ``out``, with ``lo`` and ``len(out)`` multiples of
    ``mv``; one such function serves a whole pass over the rows and holds
    that pass's work arrays.  ``entries``, the dense matrix, is built when
    first read and kept."""

    def __init__(self, shape: tuple, make_fill, mv: int):
        self.shape = shape
        self.make_fill = make_fill
        self._mv = mv
        self._entries = None

    def fill(self, lo: int, out: np.ndarray) -> None:
        """Write rows lo, lo + 1, ... into ``out`` in one pass."""
        self.make_fill()(lo, out)

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = np.empty(self.shape)
            self.fill(0, self._entries)
        return self._entries

    def row_blocks(self):
        """The rows in order, one lateral row block (``mv`` rows) at a time,
        each filled into one reused C-ordered buffer by one pass's fill, so
        each block must be read before the next is asked for."""
        nrows, ncols = self.shape
        fill = self.make_fill()
        buf = np.empty((self._mv, ncols))
        for lo in range(0, nrows, self._mv):
            fill(lo, buf)
            yield buf

    def mirror_blocks(self) -> tuple:
        """Matrices whose singular values together are exactly this
        matrix's: here the matrix itself."""
        return (self,)


class OperatorMatrix(ProducedMatrix):
    """An N x N Nystrom commutator matrix on ``grid``, produced from its
    lateral Toeplitz generator; ``assemble`` builds it.  ``mirror`` is the
    tuple of the blocks of its mirror split (``_mirror_split``), empty when
    it has none.  ``generator`` is the record of the generator it is
    produced from (``_toeplitz_generator``)."""

    def __init__(self, make_fill, grid: BoxGrid, measure_exponent: float, diagonal_bias: float,
                 generator: dict, mirror: tuple = ()):
        super().__init__((len(grid.nodes),) * 2, make_fill, grid.points_per_dim[-1])
        self.grid = grid
        self.measure_exponent = measure_exponent  # 2*lam: the measure is x_last^(2 lam) dx
        self.diagonal_bias = diagonal_bias
        self.generator = generator
        self.mirror = mirror

    def mirror_blocks(self) -> tuple:
        """The blocks of the mirror split, or the matrix itself when it has
        none."""
        return self.mirror or super().mirror_blocks()


def assemble(kernel, grid: BoxGrid, lam: float, symbol, signs):
    """The commutator matrix
    A_ij = kernel(x_i, x_j) (f(x_j) - f(x_i)) sqrt(w_i mu_i w_j mu_j) of the
    symbol f on L2(x_last^(2 lam) dx), with mu_i = x_last^(2 lam) at node i;
    ``lam=0`` is Lebesgue measure.

    ``kernel`` must broadcast over point arrays of shape (..., dim) and
    depend on the lateral coordinates (all but the last) only through
    x' - y', and ``signs`` states its parity along each lateral axis:
    sign_l = +1 (even) or -1 (odd) under x'_l - y'_l -> -(x'_l - y'_l), at
    every offset (``kernels.riesz_signs`` for the Riesz kernel).  It is
    evaluated only on its lateral block-Toeplitz generator, with the
    Nystrom weights folded in (``nystrom_generator``), whose build checks
    the declared parity at its probes and raises a ValueError naming the
    axis where it fails (``_toeplitz_generator``).  The matrix keeps that
    generator and the symbol values and produces its rows from them one
    lateral row block at a time; the dense entries are built only when
    read, and its ``generator`` attribute holds the generator's record.
    Along each lateral axis where the symbol values equal their mirror
    image exactly (``_mirror_symmetry``), the matrix also carries its split
    into half-size blocks (``_mirror_split``), built with it.  With a tuple
    of symbols the result is the tuple of their commutator matrices, which
    share one generator.

    The diagonal, where f(x_j) - f(x_i) = 0 and a singular kernel has no
    value, is zeroed.  Zeroing is not unbiased: the Riesz kernel and
    f(y) - f(x) are both odd in x - y, so their product is even and the
    omitted self-cell integral is O(h), not zero.  ``diagonal_bias``
    measures the size of the omitted entries, and nothing corrects for it:
    the largest over nodes (every node up to N = 1024, else every
    (N // 1024)-th node) of w_i mu_i times the mean
    |kernel(x, y) (f(y) - f(x))| at the points a quarter of the smallest
    cell width off the node, both ways along each of the first two axes.
    These probes evaluate the kernel and the symbol pointwise.
    """
    nodes = grid.nodes
    symbols = symbol if isinstance(symbol, tuple) else (symbol,)
    values = []
    for sym in symbols:
        fv = np.asarray(sym(nodes), dtype=float)
        if not np.all(np.isfinite(fv)):
            bad = int(np.argmax(~np.isfinite(fv)))
            raise FloatingPointError(f"symbol not finite at node {bad}: x={nodes[bad]}")
        values.append(fv)
    gen, generator, norm = nystrom_generator(kernel, grid, lam, signs)
    matrices = []
    for sym, fv in zip(symbols, values):
        split = _mirror_symmetry(generator["signs"], fv, grid)

        def probe(x, y, sym=sym):
            return kernel(x, y) * (sym(y) - sym(x))

        matrices.append(OperatorMatrix(_toeplitz_rows(gen, fv, grid).make_fill, grid, 2.0 * lam,
                                       _diagonal_bias(probe, grid, norm), generator,
                                       _mirror_split(gen, fv, grid, split)))
    return tuple(matrices) if isinstance(symbol, tuple) else matrices[0]


def nystrom_generator(kernel, grid: BoxGrid, lam: float, signs) -> tuple:
    """The lateral Toeplitz generator of the Nystrom matrix
    kernel(x_i, x_j) norm_i norm_j, with norm_i = sqrt(w_i mu_i) and
    mu_i = x_last^(2 lam) at node i; returns (G, record, norm).

    G and record are ``_toeplitz_generator``'s, so ``kernel`` must depend on
    the lateral coordinates only through x' - y', with the parity ``signs``
    along the lateral axes.  The cells are uniform laterally, so norm_i
    depends on the vertical index a only, and norm_a norm_b is folded into
    every block of G once, in place: G[I - J + m - 1][a, b] is the matrix
    entry at node pair (i, j) with lateral indices I, J and vertical
    indices a, b.  Every entry must be finite except the zero offset's
    diagonal a = b, where a singular kernel has no value
    (``_first_nonfinite_pair``)."""
    nodes = grid.nodes
    norm = np.sqrt(grid.cell_weights * nodes[:, -1] ** (2.0 * lam))
    gen, record = _toeplitz_generator(kernel, grid, signs)
    pair = _first_nonfinite_pair(gen, grid)
    if pair is not None:
        i, j = (int(k) for k in pair)
        raise FloatingPointError(
            f"kernel evaluation not finite at node pair {(i, j)}: x={nodes[i]}, y={nodes[j]}")
    mv = grid.points_per_dim[-1]
    vertical = norm[:mv]
    if not np.array_equal(norm.reshape(-1, mv), np.broadcast_to(vertical, (len(nodes) // mv, mv))):
        raise ValueError("the Toeplitz generator needs Nystrom weights that are uniform laterally")
    gen *= np.multiply.outer(vertical, vertical)
    return gen, record, norm


def _diagonal_bias(probe, grid: BoxGrid, norm: np.ndarray) -> float:
    """The largest over nodes (every node up to N = 1024, else every
    (N // 1024)-th node) of norm_i^2 times the mean |probe| at the points a
    quarter of the smallest cell width off the node, both ways along each
    of the first two axes."""
    nodes = grid.nodes
    N = len(nodes)
    sample = np.arange(N)[:: max(1, N // 1024)]
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
    return float(np.max(vals * norm[sample] ** 2))


# generator entries evaluated per kernel call: bounds the kernel's temporaries
# (a few float64 arrays of the chunk's size for the tabulated Riesz kernel)
_GENERATOR_CHUNK = 2**15


def _toeplitz_generator(kernel, grid: BoxGrid, signs) -> tuple:
    """Kernel blocks of a laterally translation-invariant kernel, one per
    offset, and the record of their build; returns (G, record).

    G has shape (2 m_1 - 1, ..., 2 m_n - 1, m_v, m_v), with
    G[d + m - 1][a, b] = kernel(x, y) for any node pair whose lateral
    indices differ by d and whose vertical indices are a and b.  Offset d is
    evaluated at the node pair with lateral indices (max(d, 0), max(-d, 0)),
    so the lateral difference at -d is exactly the negation of that at d.

    ``signs`` declares the kernel's parity sign_l = +1 or -1 along each
    lateral axis l: reversing d_l multiplies every entry by sign_l.  For
    the Riesz kernel sign_l is -1 for l = k - 1 and +1 else, exactly
    (``kernels.riesz_signs``): reversing d_l flips the sign of (x - y)_l and
    nothing else.  Only the prod(m_l) offsets with every lateral component
    >= 0 are evaluated, and along each axis with m_l >= 2 the mirrored
    offsets -1 and -(m_l - 1) (the parity probes).  A ValueError naming the
    axis is raised when a probe's finite entries are not sign_l times those
    at +1 and +(m_l - 1), or when an axis declared odd has a nonzero finite
    entry at its zero offset, which the reversal maps to itself.  The
    probes are a check, not a proof: the declaration must hold at every
    offset.  Each negative half is then filled as sign_l times the reversed
    non-negative half.

    ``record`` is {"offsets_evaluated", "offsets_total", "signs"}: the
    offsets the kernel was evaluated at (probes included), the generator's
    prod(2 m_l - 1) offsets, and sign_l per lateral axis."""
    *lateral, mv = grid.points_per_dim
    signs = list(signs)
    if len(signs) != len(lateral) or any(s not in (1, -1) for s in signs):
        raise ValueError(f"signs must hold +1 or -1 for each of the {len(lateral)} lateral "
                         f"axes, got {signs}")
    dim = grid.dim
    coords = [np.unique(grid.nodes[:, l]) for l in range(dim)]
    shape = tuple(2 * m - 1 for m in lateral)
    centre = np.array(lateral, dtype=int) - 1
    gen = np.empty((*shape, mv, mv))
    blocks = gen.reshape(-1, mv, mv)  # a view: writes land in gen

    def evaluate(where):
        """Evaluate the generator offsets at the index rows ``where``."""
        offsets = where - centre
        D = len(offsets)
        x = np.empty((D, mv, 1, dim))
        y = np.empty((D, 1, mv, dim))
        for l in range(dim - 1):
            x[..., l] = coords[l][np.maximum(offsets[:, l], 0)][:, None, None]
            y[..., l] = coords[l][np.maximum(-offsets[:, l], 0)][:, None, None]
        x[..., -1] = coords[-1][None, :, None]
        y[..., -1] = coords[-1][None, None, :]
        flat = np.ravel_multi_index(tuple(where.T), shape)
        step = max(1, _GENERATOR_CHUNK // (mv * mv))
        for lo in range(0, D, step):
            with np.errstate(divide="ignore", invalid="ignore"):
                blocks[flat[lo:lo + step]] = kernel(x[lo:lo + step], y[lo:lo + step])
        return D

    def along(l, index):
        """Offset index ``index`` along axis l, the zero offset elsewhere."""
        return tuple(index if j == l else c for j, c in enumerate(centre))

    evaluated = evaluate(np.argwhere(np.ones(lateral, dtype=bool)) + centre)
    for l, (m, sign) in enumerate(zip(lateral, signs)):
        parity = "odd" if sign < 0 else "even"
        if m >= 2:
            ds = np.array(sorted({1, m - 1}))
            probes = np.tile(centre, (len(ds), 1))
            probes[:, l] -= ds
            evaluated += evaluate(probes)
            mirrored, direct = gen[along(l, m - 1 - ds)], gen[along(l, m - 1 + ds)]
            finite = np.isfinite(mirrored) & np.isfinite(direct)
            if not np.array_equal(mirrored[finite], sign * direct[finite]):
                raise ValueError(f"kernel not {parity} along lateral axis {l} as declared: "
                                 f"its entries at offsets -d are not {sign:+d} times those "
                                 f"at +d, d in {ds.tolist()}")
        zero = gen[tuple(c if j == l else slice(c, None) for j, c in enumerate(centre))]
        if sign < 0 and np.any(zero[np.isfinite(zero)] != 0.0):
            raise ValueError(f"kernel not odd along lateral axis {l} as declared: it is "
                             f"nonzero at that axis's zero offset")

    for l, (c, sign) in enumerate(zip(centre, signs)):
        # the axes after l hold their non-negative half so far
        later = tuple(slice(cj, None) for cj in centre[l + 1:])
        source = np.flip(gen[(slice(None),) * l + (slice(c + 1, None),) + later], l)
        target = gen[(slice(None),) * l + (slice(None, c),) + later]
        if sign > 0:
            target[...] = source
        else:
            np.negative(source, out=target)
    record = {"offsets_evaluated": evaluated, "offsets_total": int(np.prod(shape)),
              "signs": signs}
    return gen, record


def _first_nonfinite_pair(gen: np.ndarray, grid: BoxGrid):
    """The first node pair (i, j), in row-major order, whose generator entry
    is not finite, or None.  Pair (i, j) with lateral indices I, J and
    vertical indices a, b reads gen[I - J + m - 1][a, b], and an offset d's
    first such pair has I = max(d, 0), J = max(-d, 0).  The zero offset's
    diagonal a = b, where a singular kernel has no value and a commutator
    is zeroed, is skipped; with finite symbol values the other entries are
    the ones that can fail."""
    *lateral, mv = grid.points_per_dim
    bad = ~np.isfinite(gen)
    bad[tuple(m - 1 for m in lateral)][np.arange(mv), np.arange(mv)] = False
    if not bad.any():
        return None
    where = np.argwhere(bad)
    d = where[:, :-2] - (np.array(lateral) - 1)
    i = np.ravel_multi_index(tuple(np.maximum(d, 0).T), lateral) * mv + where[:, -2]
    j = np.ravel_multi_index(tuple(np.maximum(-d, 0).T), lateral) * mv + where[:, -1]
    first = np.lexsort((j, i))[0]
    return i[first], j[first]


def _toeplitz_rows(gen: np.ndarray, fv: np.ndarray, grid: BoxGrid,
                   signs: dict | None = None, parity: dict | None = None) -> ProducedMatrix:
    """kernel(x_i, x_j) (f(x_j) - f(x_i)) norm_i norm_j, produced one
    lateral row block (m_v rows) at a time from the lateral Toeplitz
    generator ``gen``, into which ``nystrom_generator`` has folded
    norm_a norm_b.
    Lateral column J of row I sits at generator offset I - J, which runs
    down as J runs up: a reversed slice per axis.  The diagonal, where
    f(x_j) - f(x_i) = 0 and a singular kernel has no value, is set to 0.

    With ``signs`` (split axis l: the generator's parity sign_l under the
    mirror J_l, which reverses lateral index l) and ``parity`` (split axis
    l: a column parity s), ``fv`` must be mirror-even along the split axes,
    and the result is the block of the mirror split whose columns are the
    basis vectors (e_K + s e_{J K}) / sqrt(2), its rows those of parity
    s * sign_l.  Its entries are B[I, K] = sum over the images J' K of K
    of (+-) A[I, J' K], one factor s per reversed axis, over the first half
    of each split axis: its first ceil(m/2) indices for parity +1 (with the
    middle of an odd m), floor(m/2) for -1.  The image along l reads the
    generator at offset I + K - (m - 1), a forward (Hankel) slice, and
    f(J K) = f(K), so every image shares K's symbol factor.  A middle row or
    column is the basis vector e_M alone and is scaled by 1/sqrt(2)."""
    signs = signs or {}
    *lateral, mv = grid.points_per_dim
    row_lat, col_lat, row_mid, col_mid = [], [], [], []
    for l, m in enumerate(lateral):
        s = parity[l] if l in signs else 0  # the column parity; 0 where l is not split
        for counts, middles, p in ((row_lat, row_mid, s * signs.get(l, 0)),
                                   (col_lat, col_mid, s)):
            counts.append(m if p == 0 else (m + 1) // 2 if p > 0 else m // 2)
            if p > 0 and m % 2:
                middles.append(l)

    row_nodes = np.arange(len(fv)).reshape(*lateral, mv)[tuple(map(slice, row_lat))].ravel()
    col_nodes = np.arange(len(fv)).reshape(*lateral, mv)[tuple(map(slice, col_lat))].ravel()
    col_f = fv[col_nodes]
    # one term per choice of image along the split axes: (sign, image per axis)
    terms = []
    for images in itertools.product((False, True), repeat=len(signs)):
        image = dict(zip(signs, images))
        sign = np.prod([parity[l] for l in signs if image[l]], initial=1)
        terms.append((sign, [image.get(l, False) for l in range(len(lateral))]))
    diag = np.arange(mv)
    half = np.sqrt(0.5)

    def fill(lo: int, out: np.ndarray, diff: np.ndarray) -> None:
        for r in range(len(out) // mv):
            row = lo // mv + r
            I = np.unravel_index(row, row_lat)
            dest = out[r * mv:(r + 1) * mv]
            view = dest.reshape(mv, *col_lat, mv)
            np.subtract(col_f[None, :], fv[row_nodes[row * mv:(row + 1) * mv], None], out=diff)
            with np.errstate(invalid="ignore"):
                for t, (sign, image) in enumerate(terms):
                    blocks = gen[tuple(slice(i, i + c) if h else slice(i + m - c, i + m)
                                       for i, m, c, h in zip(I, lateral, col_lat, image))]
                    src = np.moveaxis(blocks[tuple(slice(None) if h else slice(None, None, -1)
                                                   for h in image)], -2, 0)
                    if t == 0:
                        view[...] = src
                    elif sign > 0:
                        view += src
                    else:
                        view -= src
                # a copy, then a contiguous product: faster than one
                # np.multiply(src, diff, out=view), whose strided source
                # keeps its inner loop to m_v entries
                dest *= diff
            if all(i < c for i, c in zip(I, col_lat)):
                k = np.ravel_multi_index(I, col_lat) * mv
                dest[diag, k + diag] = 0.0
            for l in row_mid:
                if I[l] == row_lat[l] - 1:
                    dest *= half
            for l in col_mid:
                view[(slice(None),) * (l + 1) + (-1,)] *= half

    def make_fill():
        # one buffer for the symbol differences of a whole pass over the
        # rows: a fresh temporary per lateral row block would map and fault
        # in new pages each time
        diff = np.empty((mv, len(col_nodes)))
        return lambda lo, out: fill(lo, out, diff)

    return ProducedMatrix((len(row_nodes), len(col_nodes)), make_fill, mv)


def _mirror_symmetry(signs: list, fv: np.ndarray, grid: BoxGrid) -> dict:
    """The lateral axes along which the commutator splits, as {axis: sign}.

    The mirror J_l reverses lateral index l, and the generator is sign_l
    times its own reversal along l (``signs``, checked in its build by
    ``_toeplitz_generator``).  Axis l of m_l >= 2 points splits when the
    symbol values reversed along l equal them exactly.  ``make_grid``
    builds the lateral nodes as mirror pairs, so a symbol centred on the
    mirror passes bit for bit; values an ulp off it do not split, and their
    whole Gram matrix is solved instead."""
    *lateral, mv = grid.points_per_dim
    values = fv.reshape(*lateral, mv)
    return {l: sign for l, (m, sign) in enumerate(zip(lateral, signs))
            if m >= 2 and np.array_equal(np.flip(values, l), values)}


def _mirror_split(gen: np.ndarray, fv: np.ndarray, grid: BoxGrid, signs: dict) -> tuple:
    """The blocks of the commutator split along the mirrors ``signs``.

    The symbol values are mirror-even, so the commutator commutes (sign +1)
    or anticommutes (sign -1) with each mirror, and in the basis
    (e_I +- e_{J I}) / sqrt(2) it falls into one block per choice of column
    parities (``_toeplitz_rows``): 2 blocks for one axis, 4 for two, none
    without a mirror.  The split is exact: the blocks' singular values
    together are the commutator's."""
    if not signs:
        return ()
    return tuple(_toeplitz_rows(gen, fv, grid, signs, dict(zip(signs, parity)))
                 for parity in itertools.product((1, -1), repeat=len(signs)))


def save_matrix(A: OperatorMatrix, path) -> None:
    """Binary export: magic 'BRSL', version, dimension, space tag (1 for a
    weighted measure, 0 for Lebesgue measure), then the entries as
    column-major float64.  A CSV sidecar carries grid metadata."""
    path = Path(path)
    N = len(A.grid.nodes)
    weighted = A.measure_exponent > 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, N, 1 if weighted else 0))
        fh.write(np.ascontiguousarray(A.entries.T))
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
    """Read back a matrix written by ``save_matrix``; returns (entries,
    space_tag).  A truncated header, or a payload that is not exactly the
    N x N float64 entries, raises a ValueError."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if header[:4] != _MAGIC:
            raise ValueError(f"bad magic {header[:4]!r}")
        if len(header) < _HEADER.size:
            raise ValueError(f"the header needs {_HEADER.size} bytes, found {len(header)}")
        _, version, N, tag = _HEADER.unpack(header)
        if version != _VERSION:
            raise ValueError(f"unsupported version {version}")
        payload = fh.read()
    if len(payload) != 8 * N * N:
        raise ValueError(f"a {N}x{N} matrix needs {8 * N * N} payload bytes, "
                         f"found {len(payload)}")
    data = np.frombuffer(payload, dtype="<f8")
    entries = data.reshape((N, N), order="F").copy()
    return entries, "weighted" if tag else "unweighted"
