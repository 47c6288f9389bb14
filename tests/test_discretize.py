import itertools
from functools import partial

import numpy as np
import pytest

from besselriesz import cli, discretize
from besselriesz.discretize import (
    assemble,
    load_matrix,
    make_grid,
    save_matrix,
)
from besselriesz.kernels import (
    commutator_kernel,
    gaussian_profile_kernel,
    riesz_signs,
    symbol_h,
)
from besselriesz.quadrature import gauss_legendre_box
from besselriesz.special import ModelParams
from besselriesz.spectra import default_window, gram_lower, singular_values
from besselriesz.symbols import Symbol, constant_symbol, gaussian_bump
from besselriesz.verify import multiplier_frobenius_sq

P2 = ModelParams(n=1, lam=1.0, k=2)


def smooth_kernel(x, y):
    # even in x' - y'
    d2 = np.sum((x - y) ** 2, axis=-1)
    return np.exp(-d2) * (1.0 + x[..., -1] * y[..., -1])


def odd_smooth_kernel(x, y):
    # odd in x_0 - y_0, even in every other lateral difference
    return (x[..., 0] - y[..., 0]) * smooth_kernel(x, y)


def even_odd_smooth_kernel(x, y):
    # even in x_0 - y_0, odd in x_1 - y_1
    return (x[..., 1] - y[..., 1]) * smooth_kernel(x, y)


def riesz_base(grid, p=P2):
    """The CLI's Riesz kernel with the F table for ``grid``'s box."""
    return cli.riesz_base(p, cli.f_table(p, grid.bounds))


def assemble_even(kernel, grid, lam, sym):
    """The commutator of a kernel even in every lateral difference."""
    return assemble(kernel, grid, lam, symbol=sym, signs=(1,) * (grid.dim - 1))


def commutator(grid, sym=None):
    sym = sym or gaussian_bump([0.5, 1.0], 0.15)
    return cli.commutator(P2, sym, grid, cli.f_table(P2, grid.bounds))


def brute_force_commutator(base, sym):
    """The commutator kernel on every node pair: the reference for ``symbol=``."""
    return lambda x, y: commutator_kernel(base, sym, x, y)


def nystrom_norm(grid, lam):
    """sqrt(w_i mu_i) at each node, with mu_i = x_last^(2 lam)."""
    return np.sqrt(grid.cell_weights * grid.nodes[:, -1] ** (2.0 * lam))


def dense_reference(kernel, grid, lam):
    """kernel(x_i, x_j) sqrt(w_i mu_i w_j mu_j) on every node pair, by brute
    force: the reference for the generator path.  The diagonal is left as
    the kernel gives it."""
    x = grid.nodes
    norm = nystrom_norm(grid, lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        return kernel(x[:, None, :], x[None, :, :]) * np.outer(norm, norm)


def reference_diagonal_bias(kernel, grid, lam, stride=1):
    """The largest over every ``stride``-th node i of norm_i^2 times the
    mean |kernel| a quarter of the smallest cell width off node i, both ways
    along the first two axes."""
    x = grid.nodes[::stride]
    h = 0.25 * grid.cell_widths.min()
    offsets = [s * h * e for e in np.eye(grid.dim)[:2] for s in (1.0, -1.0)]
    mean = np.mean([np.abs(kernel(x, x + e)) for e in offsets], axis=0)
    return float(np.max(mean * nystrom_norm(grid, lam)[::stride] ** 2))


def test_grid_1d_midpoints():
    g = make_grid([(0.0, 1.0)], 4)
    assert np.allclose(g.nodes[:, 0], [1 / 8, 3 / 8, 5 / 8, 7 / 8])
    assert np.allclose(g.cell_weights, 0.25)


@pytest.mark.parametrize("bounds", [(0.0, 1.0), (-7.0, 7.0)])
def test_grid_lateral_nodes_are_mirror_pairs(bounds):
    def midpoints(a, b, m):
        return a + (b - a) * (np.arange(m) + 0.5) / m

    def axes(m):
        g = make_grid([bounds, (0.5, 1.5)], (m, m), halfspace=True)
        return np.unique(g.nodes[:, 0]), np.unique(g.nodes[:, 1])

    for m in (7, 24, 33, 48, 96):
        lateral, vertical = axes(m)
        assert np.array_equal(lateral, sum(bounds) - lateral[::-1])
        assert np.array_equal(vertical, midpoints(0.5, 1.5, m))
    # at 2^j points the plain midpoints are already mirror pairs: unchanged
    for m in (16, 32, 64):
        lateral, vertical = axes(m)
        assert np.array_equal(lateral, midpoints(*bounds, m))
        assert np.array_equal(vertical, midpoints(0.5, 1.5, m))


def test_grid_2d():
    g = make_grid([(0.0, 1.0), (1.0, 2.0)], (2, 2))
    assert len(g.nodes) == 4
    assert np.allclose(g.cell_weights, 0.25)
    volume = np.prod([b - a for a, b in g.bounds])
    assert abs(g.cell_weights.sum() - volume) <= 1e-12 * volume


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid([(0.0, 1.0), (0.0, 1.0)], 4, halfspace=True)
    with pytest.raises(ValueError):
        make_grid([(1.0, 1.0)], 4)
    with pytest.raises(ValueError):
        make_grid([(0.0, 1.0)], 2**15)
    # counts are not truncated: a non-integral or boolean entry is rejected
    bounds = [(0.0, 1.0), (0.5, 1.5)]
    for points in ((48.7, 48), 48.7, (True, 48), True, ("48", 48)):
        with pytest.raises(ValueError, match="integers"):
            make_grid(bounds, points)
    assert make_grid(bounds, (48.0, 48)).points_per_dim == (48, 48)
    assert make_grid(bounds, 48.0).points_per_dim == (48, 48)
    with pytest.raises(cli.ConfigError, match="integers"):
        cli.parse_config({}).grid((48.7, 48))


def test_assemble_zero_kernel():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (6, 6), halfspace=True)
    A = assemble_even(lambda x, y: np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])),
                      g, 1.0, gaussian_bump([0.5, 1.0], 0.15))
    assert np.all(A.entries == 0.0)
    assert A.diagonal_bias == 0.0


def test_assemble_constant_symbol_commutator_is_zero():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (8, 8), halfspace=True)
    A = commutator(g, sym=constant_symbol(2.5))
    assert np.all(A.entries == 0.0)


def test_hilbert_schmidt_consistency_smooth_kernel():
    # Frobenius norm^2 against an independent 4-d Gauss-Legendre quadrature;
    # the kernel is laterally translation-invariant, so the norm is read
    # from its Toeplitz generator
    lam = 0.8
    bounds = [(0.0, 1.0), (0.5, 1.5)]
    ref_rule = gauss_legendre_box(bounds + bounds, 24)
    x = ref_rule.nodes[:, :2]
    y = ref_rule.nodes[:, 2:]
    mu = (x[:, 1] * y[:, 1]) ** (2 * lam)
    ref = float(np.dot(ref_rule.weights, smooth_kernel(x, y) ** 2 * mu))

    errs = []
    for m in (16, 32):
        g = make_grid(bounds, (m, m), halfspace=True)
        fro2 = multiplier_frobenius_sq(smooth_kernel, constant_symbol(1.0), g, lam, (1,))
        errs.append(abs(fro2 - ref) / ref)
    assert errs[1] <= 0.02
    assert errs[1] < errs[0]


def test_conjugation_preserves_singular_values():
    # x_last^lam maps the weighted space unitarily onto Lebesgue measure: the
    # conjugated kernel assembled with lam=0 is the same matrix
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (10, 10), halfspace=True)
    sym = gaussian_bump([0.5, 1.0], 0.15)
    base = riesz_base(g)
    A = assemble(base, g, P2.lam, symbol=sym, signs=riesz_signs(P2))
    B = assemble(lambda x, y: (x[..., -1] * y[..., -1]) ** P2.lam * base(x, y), g, 0.0,
                 symbol=sym, signs=riesz_signs(P2))
    assert B.measure_exponent == 0.0
    assert np.max(np.abs(A.entries - B.entries)) <= 1e-14 * np.max(np.abs(A.entries))
    s1, s2 = singular_values(A), singular_values(B)
    assert np.max(np.abs(s1 - s2)) <= 1e-12 * s1[0]


def test_schur_direction_symbol_norm_ratio_bounded_under_refinement():
    # the directional Schur multiplier is bounded with a constant: record the
    # operator-norm ratio across refinements and require it to stay bounded
    ratios = []
    for m in (8, 12, 16):
        g = make_grid([(0.0, 1.0), (0.5, 1.5)], (m, m), halfspace=True)
        A = commutator(g)
        # the entrywise (Schur) product with h_1(x_i, x_j), 0 on the diagonal
        x = g.nodes
        with np.errstate(divide="ignore", invalid="ignore"):
            h1 = symbol_h(1, x[:, None, :], x[None, :, :])
        np.fill_diagonal(h1, 0.0)
        S = A.entries * h1
        s0 = singular_values(A)[0]
        s1 = np.linalg.svd(S, compute_uv=False)[0]
        ratios.append(s1 / s0)
    assert max(ratios) <= 2.0
    assert max(ratios) - min(ratios) <= 0.5


def test_frobenius_domination():
    # |K2| <= K1 entrywise implies Frobenius domination of the commutators
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (10, 10), halfspace=True)
    sym = gaussian_bump([0.5, 1.0], 0.15)
    K1 = lambda x, y: smooth_kernel(x, y) + 0.1
    K2 = lambda x, y: K1(x, y) * np.sin(3 * (x[..., 0] - y[..., 0]) * y[..., -1])
    A1 = assemble(K1, g, 0.7, symbol=sym, signs=(1,))
    A2 = assemble(K2, g, 0.7, symbol=sym, signs=(-1,))
    assert 0.0 < np.linalg.norm(A2.entries) <= np.linalg.norm(A1.entries)


TOEPLITZ_GRIDS = pytest.mark.parametrize(
    "n, k, points",
    [
        (1, 1, (12, 12)),
        (1, 2, (12, 12)),
        (1, 1, (10, 14)),
        (1, 2, (10, 14)),
        (2, 1, (6, 5, 7)),
        (2, 3, (6, 5, 7)),
    ],
)


def toeplitz_commutator(n, k, points):
    """(grid, Riesz kernel, symbol, commutator matrix) on a box in dimension n + 1."""
    p = ModelParams(n=n, lam=1.0, k=k)
    g = make_grid([(0.0, 1.0)] * n + [(0.5, 1.5)], points, halfspace=True)
    base = riesz_base(g, p)
    sym = gaussian_bump([0.5] * n + [1.0], 0.15)
    return g, base, sym, assemble(base, g, p.lam, symbol=sym, signs=riesz_signs(p))


@TOEPLITZ_GRIDS
def test_toeplitz_commutator_matches_brute_force(n, k, points):
    g, base, sym, A = toeplitz_commutator(n, k, points)
    brute = brute_force_commutator(base, sym)
    B = dense_reference(brute, g, 1.0)
    np.fill_diagonal(B, 0.0)
    scale = np.max(np.abs(B))
    assert scale > 0.0
    assert np.max(np.abs(A.entries - B)) <= 1e-13 * scale
    assert A.diagonal_bias == reference_diagonal_bias(brute, g, 1.0)


@TOEPLITZ_GRIDS
def test_gram_from_row_blocks_matches_dense(n, k, points):
    # the row blocks are the lateral row blocks, m_v rows each, in order and
    # all in one reused buffer
    g, _, _, A = toeplitz_commutator(n, k, points)
    mv = points[-1]
    blocks = [(block.shape, block.__array_interface__["data"][0], block.copy())
              for block in A.row_blocks()]
    assert len(blocks) == len(g.nodes) // mv
    assert all(shape == (mv, len(g.nodes)) for shape, _, _ in blocks)
    assert len({address for _, address, _ in blocks}) == 1
    assert np.array_equal(np.concatenate([rows for _, _, rows in blocks]), A.entries)
    gram = gram_lower(A)
    assert gram.flags.f_contiguous
    dense = A.entries.T @ A.entries
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(np.tril(gram) - np.tril(dense))) <= 1e-14 * scale
    assert np.all(np.triu(gram, 1) == 0.0)


def parity_probes(lateral) -> int:
    """The offsets -1 and -(m - 1) per lateral axis of m >= 2 points."""
    return sum(len({1, m - 1}) for m in lateral if m >= 2)


@TOEPLITZ_GRIDS
def test_toeplitz_generator_evaluates_nonnegative_offsets(n, k, points):
    # only the offsets with every lateral component >= 0 and the parity
    # probes are evaluated; the diagonal-bias probes add 4 entries per node
    p = ModelParams(n=n, lam=1.0, k=k)
    g = make_grid([(0.0, 1.0)] * n + [(0.5, 1.5)], points, halfspace=True)
    base = riesz_base(g, p)
    shapes = []

    def counting(x, y):
        shapes.append(np.broadcast_shapes(np.shape(x)[:-1], np.shape(y)[:-1]))
        return base(x, y)

    A = assemble(counting, g, p.lam, symbol=gaussian_bump([0.5] * n + [1.0], 0.15),
                 signs=riesz_signs(p))
    *lateral, mv = points
    offsets = int(np.prod(lateral)) + parity_probes(lateral)
    assert sum(int(np.prod(shape)) for shape in shapes) == offsets * mv**2 + 4 * len(g.nodes)
    assert A.generator == {
        "offsets_evaluated": offsets,
        "offsets_total": int(np.prod([2 * m - 1 for m in lateral])),
        "signs": [-1 if k == l + 1 else 1 for l in range(n)],
    }


def full_generator(kernel, grid):
    """The kernel evaluated at every lateral offset d, at the node pair with
    lateral indices (max(d, 0), max(-d, 0)): the generator's reference."""
    *lateral, mv = grid.points_per_dim
    coords = [np.unique(grid.nodes[:, l]) for l in range(grid.dim)]
    offsets = np.array(list(itertools.product(*(range(1 - m, m) for m in lateral))))
    x = np.empty((len(offsets), mv, 1, grid.dim))
    y = np.empty((len(offsets), 1, mv, grid.dim))
    for l in range(grid.dim - 1):
        x[..., l] = coords[l][np.maximum(offsets[:, l], 0)][:, None, None]
        y[..., l] = coords[l][np.maximum(-offsets[:, l], 0)][:, None, None]
    x[..., -1] = coords[-1][None, :, None]
    y[..., -1] = coords[-1][None, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        gen = kernel(x, y)
    return gen.reshape(*(2 * m - 1 for m in lateral), mv, mv)


def no_lateral_parity(x, y):
    # translation-invariant laterally, with no parity
    return np.exp(0.3 * (x[..., 0] - y[..., 0])) / (1.0 + x[..., -1] * y[..., -1])


def even_then_no_parity(x, y):
    # even along the first lateral axis, no parity along the second
    return (np.exp(-(x[..., 0] - y[..., 0]) ** 2) * np.exp(0.3 * (x[..., 1] - y[..., 1]))
            * x[..., -1] / y[..., -1])


@pytest.mark.parametrize(
    "n, k, points, kernel, signs",
    [
        *((1, k, (m, m), None, [-1 if k == 1 else 1]) for k in (1, 2) for m in (7, 16, 33)),
        (2, 1, (6, 5, 7), None, [-1, 1]),
        (2, 3, (6, 5, 7), None, [1, 1]),
        (2, 1, (9, 2, 4), None, [-1, 1]),
        (1, 2, (7, 6), odd_smooth_kernel, [-1]),
        (2, 3, (5, 6, 4), even_odd_smooth_kernel, [1, -1]),
    ],
)
def test_toeplitz_generator_matches_full_evaluation(n, k, points, kernel, signs):
    # declared with its parity (the Riesz kernel's is ``riesz_signs``), the
    # filled negative halves equal a direct evaluation bit for bit
    p = ModelParams(n=n, lam=1.0, k=k)
    g = make_grid([(0.0, 1.0)] * n + [(0.5, 1.5)], points, halfspace=True)
    if kernel is None:
        kernel = riesz_base(g, p)
        assert list(riesz_signs(p)) == signs
    gen, record = discretize._toeplitz_generator(kernel, g, signs)
    assert gen.tobytes() == full_generator(kernel, g).tobytes()
    *lateral, _ = points
    assert record["signs"] == signs
    assert record["offsets_evaluated"] == int(np.prod(lateral)) + parity_probes(lateral)
    assert record["offsets_total"] == int(np.prod([2 * m - 1 for m in lateral]))


@pytest.mark.parametrize("n, k, points, flipped, axis", [
    (1, 1, (7, 7), [1], 0),
    (1, 2, (16, 16), [-1], 0),
    (2, 1, (6, 5, 7), [1, 1], 0),
    (2, 1, (6, 5, 7), [-1, -1], 1),
    (2, 3, (6, 5, 7), [1, -1], 1),
])
def test_flipped_riesz_declaration_raises(n, k, points, flipped, axis):
    # the probes catch a declared sign that is the Riesz kernel's negation,
    # and name the axis
    p = ModelParams(n=n, lam=1.0, k=k)
    g = make_grid([(0.0, 1.0)] * n + [(0.5, 1.5)], points, halfspace=True)
    with pytest.raises(ValueError, match=f"lateral axis {axis} as declared"):
        assemble(riesz_base(g, p), g, p.lam, symbol=gaussian_bump([0.5] * n + [1.0], 0.15),
                 signs=flipped)


@pytest.mark.parametrize("kernel, points", [(no_lateral_parity, (7, 6)),
                                            (even_then_no_parity, (5, 6, 4))])
def test_kernel_without_parity_raises_under_every_declaration(kernel, points):
    g = make_grid([(0.0, 1.0)] * (len(points) - 1) + [(0.5, 1.5)], points, halfspace=True)
    for signs in itertools.product((1, -1), repeat=len(points) - 1):
        with pytest.raises(ValueError, match="as declared"):
            discretize._toeplitz_generator(kernel, g, signs)


def test_parity_odd_at_the_probes_only_raises_declared_even():
    # odd except for a 0.1 d^2 term on 2.5h < |d| < 12.5h, which no probe
    # (|d| = h or 15h) sees: declared even, the probes fail; declared odd
    # they pass, and every negative offset in the window would be filled
    # wrongly (top singular value 0.0790 against 0.0760 by brute force), so
    # the parity is the kernel's statement, not the probes' finding
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (16, 8), halfspace=True)
    h = 1.0 / 16

    def base(x, y):
        d = x[..., 0] - y[..., 0]
        bump = 0.1 * d * d * ((np.abs(d) > 2.5 * h) & (np.abs(d) < 12.5 * h))
        return (d + bump) * x[..., -1] * y[..., -1]

    with pytest.raises(ValueError, match="not even along lateral axis 0 as declared"):
        assemble(base, g, 1.0, symbol=gaussian_bump([0.5, 1.0], 0.15), signs=(1,))


def test_signs_must_hold_plus_or_minus_one_per_lateral_axis():
    g = make_grid([(0.0, 1.0), (0.0, 1.0), (0.5, 1.5)], (4, 4, 4), halfspace=True)
    for signs in ((1,), (1, 1, 1), (1, None), (1, 0), (1, 0.5)):
        with pytest.raises(ValueError, match="signs must hold"):
            discretize._toeplitz_generator(smooth_kernel, g, signs)


@pytest.mark.parametrize(
    "kernel, signs, bounds, points, lam, center, width",
    [
        (smooth_kernel, (1,), [(0.0, 1.0), (0.5, 1.5)], (16, 16), 0.8, [0.5, 1.0], 0.15),
        (smooth_kernel, (1,), [(0.0, 1.0), (0.5, 1.5)], (15, 16), 0.8, [0.5, 1.0], 0.15),
        (odd_smooth_kernel, (-1,), [(0.0, 1.0), (0.5, 1.5)], (15, 16), 0.8, [0.4, 1.0], 0.15),
        (smooth_kernel, (1, 1), [(0.0, 1.0), (0.0, 1.0), (0.5, 1.5)], (5, 6, 4), 0.8,
         [0.5, 0.4, 1.0], 0.2),
        # criterion 8's kernel, symbol and box
        (partial(gaussian_profile_kernel, ModelParams(n=1, lam=1.0, k=1)), (1,),
         [(-7.0, 7.0), (0.1, 11.0)], (32, 32), 1.0, [0.0, 4.5], 0.5),
    ],
    ids=["16x16", "15x16", "15x16-odd", "5x6x4", "criterion-8-32x32"],
)
def test_multiplier_frobenius_matches_brute_force(kernel, signs, bounds, points, lam, center,
                                                  width):
    # the generator's windowed sum of squares against the dense matrix
    g = make_grid(bounds, points, halfspace=True)
    f = gaussian_bump(center, width)
    brute = float(np.sum((f(g.nodes)[:, None] * dense_reference(kernel, g, lam)) ** 2))
    fro2 = multiplier_frobenius_sq(kernel, f, g, lam, signs)
    assert fro2 == pytest.approx(brute, rel=1e-13, abs=0)


def test_odd_parity_needs_a_zero_offset_of_zeros():
    # odd at every nonzero lateral offset but 1 at the zero offset: declared
    # odd, the zero offset fails the check; declared even, the probes do
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (8, 6), halfspace=True)

    def base(x, y):
        d = x[..., 0] - y[..., 0]
        return np.where(d == 0.0, 1.0, d) * x[..., -1] * y[..., -1]

    for signs, match in (((-1,), "nonzero at that axis's zero offset"),
                         ((1,), "not even along lateral axis 0")):
        with pytest.raises(ValueError, match=match):
            assemble(base, g, 1.0, symbol=gaussian_bump([0.5, 1.0], 0.15), signs=signs)


def test_certified_head_leaves_entries_unbuilt():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (16, 16), halfspace=True)
    A = commutator(g)
    record = {}
    singular_values(A, 20, 2.0, record)
    assert record["solver"] == "gram"
    assert A._entries is None
    # a constant symbol's Gram head has no bound: the dense fallback solves
    # each mirror block from its own rows and returns every value, and
    # neither the whole matrix's entries nor a block's are kept
    C = commutator(g, sym=constant_symbol(2.5))
    blocks = C.mirror_blocks()
    assert len(blocks) == 2  # the split's blocks are all 0 as well
    s = singular_values(C, 20, 2.0, record)
    assert record["solver"] == "dense" and record["count"] == 256 and record["blocks"] == 2
    assert C._entries is None and all(b._entries is None for b in blocks)
    assert s.shape == (256,) and np.all(s == 0.0)


def split_commutator(n, k, points, center, sym=None):
    """(commutator, fit-window count) of a bump at ``center`` on a box in
    dimension n + 1 whose lateral mirrors sit at 0.5."""
    p = ModelParams(n=n, lam=1.0, k=k)
    g = make_grid([(0.0, 1.0)] * n + [(0.5, 1.5)], points, halfspace=True)
    sym = sym or gaussian_bump(center, 0.15 if n == 1 else 0.2)
    A = cli.commutator(p, sym, g, cli.f_table(p, g.bounds))
    return A, default_window(len(g.nodes))[1] + 1


@pytest.mark.parametrize(
    "n, k, points, center, shapes",
    [
        # k = n + 1 (vertical): the generator is even under the mirror
        (1, 2, (32, 32), [0.5, 1.0], [(512, 512), (512, 512)]),
        (1, 2, (33, 32), [0.5, 1.0], [(544, 544), (512, 512)]),
        # lateral k: odd, so each block maps one mirror parity to the other
        (1, 1, (32, 32), [0.5, 1.0], [(512, 512), (512, 512)]),
        (1, 1, (33, 32), [0.5, 1.0], [(512, 544), (544, 512)]),
        # n = 2: both lateral axes split, or only the one the bump is centred on
        (2, 1, (9, 9, 8), [0.5, 0.5, 1.0], [(160, 200), (128, 160), (200, 160), (160, 128)]),
        (2, 3, (10, 9, 8), [0.5, 0.5, 1.0], [(200, 200), (160, 160), (200, 200), (160, 160)]),
        (2, 1, (10, 9, 8), [0.5, 0.4, 1.0], [(360, 360), (360, 360)]),
        (2, 3, (9, 10, 8), [0.4, 0.5, 1.0], [(360, 360), (360, 360)]),
    ],
)
def test_mirror_split_head_matches_dense(n, k, points, center, shapes):
    A, count = split_commutator(n, k, points, center)
    assert [b.shape for b in A.mirror_blocks()] == shapes
    record = {}
    head = singular_values(A, count, float(n + 1), record)
    assert record["solver"] == "gram" and record["blocks"] == len(shapes)
    # the dense route solves the same blocks: every value, a wide block's
    # missing ones as zeros
    values = singular_values(A, record=record)
    assert record["solver"] == "dense" and record["blocks"] == len(shapes)
    assert A._entries is None
    dense = np.linalg.svd(A.entries, compute_uv=False)
    np.testing.assert_allclose(head, dense[:count], rtol=1e-12, atol=0)
    assert values.shape == dense.shape
    assert np.max(np.abs(values - dense)) <= 1e-12 * dense[0]


def test_mirror_split_needs_exact_mirror_values():
    # the default bump at 48^2: the mirror-pair nodes put its values on the
    # mirror bit for bit, so it splits
    f = cli.parse_config({}).symbol
    A, count = split_commutator(1, 2, (48, 48), None, sym=f)
    assert len(A.mirror_blocks()) == 2
    # values pushed an ulp off the mirror stay one block, and its whole Gram
    # certifies the same head as the dense SVD
    pushed = Symbol(func=lambda x: f.func(x) + 5e-16 * (x[..., 0] - 0.5), gradient=f.gradient)
    A, _ = split_commutator(1, 2, (48, 48), None, sym=pushed)
    assert A.mirror_blocks() == (A,)
    record = {}
    head = singular_values(A, count, 2.0, record)
    assert record["solver"] == "gram" and record["blocks"] == 1
    np.testing.assert_allclose(head, np.linalg.svd(A.entries, compute_uv=False)[:count],
                               rtol=1e-12, atol=0)
    # a push of 1e-13 is no rounding either: one block, and its Gram certifies
    g = gaussian_bump([0.5, 1.0], 0.15)
    far = Symbol(func=lambda x: g.func(x) + 1e-13 * (x[..., 0] - 0.5), gradient=g.gradient)
    A, count = split_commutator(1, 2, (32, 32), None, sym=far)
    assert len(A.mirror_blocks()) == 1
    singular_values(A, count, 2.0, record)
    assert record["solver"] == "gram" and record["blocks"] == 1


def test_mirror_split_skips_off_centre_symbol():
    # the default second symbol sits off the lateral mirror
    cfg = cli.parse_config({})
    grid = cfg.grid((24, 24))
    A = cli.commutator(cfg.params, cfg.symbol2, grid, cli.f_table(cfg.params, cfg.bounds))
    assert A.mirror_blocks() == (A,)
    record = {}
    singular_values(A, default_window(len(grid.nodes))[1] + 1, 2.0, record)
    assert record["solver"] == "gram" and record["blocks"] == 1


def test_toeplitz_assembly_reports_nonfinite_pair():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (4, 4), halfspace=True)

    def base(x, y):
        # infinite exactly where the vertical coordinates differ by 0.5
        return 1.0 / (np.abs(x[..., -1] - y[..., -1]) - 0.5)

    with pytest.raises(FloatingPointError, match=r"node pair \(0, 2\)"):
        assemble_even(base, g, 1.0, gaussian_bump([0.5, 1.0], 0.15))
    # a symbol value that is not finite spoils a whole row and column
    sym = Symbol(func=lambda x: np.where(x[..., 0] > 0.5, np.nan, 0.0), gradient=np.zeros_like)
    with pytest.raises(FloatingPointError, match="symbol not finite at node 8"):
        assemble_even(smooth_kernel, g, 1.0, sym)


def test_weighted_assembly_requires_lambda():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (4, 4), halfspace=True)
    with pytest.raises(TypeError):
        assemble(smooth_kernel, g)


def test_matrix_roundtrip(tmp_path):
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (6, 6), halfspace=True)
    sym = gaussian_bump([0.5, 1.0], 0.15)
    A = assemble_even(smooth_kernel, g, 0.5, sym)
    path = tmp_path / "matrix.bin"
    save_matrix(A, path)
    entries, tag = load_matrix(path)
    assert tag == "weighted"
    assert np.array_equal(entries, A.entries)
    meta = (tmp_path / "matrix.bin.meta.csv").read_text()
    assert "space_tag,weighted" in meta
    # lam = 0 is Lebesgue measure: tag byte 0 and the "unweighted" meta row
    save_matrix(assemble_even(smooth_kernel, g, 0.0, sym), path)
    assert load_matrix(path)[1] == "unweighted"
    assert "space_tag,unweighted" in (tmp_path / "matrix.bin.meta.csv").read_text()


def test_save_matrix_copies_the_entries_once(tmp_path):
    # the column-major payload is one transposed copy of the entries, which
    # are built before tracing starts
    import tracemalloc

    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (32, 32), halfspace=True)
    A = assemble_even(smooth_kernel, g, 0.5, gaussian_bump([0.5, 1.0], 0.15))
    N = len(g.nodes)
    assert A.entries.shape == (N, N)
    tracemalloc.start()
    try:
        save_matrix(A, tmp_path / "matrix.bin")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * N**2
    assert np.array_equal(load_matrix(tmp_path / "matrix.bin")[0], A.entries)


def test_load_matrix_checks_payload_length(tmp_path):
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (8, 8), halfspace=True)
    path = tmp_path / "matrix.bin"
    save_matrix(assemble_even(smooth_kernel, g, 0.5, gaussian_bump([0.5, 1.0], 0.15)), path)
    data = path.read_bytes()
    # trailing bytes, or a file one value short, do not hold a 64 x 64 matrix
    for payload, found in ((data + bytes(64), 32832), (data[:-8], 32760)):
        path.write_bytes(payload)
        with pytest.raises(ValueError, match=f"needs 32768 payload bytes, found {found}"):
            load_matrix(path)


def test_load_matrix_rejects_truncated_header(tmp_path):
    # a file cut inside the 13-byte header is malformed like any other
    path = tmp_path / "matrix.bin"
    for data, match in ((b"BRSL\x01\x00", "header needs 13 bytes, found 6"),
                        (b"BRSL" + bytes(8), "header needs 13 bytes, found 12"),
                        (b"BR", "bad magic")):
        path.write_bytes(data)
        with pytest.raises(ValueError, match=match):
            load_matrix(path)


def test_diagonal_bias_reported():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (8, 8), halfspace=True)
    A = commutator(g)
    assert A.diagonal_bias > 0.0


def test_diagonal_bias_subsamples_past_1024_nodes():
    # at 48^2 (N = 2304) the bias probes visit every (N // 1024)-th = 2nd
    # node, and the largest over every node would be another value
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (48, 48), halfspace=True)
    sym = gaussian_bump([0.5, 1.0], 0.15)
    A = assemble_even(smooth_kernel, g, 0.8, sym)
    brute = brute_force_commutator(smooth_kernel, sym)
    assert A.diagonal_bias == reference_diagonal_bias(brute, g, 0.8, stride=2)
    assert A.diagonal_bias != reference_diagonal_bias(brute, g, 0.8)
