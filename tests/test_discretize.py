import numpy as np
import pytest

from besselriesz import cli
from besselriesz.discretize import (
    assemble,
    load_matrix,
    make_grid,
    save_matrix,
    schur_apply,
)
from besselriesz.kernels import (
    commutator_kernel,
    symbol_a,
    symbol_b,
    symbol_h,
)
from besselriesz.quadrature import gauss_legendre_box
from besselriesz.special import ModelParams
from besselriesz.spectra import singular_values
from besselriesz.symbols import constant_symbol, gaussian_bump

P2 = ModelParams(n=1, lam=1.0, k=2)


def smooth_kernel(x, y):
    d2 = np.sum((x - y) ** 2, axis=-1)
    return np.exp(-d2) * (1.0 + x[..., -1] * y[..., -1])


def riesz_base(grid, p=P2):
    """The CLI's Riesz kernel with the F table for ``grid``'s box."""
    return cli.riesz_base(p, cli.f_table(p, grid.bounds))


def commutator(grid, sym=None):
    sym = sym or gaussian_bump([0.5, 1.0], 0.15)
    return cli.commutator(P2, sym, grid, cli.f_table(P2, grid.bounds))


def brute_force_commutator(base, sym):
    """The commutator kernel on every node pair: the reference for ``symbol=``."""
    return lambda x, y: commutator_kernel(base, sym, x, y)


def test_grid_1d_midpoints():
    g = make_grid([(0.0, 1.0)], 4)
    assert np.allclose(g.nodes[:, 0], [1 / 8, 3 / 8, 5 / 8, 7 / 8])
    assert np.allclose(g.cell_weights, 0.25)


def test_grid_2d():
    g = make_grid([(0.0, 1.0), (1.0, 2.0)], (2, 2))
    assert len(g.nodes) == 4
    assert np.allclose(g.cell_weights, 0.25)
    assert abs(g.cell_weights.sum() - g.volume) <= 1e-12 * g.volume


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid([(0.0, 1.0), (0.0, 1.0)], 4, halfspace=True)
    with pytest.raises(ValueError):
        make_grid([(1.0, 1.0)], 4)
    with pytest.raises(ValueError):
        make_grid([(0.0, 1.0)], 2**15)


def test_assemble_zero_kernel():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (6, 6), halfspace=True)
    A = assemble(lambda x, y: np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])),
                 g, 1.0)
    assert np.all(A.entries == 0.0)


def test_assemble_constant_symbol_commutator_is_zero():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (8, 8), halfspace=True)
    A = commutator(g, sym=constant_symbol(2.5))
    assert np.all(A.entries == 0.0)


def test_hilbert_schmidt_consistency_smooth_kernel():
    # Frobenius norm^2 against an independent 4-d Gauss-Legendre quadrature
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
        A = assemble(smooth_kernel, g, lam, zero_diagonal=False)
        fro2 = float(np.sum(A.entries**2))
        errs.append(abs(fro2 - ref) / ref)
    assert errs[1] <= 0.02
    assert errs[1] < errs[0]


def test_conjugation_preserves_singular_values():
    # x_last^lam maps the weighted space unitarily onto Lebesgue measure: the
    # conjugated kernel assembled with lam=0 is the same matrix
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (10, 10), halfspace=True)
    sym = gaussian_bump([0.5, 1.0], 0.15)
    base = riesz_base(g)
    A = assemble(base, g, P2.lam, symbol=sym)
    B = assemble(lambda x, y: (x[..., -1] * y[..., -1]) ** P2.lam * base(x, y), g, 0.0,
                 symbol=sym)
    assert B.measure_exponent == 0.0
    assert np.max(np.abs(A.entries - B.entries)) <= 1e-14 * np.max(np.abs(A.entries))
    s1, s2 = singular_values(A), singular_values(B)
    assert np.max(np.abs(s1 - s2)) <= 1e-12 * s1[0]


def test_schur_apply_identity_and_commutativity():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (8, 8), halfspace=True)
    A = commutator(g)
    same = schur_apply(lambda x, y: np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])), A)
    assert np.array_equal(same.entries, A.entries)
    ab = schur_apply(symbol_a, schur_apply(symbol_b, A))
    ba = schur_apply(symbol_b, schur_apply(symbol_a, A))
    assert np.array_equal(ab.entries, ba.entries)


def test_schur_direction_symbol_norm_ratio_bounded_under_refinement():
    # the directional Schur multiplier is bounded with a constant: record the
    # operator-norm ratio across refinements and require it to stay bounded
    ratios = []
    for m in (8, 12, 16):
        g = make_grid([(0.0, 1.0), (0.5, 1.5)], (m, m), halfspace=True)
        A = commutator(g)
        S = schur_apply(lambda x, y: symbol_h(1, x, y), A)
        s0 = singular_values(A)[0]
        s1 = singular_values(S)[0]
        ratios.append(s1 / s0)
    assert max(ratios) <= 2.0
    assert max(ratios) - min(ratios) <= 0.5


def test_frobenius_domination():
    # |K2| <= K1 entrywise implies Frobenius domination of the assemblies
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (10, 10), halfspace=True)
    K1 = lambda x, y: smooth_kernel(x, y) + 0.1
    K2 = lambda x, y: (smooth_kernel(x, y) + 0.1) * np.sin(3 * x[..., 0] * y[..., -1])
    A1 = assemble(K1, g, 0.7)
    A2 = assemble(K2, g, 0.7)
    assert np.linalg.norm(A2.entries) <= np.linalg.norm(A1.entries)


@pytest.mark.parametrize(
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
def test_toeplitz_commutator_matches_brute_force(n, k, points):
    p = ModelParams(n=n, lam=1.0, k=k)
    g = make_grid([(0.0, 1.0)] * n + [(0.5, 1.5)], points, halfspace=True)
    base = riesz_base(g, p)
    sym = gaussian_bump([0.5] * n + [1.0], 0.15)
    A = assemble(base, g, p.lam, symbol=sym)
    B = assemble(brute_force_commutator(base, sym), g, p.lam)
    scale = np.max(np.abs(B.entries))
    assert scale > 0.0
    assert np.max(np.abs(A.entries - B.entries)) <= 1e-13 * scale
    assert A.diagonal_bias == B.diagonal_bias


def test_toeplitz_assembly_reports_nonfinite_pair():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (4, 4), halfspace=True)

    def base(x, y):
        # infinite exactly where the vertical coordinates differ by 0.5
        return 1.0 / (np.abs(x[..., -1] - y[..., -1]) - 0.5)

    with pytest.raises(FloatingPointError, match=r"node pair \(0, 2\)"):
        assemble(base, g, 1.0, symbol=gaussian_bump([0.5, 1.0], 0.15))


def test_weighted_assembly_requires_lambda():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (4, 4), halfspace=True)
    with pytest.raises(TypeError):
        assemble(smooth_kernel, g)


def test_matrix_roundtrip(tmp_path):
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (6, 6), halfspace=True)
    A = assemble(smooth_kernel, g, 0.5, zero_diagonal=False)
    path = tmp_path / "matrix.bin"
    save_matrix(A, path)
    entries, tag = load_matrix(path)
    assert tag == "weighted"
    assert np.array_equal(entries, A.entries)
    meta = (tmp_path / "matrix.bin.meta.csv").read_text()
    assert "space_tag,weighted" in meta
    # lam = 0 is Lebesgue measure: tag byte 0 and the "unweighted" meta row
    save_matrix(assemble(smooth_kernel, g, 0.0, zero_diagonal=False), path)
    assert load_matrix(path)[1] == "unweighted"
    assert "space_tag,unweighted" in (tmp_path / "matrix.bin.meta.csv").read_text()


def test_diagonal_bias_reported():
    g = make_grid([(0.0, 1.0), (0.5, 1.5)], (8, 8), halfspace=True)
    A = commutator(g)
    assert A.diagonal_bias > 0.0
