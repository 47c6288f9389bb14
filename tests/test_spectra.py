import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from besselriesz import cli
from besselriesz.discretize import ProducedMatrix, make_grid
from besselriesz.special import ModelParams
from besselriesz.spectra import (
    GRAM_BOUND_MAX,
    default_window,
    singular_values,
    tail_certificate,
    weak_quasinorm,
    weyl_fit,
)
from besselriesz.symbols import Symbol, gaussian_bump


def produced(a):
    """The array ``a`` as a ``ProducedMatrix`` that copies its rows out of ``a``."""
    a = np.asarray(a, dtype=float)

    def fill(lo, out):
        np.copyto(out, a[lo:lo + len(out)])

    return ProducedMatrix(a.shape, lambda: fill, 1)


def test_singular_values_diagonal():
    record = {}
    s = singular_values(produced(np.diag([3.0, 1.0, 2.0])), record=record)
    assert np.allclose(s, [3.0, 2.0, 1.0])
    # no count: the dense SVD of every value, no Gram bound, no certificate
    assert record == {"solver": "dense", "count": 3, "error_bound": None,
                      "head_sup": None, "tail_bound": None, "blocks": 1}


def test_singular_values_rank_one():
    u = np.array([1.0, 2.0, -1.0])
    v = np.array([0.5, 0.0, 2.0])
    s = singular_values(produced(np.outer(u, v)))
    assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-13, abs=0)
    assert np.all(s[1:] <= 1e-14 * s[0])


@pytest.mark.parametrize("m", [24, 48])
def test_top_count_matches_dense_head(m):
    # both default symbols' commutators, the top count the ratio fit reads
    cfg = cli.parse_config({})
    grid = cfg.grid((m, m))
    ftab = cli.f_table(cfg.params, cfg.bounds)
    count = default_window(len(grid.nodes))[1] + 1
    for sym in (cfg.symbol, cfg.symbol2):
        A = cli.commutator(cfg.params, sym, grid, ftab)
        record = {}
        top = singular_values(A, count, 2.0, record)
        assert record["solver"] == "gram"
        assert record["count"] == count
        assert record["error_bound"] <= GRAM_BOUND_MAX
        assert record["tail_bound"] <= record["head_sup"]
        dense = np.linalg.svd(A.entries, compute_uv=False)
        np.testing.assert_allclose(top, dense[:count], rtol=1e-12, atol=0)


def test_top_count_falls_back_to_dense():
    # a range of 1e-8 squares to 1e-16: the Gram bound trips, the certificate
    # is never reached, and every value comes from the dense SVD
    D = produced(np.diag(np.logspace(0, -8, 40)))
    record = {}
    s = singular_values(D, 20, 2.0, record)
    assert record["solver"] == "dense" and record["count"] == 40
    assert record["error_bound"] > GRAM_BOUND_MAX
    assert record["head_sup"] is None and record["tail_bound"] is None
    assert np.array_equal(s, singular_values(D))


def test_top_count_certificate_failure_falls_back_to_dense():
    # the identity's weighted sequence peaks at its last index: a head of 10
    # passes the Gram bound but cannot carry the weak-L2 quasinorm
    record = {}
    s = singular_values(produced(np.eye(40)), 10, 2.0, record)
    assert record["solver"] == "dense" and record["count"] == 40
    assert record["error_bound"] <= GRAM_BOUND_MAX
    assert not record["tail_bound"] <= record["head_sup"]
    assert np.array_equal(s, np.ones(40))


def test_top_count_gram_overwritten_in_place(monkeypatch):
    # eigh copies a C-ordered G before overwriting it: one more N x N array
    orders, calls = [], []
    eigh = scipy.linalg.eigh

    def spy(a, **kwargs):
        orders.append(a.flags.f_contiguous)
        calls.append(kwargs)
        return eigh(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    # a rotated power law steeper than the weak-L2 rate, so the head certifies
    rng = np.random.default_rng(3)
    U, V = (np.linalg.qr(rng.normal(size=(30, 30)))[0] for _ in range(2))
    A = U @ np.diag((np.arange(30) + 1.0) ** -0.75) @ V.T
    record = {}
    singular_values(produced(A), 5, 2.0, record)
    assert record["solver"] == "gram"
    assert orders == [True]
    # every eigenvalue of the tridiagonal form (dsterf), not a bisected subset
    assert "subset_by_index" not in calls[0] and calls[0]["driver"] == "evd"


def test_split_head_past_a_block_size_matches_dense():
    # 8^2 splits into two 32-column blocks; a head of 48 takes every value of
    # one block and the top of the other
    cfg = cli.parse_config({})
    grid = cfg.grid((8, 8))
    A = cli.commutator(cfg.params, gaussian_bump([0.5, 1.0], 0.2), grid,
                       cli.f_table(cfg.params, cfg.bounds))
    assert [block.shape for block in A.mirror_blocks()] == [(32, 32), (32, 32)]
    record = {}
    top = singular_values(A, 48, 2.0, record)
    assert record["solver"] == "gram" and record["blocks"] == 2 and record["count"] == 48
    np.testing.assert_allclose(top, np.linalg.svd(A.entries, compute_uv=False)[:48],
                               rtol=1e-12, atol=0)


def test_top_count_validation():
    A = produced(np.eye(5))
    for count in (0, -1, 6):
        with pytest.raises(ValueError, match="outside"):
            singular_values(A, count, 2.0)
    # a head is only returned certified, and the certificate needs p
    with pytest.raises(ValueError, match="exponent p"):
        singular_values(A, 3)


def test_weak_quasinorm_examples():
    k = np.arange(50)
    assert weak_quasinorm((k + 1.0) ** -0.5, 2.0) == pytest.approx(1.0, rel=1e-14, abs=0)
    assert weak_quasinorm([5.0], 3.0) == 5.0


@given(c=st.floats(min_value=0.01, max_value=100), p=st.floats(min_value=0.5, max_value=5))
@settings(max_examples=50, deadline=None)
def test_weak_quasinorm_homogeneous(c, p):
    s = np.sort(np.random.default_rng(0).uniform(0, 1, 30))[::-1]
    assert weak_quasinorm(c * s, p) == pytest.approx(c * weak_quasinorm(s, p), rel=1e-12, abs=0)


def test_weak_quasinorm_dominates_top_value():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = np.sort(rng.uniform(0, 1, 40))[::-1]
        q = weak_quasinorm(s, 2.0)
        assert q >= s[0]
    # equality iff the sup is attained at k = 0
    s = np.array([1.0, 1e-6, 1e-9])
    assert weak_quasinorm(s, 2.0) == s[0]


def _tail_bound_by_loop(head, frobenius_sq, N, p, error_bound):
    # the certificate's bound, one k at a time
    tail = frobenius_sq - sum(mu * mu for mu in head)
    tail += (error_bound + N * np.finfo(float).eps) * frobenius_sq
    r = len(head)
    return max((k + 1) ** (1 / p) * min(head[-1], np.sqrt(tail / (k - r + 1)))
               for k in range(r, N))


def test_tail_certificate_power_law_head():
    # a power law steeper than the weak-L2 rate: the sup sits at index 0 and
    # the Frobenius tail of the unsolved values cannot reach it
    s = (np.arange(2000) + 1.0) ** -0.75
    frobenius_sq = float(np.sum(s**2))
    head_sup, tail_bound = tail_certificate(s[:200], frobenius_sq, 2000, 2.0)
    assert tail_bound <= head_sup
    assert head_sup == weak_quasinorm(s, 2.0) == 1.0
    assert tail_bound == pytest.approx(
        _tail_bound_by_loop(s[:200], frobenius_sq, 2000, 2.0, 0.0), rel=1e-12, abs=0)
    # the error bound of the head's squares raises the tail mass
    loose = tail_certificate(s[:200], frobenius_sq, 2000, 2.0, error_bound=1e-3)[1]
    assert loose == pytest.approx(
        _tail_bound_by_loop(s[:200], frobenius_sq, 2000, 2.0, 1e-3), rel=1e-12, abs=0)
    assert loose > tail_bound


def test_tail_certificate_rejects_flat_spectrum():
    # the identity's weighted sequence (k+1)^(1/2) peaks at the last index
    head = np.ones(10)
    head_sup, tail_bound = tail_certificate(head, 40.0, 40, 2.0)
    assert head_sup == pytest.approx(np.sqrt(10.0), rel=1e-14, abs=0)
    assert not tail_bound <= head_sup
    assert tail_bound >= weak_quasinorm(np.ones(40), 2.0)


def test_tail_certificate_zero_matrix():
    assert tail_certificate(np.zeros(10), 0.0, 40, 2.0) == (0.0, 0.0)
    # a head that is the whole sequence leaves no tail
    assert tail_certificate(np.ones(4), 4.0, 4, 2.0) == (2.0, 0.0)


def test_weyl_fit_exact_power_law():
    k = np.arange(300, dtype=float)
    s = 2.0 * (k + 1.0) ** -0.5
    fit = weyl_fit(s, 2.0, default_window(s.size))
    assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
    assert fit.coefficient == pytest.approx(2.0, rel=1e-12, abs=0)
    assert fit.pinned_coefficient == pytest.approx(2.0, rel=1e-12, abs=0)
    assert fit.residual <= 1e-13


def test_weyl_fit_noisy_power_law_recovery():
    rng = np.random.default_rng(2)
    k = np.arange(2000, dtype=float)
    delta = 0.02
    s = 1.7 * (k + 1.0) ** -0.5 * (1.0 + rng.uniform(-delta, delta, k.size))
    s = np.sort(s)[::-1]
    fit = weyl_fit(s, 2.0, default_window(s.size))
    assert abs(fit.coefficient - 1.7) <= 5 * delta * 1.7
    assert abs(fit.exponent + 0.5) <= delta


def test_weyl_fit_window_validation():
    s = np.ones(10)
    with pytest.raises(ValueError):
        weyl_fit(s, 2.0, window=(8, 20))
    s2 = np.concatenate([np.ones(5), np.zeros(5)])
    with pytest.raises(ValueError):
        weyl_fit(s2, 2.0, window=(2, 8))


def test_default_window():
    lo, hi = default_window(2304)
    assert lo == int(np.ceil(2304**0.3))
    assert hi == int(np.floor(2304**0.7))


def test_quasi_triangle_inequality_for_commutators():
    p = ModelParams(n=1, lam=1.0, k=2)
    grid = make_grid([(0.0, 1.0), (0.5, 1.5)], (12, 12), halfspace=True)
    ftab = cli.f_table(p, grid.bounds)
    f = gaussian_bump([0.45, 0.95], 0.14)
    g = gaussian_bump([0.6, 1.1], 0.2, amplitude=-0.6)
    fg = Symbol(func=lambda x: f(x) + g(x), gradient=lambda x: f.grad(x) + g.grad(x))

    def spectrum(sym):
        return singular_values(cli.commutator(p, sym, grid, ftab))

    sf, sg, sfg = spectrum(f), spectrum(g), spectrum(fg)
    pw = 2.0
    lhs = weak_quasinorm(sfg, pw)
    rhs = 2.0 ** (1 / pw) * (weak_quasinorm(sf, pw) + weak_quasinorm(sg, pw))
    assert lhs <= rhs


def test_spectrum_scales_linearly_in_symbol():
    p = ModelParams(n=1, lam=1.0, k=2)
    grid = make_grid([(0.0, 1.0), (0.5, 1.5)], (10, 10), halfspace=True)
    ftab = cli.f_table(p, grid.bounds)
    f = gaussian_bump([0.5, 1.0], 0.15)
    f2 = gaussian_bump([0.5, 1.0], 0.15, amplitude=2.0)

    def spectrum(sym):
        return singular_values(cli.commutator(p, sym, grid, ftab))

    s1, s2 = spectrum(f), spectrum(f2)
    assert np.allclose(s2, 2.0 * s1, rtol=1e-12, atol=1e-15)
