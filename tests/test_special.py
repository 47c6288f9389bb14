import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import binom as integer_binom

from besselriesz.special import (
    ModelParams,
    bessel_j,
    gen_binomial,
    model_constants,
    phi_lambda,
    psi_bound,
    psi_lambda,
    riesz_constant,
)


def test_bessel_series_values_at_origin():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0


def test_bessel_half_integer_closed_form():
    x = np.pi / 2
    assert bessel_j(0.5, x) == pytest.approx(2.0 / np.pi, rel=1e-12, abs=0)


def test_bessel_rejects_negative_argument():
    with pytest.raises(ValueError):
        bessel_j(0.5, -1.0)
    with pytest.raises(ValueError):
        bessel_j(-0.7, 1.0)


def test_phi_lambda_half_reduces_to_j0():
    x = np.linspace(0.1, 20, 40)
    assert np.allclose(phi_lambda(0.5, x), bessel_j(0.0, x), rtol=1e-13)
    assert phi_lambda(0.5, 0.0) == pytest.approx(1.0, rel=1e-13, abs=0)


def test_phi_lambda_one_closed_form():
    x = np.linspace(0.05, 30, 57)
    assert np.allclose(phi_lambda(1.0, x), np.sqrt(2 / np.pi) * np.sin(x) / x, rtol=1e-12)
    assert phi_lambda(1.0, 0.0) == pytest.approx(np.sqrt(2 / np.pi), rel=1e-13, abs=0)


def test_psi_lambda_examples():
    assert psi_lambda(1.0, np.pi) == pytest.approx(0.0, abs=1e-13)
    for lam in (0.5, 1.0, 2.3):
        assert psi_lambda(lam, 0.0) == 0.0
    t = np.logspace(-3, 4, 500)
    assert np.max(np.abs(psi_lambda(1.0, t))) <= np.sqrt(2 / np.pi) + 1e-9


def test_psi_phi_relation():
    t = np.logspace(-3, 2, 200)
    for lam in (0.5, 1.0, 1.5, 2.7):
        assert np.allclose(
            phi_lambda(lam, t) * t**lam, psi_lambda(lam, t), rtol=1e-13, atol=1e-300
        )


def test_psi_lambda_scalar_path_matches_array_path():
    # a float argument takes the scalar path; its value must be the array
    # path's to the bit, on both sides of the t < 1e-4 series branch
    for lam in (0.3, 0.5, 1.0, 1.7):
        for t in (0.0, 1e-7, 9.9e-5, 1e-4, 0.3, 40.0, 1e4):
            want = psi_lambda(lam, np.array([t]))[0]
            for scalar in (t, np.float64(t)):
                got = psi_lambda(lam, scalar)
                assert type(got) is float
                assert np.float64(got).tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        psi_lambda(1.0, -0.5)
    with pytest.raises(ValueError):
        psi_lambda(1.0, np.float64(-1e-3))
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError):
            psi_lambda(lam, 0.3)


def test_psi_bound_stable_under_grid_refinement():
    for lam in (0.5, 1.0, 1.5, 2.7):
        coarse = psi_bound(lam, grid_points=2000)
        fine = psi_bound(lam, grid_points=8000)
        assert abs(fine - coarse) <= 1e-3 * coarse


def test_gen_binomial_examples():
    assert gen_binomial(3.7, 0) == 1.0
    lam = 1.8
    assert gen_binomial(lam - 1.0, 1) == pytest.approx(lam - 1.0, rel=1e-15, abs=0)
    assert gen_binomial(-2.5, 2) == pytest.approx(4.375, rel=1e-15, abs=0)


@given(m=st.integers(min_value=0, max_value=25), k=st.integers(min_value=0, max_value=25))
@settings(max_examples=100, deadline=None)
def test_gen_binomial_matches_integer_binomial(m, k):
    if m >= k:
        assert gen_binomial(float(m), k) == pytest.approx(integer_binom(m, k), rel=1e-12, abs=0)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=0, lam=1.0, k=1)
    with pytest.raises(ValueError):
        ModelParams(n=1, lam=-1.0, k=1)
    with pytest.raises(ValueError):
        ModelParams(n=1, lam=1.0, k=3)


def test_constant_relations_exact():
    for n in (1, 2):
        for lam in (0.5, 1.0, 1.5, 2.7):
            c = model_constants(ModelParams(n=n, lam=lam, k=1))
            assert c.kappa2 == (2.0 * lam + n) * c.kappa1  # same expression
            assert c.kappa2 / c.kappa1 == pytest.approx(2 * lam + n, rel=1e-15, abs=0)
            assert c.kappa3 * c.omega_n == pytest.approx(c.kappa2, rel=1e-15, abs=0)
            for v in (c.kappa_lambda, c.kappa1, c.kappa2, c.kappa3, c.omega_n):
                assert v > 0


def test_constant_values_n1():
    # mass-normalized family; the heat-kernel and three-way representation
    # tests in test_kernels pin these absolutely
    c = model_constants(ModelParams(n=1, lam=0.5, k=1))
    assert c.kappa_lambda == pytest.approx(1 / (4 * np.pi**1.5), rel=1e-14, abs=0)
    assert c.kappa1 == pytest.approx(np.pi**-2, rel=1e-14, abs=0)
    assert c.kappa2 == pytest.approx(2 * np.pi**-2, rel=1e-14, abs=0)
    assert c.omega_n == pytest.approx(1 / (2 * np.pi), rel=1e-14, abs=0)


def test_riesz_constant_dimension_two():
    assert riesz_constant(1) == pytest.approx(1 / (2 * np.pi), rel=1e-14, abs=0)
