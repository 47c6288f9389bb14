"""Acceptance battery: one test per exit criterion, each printing a pass/fail
line with the measured values at its pinned tolerance."""

import pytest

from besselriesz import verify


def _run(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.criterion}: {result.measured} "
          f"(tolerance: {result.tolerance}; {result.seconds:.1f}s)")
    assert result.passed, f"{result.criterion}: {result.measured}"
    return result


def test_criterion_01_bessel_closed_form():
    _run(verify.check_bessel_closed_form)


def test_criterion_02_f_zero_limits():
    _run(verify.check_f_zero_limits)


def test_criterion_03_decomposition():
    _run(verify.check_decomposition)


def test_criterion_04_derivative_envelope():
    _run(verify.check_derivative_envelope)


def test_criterion_05_three_way_kernels():
    _run(verify.check_three_way_kernels)


def test_criterion_06_ratio_bound():
    _run(verify.check_ratio_bound)


def test_criterion_07_schur_identity():
    _run(verify.check_schur_identity)


def test_criterion_08_hilbert_schmidt_identity():
    measured = _run(verify.check_hilbert_schmidt_identity).measured
    # the values of the dense Frobenius sum, which the generator's sum
    # reproduces up to rounding
    pinned = {"trace_quadrature": 0.031246364003777553,
              "rel_err_32": 4.58340257134426e-06,
              "rel_err_64": 6.873602972051824e-08}
    for key, value in pinned.items():
        assert abs(measured[key] - value) <= 1e-12, key


def test_criterion_09_spectral_decay_stability():
    _run(verify.check_spectral_decay_stability)


@pytest.mark.slow
def test_criterion_10_weyl_law():
    _run(verify.check_weyl_law)


def test_criterion_11_conjugation_invariance():
    _run(verify.check_measure_change)


def test_criterion_12_determinism():
    _run(verify.check_determinism)
