"""Acceptance battery: every quantitative exit criterion as a callable check.

Each check pins its tolerance, computes the measured quantity, and reports a
CheckResult; the pytest acceptance module and the ``verify`` CLI pipeline both
consume this list so the criteria are runnable in either harness.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import cli
from .auxfn import (
    IDX11,
    IDX20,
    IDX21,
    PROFILES,
    DirectF,
    F,
    F_decomposed_batch,
    derivative_bound_probe,
    f_zero,
)
from .discretize import assemble, make_grid, nystrom_generator
from .kernels import (
    commutator_kernel,
    gaussian_profile_kernel,
    invsqrt_kernel_closed,
    invsqrt_kernel_subordination,
    prop35_rhs_kernel,
    ratio_bound_check,
    spectral_kernel_inverse_radial,
)
from .quadrature import gauss_legendre_box
from .special import ModelParams, bessel_j, gamma, psi_lambda
from .spectra import singular_values
from .symbols import gaussian_bump


@dataclass
class CheckResult:
    criterion: str
    passed: bool
    tolerance: str
    measured: dict
    seconds: float


def _result(name, t0, passed, tolerance, **measured) -> CheckResult:
    return CheckResult(
        criterion=name,
        passed=bool(passed),
        tolerance=tolerance,
        measured={k: _jsonable(v) for k, v in measured.items()},
        seconds=time.perf_counter() - t0,
    )


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def check_bessel_closed_form() -> CheckResult:
    """1: half-integer Bessel against its elementary closed form."""
    t0 = time.perf_counter()
    x = np.logspace(-2, 2, 100)
    closed = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
    rel = np.abs(bessel_j(0.5, x) - closed) / np.abs(closed)
    worst = float(rel.max())
    return _result(
        "1 half-integer Bessel closed form", t0,
        worst <= 1e-12, "rel <= 1e-12 on 100 log-spaced x in (0, 100]",
        max_rel_err=worst,
    )


def check_f_zero_limits() -> CheckResult:
    """2: zero limits of the F profiles and the Beta closed form for F20(0)."""
    t0 = time.perf_counter()
    worst_zero = 0.0
    worst_beta = 0.0
    confirmations = []
    for n in (1, 2):
        for lam in (0.5, 1.0, 1.5):
            p = ModelParams(n=n, lam=lam, k=1)
            worst_zero = max(
                worst_zero, abs(f_zero(IDX11, p)), abs(f_zero(IDX21, p))
            )
            closed = gamma(lam) * gamma(n / 2 + 1) / (2 * gamma(lam + n / 2 + 1))
            # confirm the closed form against the defining integral's limit
            seq = [abs(F(IDX20, p, x) - closed) for x in (1e-2, 1e-3, 1e-4)]
            confirmations.append(seq[0] > seq[1] > seq[2])
            worst_beta = max(worst_beta, abs(f_zero(IDX20, p) - closed) / closed)
    passed = worst_zero <= 1e-8 and worst_beta <= 1e-6 and all(confirmations)
    return _result(
        "2 zero limits of the F profiles", t0, passed,
        "|F11(0)|,|F21(0)| <= 1e-8; F20(0) vs Beta closed form rel <= 1e-6",
        max_abs_zero=worst_zero, max_beta_rel=worst_beta,
        limit_confirms_closed_form=all(confirmations),
    )


def check_decomposition() -> CheckResult:
    """3: three-part decomposition against direct quadrature."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        for lam in (0.5, 1.0, 1.5):
            p = ModelParams(n=n, lam=lam, k=1)
            xs = (0.1, 0.5, 1.0)
            decomposed = F_decomposed_batch(p, xs, PROFILES)
            for idx in PROFILES:
                for x, dec in zip(xs, decomposed[idx]):
                    worst = max(worst, abs(F(idx, p, x) - dec))
    return _result(
        "3 near-zero decomposition agreement", t0, worst <= 1e-8,
        "|F - F_decomposed| <= 1e-8 at x in {0.1, 0.5, 1}, all indices, 6 (n, lam)",
        max_abs_residual=worst,
    )


def check_derivative_envelope() -> CheckResult:
    """4: derivative envelope finite, decade sups non-increasing from the top."""
    t0 = time.perf_counter()
    xs = np.logspace(1, 3, 25)
    all_ok = True
    records = {}
    for lam in (0.5, 1.0):
        p = ModelParams(n=1, lam=lam, k=1)
        for idx in PROFILES:
            for j in (0, 1, 2):
                rep = derivative_bound_probe(idx, p, j, xs)
                sups = rep.decade_sups
                finite = bool(np.all(np.isfinite(sups)))
                # scanning decades from the largest x down, sups must not increase
                downward = sups[::-1]
                monotone = bool(np.all(np.diff(downward) <= 1e-9 * downward[:-1]))
                ok = finite and monotone and rep.bounded
                all_ok = all_ok and ok
                records[f"lam{lam}_F{idx.k}{idx.l}_j{j}"] = sups.tolist()
    return _result(
        "4 derivative envelope across decades", t0, all_ok,
        "per-decade sups of |F^(j)| x^(2+2lam+j-k) finite, non-increasing from the top decade",
        decade_sups=records,
    )


def check_three_way_kernels() -> CheckResult:
    """5: closed form / subordination / spectral representations agree."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for lam in (0.5, 1.0, 1.5):
        p = ModelParams(n=1, lam=lam, k=1)
        pairs = 0
        while pairs < 20:
            x = np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2.5)])
            y = np.array([rng.uniform(-1, 1), rng.uniform(0.5, 2.5)])
            separated = np.linalg.norm(x - y) >= 0.1 * min(x[-1], y[-1])
            if not separated or abs(x[0] - y[0]) < 0.3:
                continue
            pairs += 1
            a = invsqrt_kernel_closed(p, x, y)
            b = invsqrt_kernel_subordination(p, x, y)
            c = spectral_kernel_inverse_radial(p, x, y)
            worst = max(worst, max(abs(a - b), abs(a - c), abs(b - c)) / abs(a))
    return _result(
        "5 three-way inverse-sqrt kernel agreement", t0, worst <= 1e-3,
        "pairwise rel <= 1e-3 at 20 separated pairs, lam in {0.5, 1, 1.5}",
        max_pairwise_rel=worst,
    )


def check_ratio_bound() -> CheckResult:
    """6: height-ratio bound for pairs with H <= 1."""
    t0 = time.perf_counter()
    rep = ratio_bound_check(10**5, n=1, seed=6)
    return _result(
        "6 height-ratio bound under H <= 1", t0, rep.violations == 0,
        "zero violations of [(3-sqrt5)/2, (3+sqrt5)/2] over 1e5 accepted pairs",
        accepted=rep.accepted, violations=rep.violations,
        ratio_range=[rep.ratio_min, rep.ratio_max],
    )


def check_schur_identity() -> CheckResult:
    """7: commutator kernel equals the Schur-symbol assembly pointwise."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    f = gaussian_bump([0.3, 1.2], 0.4)
    worst = 0.0
    for k in (1, 2):
        p = ModelParams(n=1, lam=1.0, k=k)
        f_eval = DirectF(p)
        base = cli.riesz_base(p, f_eval)
        pairs = 0
        while pairs < 1000:
            x = np.array([rng.uniform(-1, 1), rng.uniform(0.3, 3.0)])
            y = np.array([rng.uniform(-1, 1), rng.uniform(0.3, 3.0)])
            if np.linalg.norm(x - y) < 1e-6:
                continue
            pairs += 1
            lhs = commutator_kernel(base, f, x, y)
            rhs = prop35_rhs_kernel(p, f, x, y, f_eval)
            if lhs != 0.0:
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
    return _result(
        "7 Schur-assembly kernel identity", t0, worst <= 1e-10,
        "rel <= 1e-10 at 1e3 random pairs, k in {1, n+1}",
        max_rel=worst,
    )


def multiplier_frobenius_sq(kernel, symbol, grid, lam: float) -> float:
    """|M_f K|_F^2 for the Nystrom matrix f(x_i) kernel(x_i, x_j) norm_i norm_j
    of a laterally translation-invariant ``kernel``, read from its generator
    G (``nystrom_generator``, which folds in norm_a norm_b) without forming
    the matrix: the sum over nodes i = (I, a) of f(x_i)^2 times
    sum_{J, b} G[I - J][a, b]^2.  Along each lateral axis row I reads the
    m consecutive offsets I - J, so that inner sum is a sum of the squared
    generator rows over a window of m offsets, taken one axis at a time.
    A diagonal the kernel cannot evaluate makes the sum NaN."""
    gen, _, _ = nystrom_generator(kernel, grid, lam)
    *lateral, _ = grid.points_per_dim
    rows = np.sum(gen**2, axis=-1)  # (2 m_1 - 1, ..., 2 m_n - 1, m_v)
    for axis, m in enumerate(lateral):
        # row I reads offsets I - J + m - 1 = I, ..., I + m - 1 along the axis
        rows = sliding_window_view(rows, m, axis=axis).sum(axis=-1)
    return float(np.dot(symbol(grid.nodes) ** 2, rows.ravel()))


def check_hilbert_schmidt_identity() -> CheckResult:
    """8: Frobenius norm of the Nystrom multiplier matrix M_f K vs the trace
    quadrature.  The norm is read from the lateral Toeplitz generator that
    every commutator assembly builds (``multiplier_frobenius_sq``), so the
    criterion tests the Nystrom weights and measure density of that path."""
    t0 = time.perf_counter()
    p = ModelParams(n=1, lam=1.0, k=1)
    f = gaussian_bump([0.0, 4.5], 0.5)
    kern = partial(gaussian_profile_kernel, p)

    xr = gauss_legendre_box([(-3.0, 3.0), (1.5, 7.5)], 60)
    ur = gauss_legendre_box([(0.0, 5.0)], 200)
    u = ur.nodes[:, 0]
    inner = np.array(
        [np.dot(ur.weights, np.exp(-2 * u * u) * psi_lambda(p.lam, x2 * u) ** 2)
         for x2 in xr.nodes[:, 1]]
    )
    trace = float(
        (0.5 / np.pi) * np.sqrt(np.pi / 2) * np.dot(xr.weights, f(xr.nodes) ** 2 * inner)
    )

    errs = []
    for m in (32, 64):
        grid = make_grid([(-7.0, 7.0), (0.1, 11.0)], (m, m), halfspace=True)
        fro2 = multiplier_frobenius_sq(kern, f, grid, p.lam)
        errs.append(abs(fro2 - trace) / trace)
    passed = errs[0] <= 0.02 and errs[1] < errs[0]
    return _result(
        "8 Hilbert-Schmidt trace identity", t0, passed,
        "rel <= 2% at 32 points/dim and decreasing at 64",
        trace_quadrature=trace, rel_err_32=errs[0], rel_err_64=errs[1],
    )


def _run_cli(config: dict, refine: int = 0):
    """``cli.run`` of ``config`` (merged over the CLI defaults) in a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        return cli.run(cli.parse_config(config), out_dir=tmp, refine=refine)


def check_spectral_decay_stability() -> CheckResult:
    """9: weak quasinorm stable under grid doubling; constant symbol gives 0."""
    t0 = time.perf_counter()
    refined = _run_cli(
        {"pipeline": "spectrum", "box": {"points_per_dim": [32, 32]}}, refine=1
    ).results
    q32 = refined["level0"]["weak_quasinorm"]
    q64 = refined["level1"]["weak_quasinorm"]
    drift = refined["quasinorm_drift"][0]
    constant = _run_cli(
        {
            "pipeline": "spectrum",
            "box": {"points_per_dim": [16, 16]},
            "symbol": {"kind": "constant", "amplitude": 0.7},
        }
    ).results["level0"]["top_singular_value"]
    passed = drift <= 0.10 and constant == 0.0
    return _result(
        "9 weak-quasinorm stability and constant cutoff", t0, passed,
        "quasinorm change <= 10% from 32^2 to 64^2; constant symbol spectrum == 0",
        quasinorm_32=q32, quasinorm_64=q64, drift=drift,
        constant_top_singular_value=constant,
    )


def check_weyl_law() -> CheckResult:
    """10: free-fit exponent near -1/2 and the two-symbol ratio test,
    both holding at the default grid and after one doubling."""
    t0 = time.perf_counter()
    report = _run_cli({"pipeline": "ratio"}, refine=1)
    record = {}
    ok = True
    for label, index, tag in (("base", 0, ""), ("doubled", 1, "_L1")):
        level = report.results[f"level{index}"]
        exponent = level["fit_f"]["exponent"]
        deviation = level["relative_deviation"]
        ok = ok and abs(exponent + 0.5) <= 0.1 and deviation <= 0.15
        record[label] = {
            "exponent": exponent,
            "coefficient_ratio": level["coefficient_ratio"],
            "seminorm_ratio": level["seminorm_ratio"],
            "ratio_deviation": deviation,
            # which solver gave each symbol's head, and from how many mirror blocks
            **{f"svd_{sym}": {key: report.runtime[f"svd_{sym}{tag}"][key]
                              for key in ("solver", "blocks")}
               for sym in ("f", "g")},
        }
    return _result(
        "10 power-law exponent and coefficient-ratio law", t0, ok,
        "free exponent within 0.1 of -1/2; ratio within 15%; both hold after doubling",
        **record,
    )


def check_measure_change() -> CheckResult:
    """11: the weighted commutator and its Lebesgue-measure conjugate share
    the full singular value list.

    Multiplication by x_last^lam maps L2(x_last^(2 lam) dx) unitarily onto
    L2(dx) and turns K(x, y) into (x_last y_last)^lam K(x, y).  The second
    matrix is assembled from that conjugated kernel with ``lam=0``; in exact
    arithmetic the two matrices agree entry by entry, so the criterion fails
    when ``assemble``'s measure density is wrong."""
    t0 = time.perf_counter()
    # a bump too wide for the support check at 24^2, so the commutator is
    # assembled directly rather than through a config
    cfg = cli.parse_config({})
    p = cfg.params
    grid = cfg.grid((24, 24))
    ftab = cli.f_table(p, cfg.bounds)
    f = gaussian_bump([0.5, 1.0], 0.15)
    base = cli.riesz_base(p, ftab)

    def conjugated(x, y):
        return (x[..., -1] * y[..., -1]) ** p.lam * base(x, y)

    s_weighted = singular_values(cli.commutator(p, f, grid, ftab))
    s_lebesgue = singular_values(assemble(conjugated, grid, 0.0, symbol=f))
    gap = float(np.max(np.abs(s_weighted - s_lebesgue)))
    top = float(s_weighted[0])
    return _result(
        "11 weighted and Lebesgue-measure assemblies share singular values", t0,
        gap <= 1e-12 * top,
        "elementwise <= 1e-12 times the top singular value, between the weighted "
        "commutator and the conjugated kernel assembled with lam=0",
        max_abs_gap=gap, top_singular_value=top,
    )


def check_determinism() -> CheckResult:
    """12: two reruns of the spectrum pipeline write byte-identical CSV output."""
    t0 = time.perf_counter()
    cfg = cli.parse_config(
        {
            "pipeline": "spectrum",
            "box": {"bounds": [[0.0, 1.0], [0.5, 1.5]], "points_per_dim": [16, 16]},
            "symbol": {"kind": "cosine-bump", "center": [0.5, 1.0], "width": [0.35, 0.35]},
        }
    )
    blobs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            cli.run(cfg, out_dir=tmp)
            blobs.append((Path(tmp) / "spectrum.csv").read_bytes())
    identical = blobs[0] == blobs[1]
    return _result(
        "12 byte-identical reruns", t0, identical,
        "spectrum.csv bytes equal across two reruns",
        sha256=hashlib.sha256(blobs[0]).hexdigest(), identical=identical,
    )


ALL_CHECKS = (
    check_bessel_closed_form,
    check_f_zero_limits,
    check_decomposition,
    check_derivative_envelope,
    check_three_way_kernels,
    check_ratio_bound,
    check_schur_identity,
    check_hilbert_schmidt_identity,
    check_spectral_decay_stability,
    check_weyl_law,
    check_measure_change,
    check_determinism,
)


def run_all(checks=None) -> list:
    return [fn() for fn in (checks or ALL_CHECKS)]
