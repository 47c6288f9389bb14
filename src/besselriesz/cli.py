"""Configuration-driven experiment runner.

One pipeline per invocation: ``spectrum`` (assemble the weighted commutator,
compute its singular spectrum and power-law fit), ``ratio`` (two symbols,
coefficient ratio against seminorm ratio), ``auxfn``/``kernel`` (tabulations
with cross-representation residuals), ``sobolev`` (seminorm pair), and
``verify`` (the full acceptance battery).  Outputs are CSV/JSON with full
precision so reruns are byte-comparable.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import numbers
import resource
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .auxfn import PROFILES, F, F_decomposed_batch, TabulatedF, f_zero
from .discretize import BoxGrid, OperatorMatrix, assemble, make_grid, save_matrix
from .kernels import (
    commutator_kernel,  # noqa: F401 - kept in this module's namespace for callers that wrap it
    invsqrt_kernel_closed,
    invsqrt_kernel_subordination,
    riesz_kernel_bessel,
    spectral_kernel_inverse_radial,
)
from .sobolev import directional_seminorm, sobolev_seminorm, sphere_rule
from .special import ModelParams
from .spectra import default_window, singular_values, weak_quasinorm, weyl_fit
from .symbols import Symbol, build_symbol

PIPELINES = ("spectrum", "ratio", "auxfn", "kernel", "sobolev", "verify")

DEFAULT_CONFIG = {
    "params": {"n": 1, "lam": 1.0, "k": 2},
    "box": {"bounds": [[0.0, 1.0], [0.5, 1.5]], "points_per_dim": [48, 48]},
    "symbol": {
        "kind": "cosine-bump",
        "center": [0.5, 1.0],
        "width": [0.43, 0.43],
        "amplitude": 1.0,
    },
    "symbol2": {
        "kind": "cosine-bump",
        "center": [0.48, 0.97],
        "width": [0.36, 0.42],
        "amplitude": 0.75,
    },
    "pipeline": "spectrum",
    "fit": {"window_exponents": [0.3, 0.7]},
    "ratio_tolerance": 0.15,
    "output_dir": "out",
    "save_matrix": False,
    "seed": 0,
}

_SYMBOL_KEYS = {"kind", "center", "width", "amplitude", "axis"}
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string"}


class ConfigError(ValueError):
    pass


def _check_keys(mapping: dict, path: str) -> None:
    if path in ("symbol", "symbol2"):
        allowed = _SYMBOL_KEYS
    else:
        allowed = DEFAULT_CONFIG[path] if path else DEFAULT_CONFIG
    for key in mapping:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {where!r}")


def _typed(value, kind, path: str):
    """``value`` as ``kind`` (int, float, bool or str), or as a tuple of
    ``kind[0]`` when ``kind`` is a one-element list; JSON arrays arrive as
    lists, Python callers may pass tuples.  An int may be given as an integral
    float (48.0), a float as an int; a boolean is not a number, and NaN and
    +-inf (which ``json.load`` reads from the ``NaN`` and ``Infinity``
    tokens) are not numbers either, nor is an int past float range.  Anything
    else raises ConfigError naming ``path``."""
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be an array, got {value!r}")
        return tuple(_typed(v, kind[0], f"{path}[{i}]") for i, v in enumerate(value))
    if kind in (int, float):
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        try:
            ok = ok and (float(value).is_integer() if kind is int else math.isfinite(value))
        except OverflowError:  # an int past float range; its repr may be too long to print
            raise ConfigError(f"{path} must be {_KIND_NAMES[kind]} within float range") from None
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{path} must be {_KIND_NAMES[kind]}, got {value!r}")
    return kind(value)


def _grid(bounds, points) -> BoxGrid:
    """``make_grid`` on a half-space box, its ValueError as a ConfigError."""
    try:
        return make_grid(bounds, points, halfspace=True)
    except ValueError as exc:
        raise ConfigError(f"box: {exc}") from exc


@dataclass
class ExperimentConfig:
    params: ModelParams
    bounds: tuple
    points_per_dim: tuple
    symbol_spec: dict
    symbol2_spec: dict | None
    pipeline: str
    window_exponents: tuple
    ratio_tolerance: float
    output_dir: str
    save_matrix: bool
    seed: int
    raw: dict = field(repr=False, default_factory=dict)
    config_sha256: str = field(repr=False, default="")

    @property
    def symbol(self) -> Symbol:
        return build_symbol(self.symbol_spec)

    @property
    def symbol2(self) -> Symbol:
        if self.symbol2_spec is None:
            raise ConfigError("this pipeline requires a second symbol (symbol2)")
        return build_symbol(self.symbol2_spec)

    def grid(self, points=None) -> BoxGrid:
        return _grid(self.bounds, points if points is not None else self.points_per_dim)


def parse_config(data: dict) -> ExperimentConfig:
    _check_keys(data, "")
    merged = copy.deepcopy(DEFAULT_CONFIG)
    for key, value in data.items():
        if isinstance(value, dict) and key in merged and isinstance(merged[key], dict):
            _check_keys(value, key)
            if key in ("symbol", "symbol2"):
                merged[key] = copy.deepcopy(value)  # symbols replace, not merge
            else:
                merged[key].update(value)
        else:
            merged[key] = value

    for section in ("params", "box", "symbol", "fit"):
        if not isinstance(merged.get(section), dict):
            raise ConfigError(f"{section} must be a JSON object")
    if not isinstance(merged.get("symbol2"), (dict, type(None))):
        raise ConfigError("symbol2 must be a JSON object")

    pd = merged["params"]
    n, lam, k = (_typed(pd[key], kind, f"params.{key}")
                 for key, kind in (("n", int), ("lam", float), ("k", int)))
    try:
        params = ModelParams(n=n, lam=lam, k=k)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc

    box = merged["box"]
    bounds = _typed(box["bounds"], [[float]], "box.bounds")
    if any(len(pair) != 2 for pair in bounds):
        raise ConfigError("box.bounds must be a list of [lo, hi] pairs")
    if len(bounds) != params.n + 1:
        raise ConfigError(f"box.bounds must have {params.n + 1} intervals")
    ppd = box["points_per_dim"]
    if not isinstance(ppd, (list, tuple)):
        ppd = [ppd] * len(bounds)
    grid = _grid(bounds, _typed(ppd, [int], "box.points_per_dim"))

    pipeline = merged["pipeline"]
    if pipeline not in PIPELINES:
        raise ConfigError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")
    if pipeline == "auxfn" and params.lam < 0.5:
        # the decomposition's j + l = 0 far tail is one Jacobi(0, lam - 1)
        # panel, and its quadrature does not converge below lam = 1/2
        raise ConfigError(f"the auxfn pipeline needs params.lam >= 0.5, got {params.lam!r}")
    if pipeline in ("kernel", "verify"):
        # QUADPACK, which only these pipelines call, loads with their config
        import scipy.integrate  # noqa: F401

    window = _typed(merged["fit"]["window_exponents"], [float], "fit.window_exponents")
    if len(window) != 2 or not 0.0 < window[0] < window[1] < 1.0:
        raise ConfigError("fit.window_exponents must be a pair with 0 < lo < hi < 1")

    cfg = ExperimentConfig(
        params=params,
        bounds=grid.bounds,
        points_per_dim=grid.points_per_dim,
        symbol_spec=merged["symbol"],
        symbol2_spec=merged.get("symbol2"),
        pipeline=pipeline,
        window_exponents=window,
        ratio_tolerance=_typed(merged["ratio_tolerance"], float, "ratio_tolerance"),
        output_dir=_typed(merged["output_dir"], str, "output_dir"),
        save_matrix=_typed(merged["save_matrix"], bool, "save_matrix"),
        seed=_typed(merged["seed"], int, "seed"),
        raw=merged,
    )
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    _validate_symbol_support(grid, cfg.symbol_spec, "symbol")
    if pipeline == "ratio":
        _validate_symbol_support(grid, cfg.symbol2_spec, "symbol2")
    elif cfg.symbol2_spec is not None:
        # unused here, but echoed into report.json, which takes finite numbers only
        _type_symbol_fields(cfg.symbol2_spec, "symbol2")
    cfg.config_sha256 = hashlib.sha256(json.dumps(merged, sort_keys=True).encode()).hexdigest()
    return cfg


def _type_symbol_fields(spec: dict, name: str) -> None:
    """The symbol's numeric fields are finite numbers (arrays of them)."""
    for key in ("center", "width", "amplitude"):
        if key in spec:
            kind = [float] if isinstance(spec[key], (list, tuple)) else float
            _typed(spec[key], kind, f"{name}.{key}")


def _validate_symbol_support(grid: BoxGrid, spec: dict | None, name: str) -> None:
    """The symbol's ``support`` box (below 1e-4 of its peak outside) must
    clear the grid box by two cells."""
    if spec is None:
        raise ConfigError(f"{name} missing")
    _type_symbol_fields(spec, name)
    try:
        sym = build_symbol(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc!r}") from exc
    if sym.support is None:  # a constant: no center, nothing to clear
        return
    dim = grid.dim
    if np.shape(spec["center"]) != (dim,) or np.shape(spec["width"]) not in ((), (dim,)):
        raise ConfigError(f"{name}: center needs {dim} coordinates, width a number or {dim}")
    if spec["kind"] == "coordinate-window":
        axis = _typed(spec.get("axis", 0), int, f"{name}.axis")
        if not 0 <= axis < dim:
            raise ConfigError(f"{name}.axis must be in [0, {dim}), got {axis}")
    for i, ((a, b), (lo, hi), h) in enumerate(zip(grid.bounds, sym.support, grid.cell_widths)):
        if lo < a + 2 * h or hi > b - 2 * h:
            raise ConfigError(
                f"{name}: numeric support [{lo:.3f}, {hi:.3f}] in dim {i} "
                f"is not two cells inside the box [{a}, {b}]"
            )


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(json.load(fh))


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _write_csv(path, header: str, line: str, rows) -> None:
    """The header and ``line % row`` for each row, in one write.  Floats
    are printed as ``%.17g``: 17 significant digits read back exactly."""
    with open(path, "w", newline="") as fh:
        fh.write("".join([header + "\n", *(line % tuple(row) + "\n" for row in rows)]))


def _floats(count: int) -> str:
    return ",".join(["%.17g"] * count)


def write_spectrum_csv(path, s: np.ndarray, p: float) -> None:
    _write_csv(path, "index,mu,weighted_mu", "%d," + _floats(2),
               ((k, mu, (k + 1) ** (1.0 / p) * mu) for k, mu in enumerate(s.tolist())))


@dataclass
class RunReport:
    config: dict
    config_sha256: str
    version: str
    timings: dict
    results: dict
    assertions: list
    runtime: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(
                {
                    "config": self.config,
                    "config_sha256": self.config_sha256,
                    "version": self.version,
                    "timings": self.timings,
                    "results": self.results,
                    "assertions": self.assertions,
                    "passed": self.passed,
                    "runtime": self.runtime,
                },
                indent=2,
                sort_keys=True,
                allow_nan=False,
            ) + "\n")


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def f_table(params: ModelParams, bounds) -> TabulatedF:
    """The F table for every node pair of a box: H is at most the box
    diameter over its least height, and the table covers 1.05 times that."""
    diam = np.sqrt(sum((b - a) ** 2 for a, b in bounds))
    return TabulatedF(params, 1.05 * float(diam / bounds[-1][0]))


def riesz_base(params: ModelParams, f_eval):
    """The weighted Riesz kernel K_k(x, y) with the F profiles from ``f_eval``."""
    return partial(riesz_kernel_bessel, params, f_eval=f_eval)


def commutator(params: ModelParams, symbol, grid: BoxGrid, ftab: TabulatedF):
    """[R_k, M_symbol] on ``grid`` in L2(x_last^(2 lam) dx), from the lateral
    block-Toeplitz generator of the tabulated Riesz kernel; for a tuple of
    symbols, the tuple of their commutators, which share one generator."""
    return assemble(riesz_base(params, ftab), grid, params.lam, symbol=symbol)


def _spectrum_for(cfg: ExperimentConfig, A: OperatorMatrix, timings: dict, runtime: dict,
                  tag: str):
    """The singular values of the commutator A and their fit window; returns
    (s, window).  The window comes from the node count, and the fit reads
    indices up to its hi only, so ``singular_values`` is asked for the top
    hi + 1 values at the exponent n + 1: it returns that head when the head
    is trusted, every value otherwise.  The solver record lands in
    ``runtime["svd<tag>"]``."""
    N = A.shape[0]
    window = default_window(N, *cfg.window_exponents)
    t0 = time.perf_counter()
    runtime[f"svd{tag}"] = {}
    s = singular_values(A, min(window[1] + 1, N), float(cfg.params.n + 1),
                        record=runtime[f"svd{tag}"])
    timings[f"svd{tag}"] = time.perf_counter() - t0
    return s, window


def _level_grid(cfg: ExperimentConfig, i: int) -> BoxGrid:
    """The grid of refinement level i: the configured points doubled i times."""
    return cfg.grid(tuple(m * 2**i for m in cfg.points_per_dim))


def _levels(cfg: ExperimentConfig, refine: int, timings: dict, runtime: dict):
    """(index, tag, grid, F table) per level, for the ``refine`` that ``run``
    accepted.  Refinement keeps the box, so one F table serves every level.
    The table's quadrature record lands in ``runtime["f_table"]``."""
    t0 = time.perf_counter()
    ftab = f_table(cfg.params, cfg.bounds)
    timings["table"] = time.perf_counter() - t0
    runtime["f_table"] = ftab.record
    for i in range(refine + 1):
        yield i, "" if i == 0 else f"_L{i}", _level_grid(cfg, i), ftab


def run_spectrum(cfg: ExperimentConfig, out: Path, refine: int = 0) -> RunReport:
    p = cfg.params
    timings, results, runtime = {}, {}, {}
    for i, tag, grid, ftab in _levels(cfg, refine, timings, runtime):
        t0 = time.perf_counter()
        A = commutator(p, cfg.symbol, grid, ftab)
        timings[f"assemble{tag}"] = time.perf_counter() - t0
        runtime[f"generator{tag}"] = A.generator
        s, (lo, hi) = _spectrum_for(cfg, A, timings, runtime, tag)
        pw = float(p.n + 1)
        write_spectrum_csv(out / f"spectrum{tag}.csv", s, pw)
        level = {
            "points_per_dim": list(grid.points_per_dim),
            "weak_quasinorm": weak_quasinorm(s, pw),
            "diagonal_bias": A.diagonal_bias,
            "top_singular_value": float(s[0]),
        }
        # values are descending, so s[hi] > 0 leaves no zero in the window
        if lo < hi < len(s) and s[hi] > 0:
            fit = weyl_fit(s, pw, (lo, hi))
            level["fit"] = fit.as_dict()
            with open(out / f"fit{tag}.json", "w") as fh:
                json.dump(fit.as_dict(), fh, indent=2, sort_keys=True, allow_nan=False)
                fh.write("\n")
        results[f"level{i}"] = level
        if cfg.save_matrix and i == 0:
            # after the solve: the dense entries are built here, once the
            # Gram array is gone
            save_matrix(A, out / "matrix.bin")
        del A  # a saved level's dense entries go before the next level's solve
    if refine > 0:
        qs = [results[f"level{i}"]["weak_quasinorm"] for i in range(refine + 1)]
        results["quasinorm_drift"] = [
            abs(b - a) / max(abs(a), 1e-300) for a, b in zip(qs[:-1], qs[1:])
        ]
    return _report(cfg, timings, results, [], runtime)


def run_ratio(cfg: ExperimentConfig, out: Path, refine: int = 0) -> RunReport:
    p = cfg.params
    timings, results, assertions, runtime = {}, {}, [], {}
    sphere = sphere_rule(p.n, 128)
    pw = float(p.n + 1)
    for i, tag, grid, ftab in _levels(cfg, refine, timings, runtime):
        sem1 = directional_seminorm(cfg.symbol, p.k, pw, grid, sphere)
        sem2 = directional_seminorm(cfg.symbol2, p.k, pw, grid, sphere)
        if min(sem1, sem2) < 1e-8:
            raise ConfigError("degenerate (near-zero) seminorm in ratio experiment")
        # one generator for both symbols; each matrix is dropped after its
        # solve, so a dense fallback's entries are freed before the next solve
        t0 = time.perf_counter()
        A1, A2 = commutator(p, (cfg.symbol, cfg.symbol2), grid, ftab)
        timings[f"assemble{tag}"] = time.perf_counter() - t0
        runtime[f"generator{tag}"] = A1.generator
        s1, window = _spectrum_for(cfg, A1, timings, runtime, f"_f{tag}")
        del A1
        s2 = _spectrum_for(cfg, A2, timings, runtime, f"_g{tag}")[0]
        del A2
        fit1 = weyl_fit(s1, pw, window)
        fit2 = weyl_fit(s2, pw, window)
        coeff_ratio = fit1.pinned_coefficient / fit2.pinned_coefficient
        sem_ratio = sem1 / sem2
        deviation = abs(coeff_ratio - sem_ratio) / sem_ratio
        results[f"level{i}"] = {
            "points_per_dim": list(grid.points_per_dim),
            "fit_f": fit1.as_dict(),
            "fit_g": fit2.as_dict(),
            "seminorm_f": sem1,
            "seminorm_g": sem2,
            "coefficient_ratio": coeff_ratio,
            "seminorm_ratio": sem_ratio,
            "relative_deviation": deviation,
        }
        assertions.append(
            {
                "name": f"coefficient ratio matches seminorm ratio{tag}",
                "passed": bool(deviation <= cfg.ratio_tolerance),
                "tolerance": cfg.ratio_tolerance,
                "measured": deviation,
            }
        )
    return _report(cfg, timings, results, assertions, runtime)


def run_auxfn(cfg: ExperimentConfig, out: Path) -> RunReport:
    p = cfg.params
    t0 = time.perf_counter()
    xs = np.concatenate([np.geomspace(1e-3, 0.1, 7), np.linspace(0.15, 1.0, 18)])
    decomposed = F_decomposed_batch(p, xs, PROFILES)
    rows = []
    worst = 0.0
    for i, x in enumerate(xs):
        row = {"x": x}
        for idx in PROFILES:
            # G's own expression, (F(x) - F(0)) / x, from the F value at hand
            fv = F(idx, p, float(x))
            row[f"F{idx.k}{idx.l}"] = fv
            row[f"G{idx.k}{idx.l}"] = (fv - f_zero(idx, p)) / float(x)
            resid = abs(fv - decomposed[idx][i])
            row[f"dec_resid{idx.k}{idx.l}"] = resid
            worst = max(worst, resid)
        rows.append(row)
    cols = list(rows[0])
    _write_csv(out / "auxfn.csv", ",".join(cols), _floats(len(cols)),
               ([row[c] for c in cols] for row in rows))
    timings = {"tabulate": time.perf_counter() - t0}
    results = {
        "rows": len(rows),
        "max_decomposition_residual": worst,
        "zero_limits": {f"F{idx.k}{idx.l}": f_zero(idx, p) for idx in PROFILES},
    }
    assertions = [
        {
            "name": "decomposition residual on (0, 1]",
            "passed": bool(worst <= 1e-8),
            "tolerance": 1e-8,
            "measured": worst,
        }
    ]
    return _report(cfg, timings, results, assertions)


_SAMPLE_LOW = np.array([-1.0, 0.5, -1.0, 0.5])
_SAMPLE_SPAN = np.array([2.0, 1.5, 2.0, 1.5])


def run_kernel(cfg: ExperimentConfig, out: Path, seed: int) -> RunReport:
    p = cfg.params
    if p.n != 1:
        raise ConfigError("kernel pipeline compares all three representations; n must be 1")
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    rows = []
    worst = 0.0
    while len(rows) < 12:
        # x = (x1, x2), y = (y1, y2) with lateral coordinates in [-1, 1) and
        # heights in [0.5, 2): low + span * u is what four rng.uniform draws
        # return, bit for bit
        x1, x2, y1, y2 = (_SAMPLE_LOW + _SAMPLE_SPAN * rng.random(4)).tolist()
        d1, d2 = x1 - y1, x2 - y2
        if math.sqrt(d1 * d1 + d2 * d2) < 0.1 * min(x2, y2) or abs(d1) < 0.3:
            continue
        x, y = (x1, x2), (y1, y2)
        a = invsqrt_kernel_closed(p, x, y)
        b = invsqrt_kernel_subordination(p, x, y)
        c = spectral_kernel_inverse_radial(p, x, y)
        errs = (abs(a - b) / abs(a), abs(a - c) / abs(a), abs(b - c) / abs(a))
        worst = max(worst, *errs)
        rows.append((x1, x2, y1, y2, a, b, c, *errs))
    _write_csv(out / "kernel.csv",
               "x1,x2,y1,y2,closed,subordination,spectral,"
               "rel_closed_sub,rel_closed_spec,rel_sub_spec", _floats(10), rows)
    timings = {"pairs": time.perf_counter() - t0}
    results = {"pairs": len(rows), "max_pairwise_rel": worst}
    assertions = [
        {
            "name": "three-way representation agreement",
            "passed": bool(worst <= 1e-3),
            "tolerance": 1e-3,
            "measured": worst,
        }
    ]
    return _report(cfg, timings, results, assertions)


def run_sobolev(cfg: ExperimentConfig, out: Path) -> RunReport:
    p = cfg.params
    t0 = time.perf_counter()
    grid = cfg.grid()
    sym = cfg.symbol
    pw = float(p.n + 1)
    sphere = sphere_rule(p.n, 128)
    plain = sobolev_seminorm(sym, pw, grid)
    directional = directional_seminorm(sym, p.k, pw, grid, sphere)
    payload = {
        "seminorm_p": plain,
        "directional_k": directional,
        "ratio": directional / plain if plain > 0 else None,
    }
    with open(out / "sobolev.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return _report(
        cfg,
        {"seminorms": time.perf_counter() - t0},
        payload,
        [
            {
                "name": "seminorms nonnegative",
                "passed": bool(plain >= 0 and directional >= 0),
                "tolerance": "exact",
                "measured": [plain, directional],
            }
        ],
    )


def run_verify(cfg: ExperimentConfig, out: Path) -> RunReport:
    from . import verify

    timings, assertions, results = {}, [], {}
    for check in verify.run_all():
        timings[check.criterion] = check.seconds
        results[check.criterion] = check.measured
        assertions.append(
            {
                "name": check.criterion,
                "passed": check.passed,
                "tolerance": check.tolerance,
                "measured": check.measured,
            }
        )
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.criterion} "
              f"({check.seconds:.1f}s)")
    return _report(cfg, timings, results, assertions)


def _report(cfg: ExperimentConfig, timings, results, assertions, runtime=None) -> RunReport:
    return RunReport(
        config=cfg.raw,
        config_sha256=cfg.config_sha256,
        version=__version__,
        timings=timings,
        results=results,
        assertions=assertions,
        # the process's peak resident set so far (Linux reports it in KiB)
        # and the public scipy subpackages it has loaded
        runtime={**(runtime or {}),
                 "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 "scipy_modules": sorted(name for name in scipy.submodules
                                         if f"scipy.{name}" in sys.modules)},
    )


def run(
    cfg: ExperimentConfig,
    out_dir=None,
    seed: int | None = None,
    refine: int = 0,
) -> RunReport:
    """Execute the configured pipeline and write its artifacts.  A ``refine``
    that is negative, not for ``spectrum`` or ``ratio``, or past the node
    cap is refused before any work or output directory."""
    if refine < 0:
        raise ConfigError(f"refine must be >= 0, got {refine}")
    if refine > 0:
        if cfg.pipeline not in ("spectrum", "ratio"):
            raise ConfigError(f"the {cfg.pipeline} pipeline has no grid levels; "
                              f"refine must be 0, got {refine}")
        _level_grid(cfg, refine)  # the finest grid: raises past the node cap
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed if seed is None else seed
    if cfg.pipeline == "spectrum":
        report = run_spectrum(cfg, out, refine)
    elif cfg.pipeline == "ratio":
        report = run_ratio(cfg, out, refine)
    elif cfg.pipeline == "auxfn":
        report = run_auxfn(cfg, out)
    elif cfg.pipeline == "kernel":
        report = run_kernel(cfg, out, seed)
    elif cfg.pipeline == "sobolev":
        report = run_sobolev(cfg, out)
    elif cfg.pipeline == "verify":
        report = run_verify(cfg, out)
    else:  # pragma: no cover - parse_config rejects unknown pipelines
        raise ConfigError(f"unhandled pipeline {cfg.pipeline}")
    report.write(out / "report.json")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="besselriesz",
        description="Numerical experiments on weighted Riesz-transform commutators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in PIPELINES:
        sp = sub.add_parser(name, help=f"run the {name} pipeline")
        sp.add_argument("--config", type=str, default=None, help="JSON config path")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="sampling seed")
        sp.add_argument("--refine", type=int, default=0, help="grid-doubling levels")
    args = parser.parse_args(argv)
    for name in ("seed", "refine"):
        value = getattr(args, name)
        if value is not None and value < 0:
            parser.error(f"--{name} must be >= 0, got {value}")

    if args.config is not None:
        cfg = load_config(args.config)
        if cfg.pipeline != args.command:
            cfg = parse_config({**cfg.raw, "pipeline": args.command})
    else:
        cfg = parse_config({"pipeline": args.command})
    report = run(cfg, out_dir=args.out, seed=args.seed, refine=args.refine)
    print(f"report written to {Path(args.out or cfg.output_dir) / 'report.json'}"
          f" ({'pass' if report.passed else 'FAIL'})")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
