import csv
import importlib.util
import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from besselriesz import __version__, auxfn, cli, discretize, kernels, spectra
from besselriesz.cli import ConfigError, load_config, parse_config, run
from besselriesz.spectra import (
    GRAM_BOUND_MAX,
    default_window,
    singular_values,
    weak_quasinorm,
    weyl_fit,
)


def small_spectrum_config(**overrides):
    data = {
        "pipeline": "spectrum",
        "box": {"bounds": [[0.0, 1.0], [0.5, 1.5]], "points_per_dim": [12, 12]},
        "symbol": {"kind": "cosine-bump", "center": [0.5, 1.0], "width": [0.3, 0.3]},
    }
    data.update(overrides)
    return parse_config(data)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="tolerance_typo"):
        parse_config({"tolerance_typo": 1})
    with pytest.raises(ConfigError, match="params.lambda_"):
        parse_config({"params": {"lambda_": 2}})
    with pytest.raises(ConfigError, match="quadrature"):
        parse_config({"quadrature": {"reltol": 1e-9}})
    with pytest.raises(ConfigError, match="box.node_cap"):
        parse_config({"box": {"node_cap": 1}})


def test_box_validation():
    with pytest.raises(ConfigError, match=r"box.bounds\[0\]\[1\]"):
        parse_config({"box": {"bounds": [[0, float("inf")], [0.5, 1.5]]},
                      "symbol": {"kind": "constant", "amplitude": 1.0}})
    with pytest.raises(ConfigError, match="last interval"):
        parse_config({"box": {"bounds": [[0, 1], [0, 1]], "points_per_dim": [8, 8]}})
    with pytest.raises(ConfigError, match="intervals"):
        parse_config({"box": {"bounds": [[0, 1]], "points_per_dim": [8]}})
    with pytest.raises(ConfigError, match="pairs"):
        parse_config({"box": {"bounds": [[0, 1], [0.5]]}})
    with pytest.raises(ConfigError, match="points_per_dim"):
        parse_config({"box": {"points_per_dim": [48]}})
    with pytest.raises(ConfigError, match="points_per_dim"):
        parse_config({"box": {"points_per_dim": [0, 48]}})
    with pytest.raises(ConfigError, match=r"points_per_dim\[0\]"):
        parse_config({"box": {"points_per_dim": [48.7, 48]}})
    with pytest.raises(ConfigError, match="cap"):
        parse_config({"box": {"points_per_dim": [200, 200]}})
    with pytest.raises(ConfigError, match="degenerate"):
        parse_config({"box": {"bounds": [[1, 0], [0.5, 1.5]]}})
    # integral floats count as ints, ints as floats, and tuples as arrays
    cfg = parse_config({"box": {"bounds": ((0, 1), (0.5, 1.5)), "points_per_dim": [48.0, 48]}})
    assert cfg.bounds == ((0.0, 1.0), (0.5, 1.5))
    assert cfg.points_per_dim == (48, 48)
    assert cfg.grid().points_per_dim == (48, 48)


@pytest.mark.parametrize(
    "data, path",
    [
        ({"save_matrix": "no"}, "save_matrix"),
        ({"params": {"k": 2.9}}, "params.k"),
        ({"params": {"n": True}}, "params.n"),
        ({"params": {"lam": [1]}}, "params.lam"),
        ({"ratio_tolerance": "x"}, "ratio_tolerance"),
        ({"seed": "x"}, "seed"),
        ({"output_dir": 5}, "output_dir"),
        ({"ratio_tolerance": float("nan")}, "ratio_tolerance"),
        ({"params": {"lam": float("inf")}}, "params.lam"),
        ({"params": {"lam": float("-inf")}}, "params.lam"),
        ({"params": {"lam": 10**400}}, "params.lam"),
        ({"params": {"n": 10**400}}, "params.n"),
    ],
)
def test_field_types_validated(data, path):
    with pytest.raises(ConfigError, match=path):
        parse_config(data)


def test_symbol_support_validation():
    # a wide gaussian leaks out of the box: not numerically supported inside
    with pytest.raises(ConfigError, match="support"):
        parse_config(
            {
                "symbol": {"kind": "gaussian-bump", "center": [0.5, 1.0], "width": 0.3},
            }
        )
    # fewer coordinates than the box must not broadcast silently
    with pytest.raises(ConfigError, match="coordinates"):
        parse_config({"symbol": {"kind": "cosine-bump", "center": [0.5], "width": 0.3}})
    with pytest.raises(ConfigError, match="coordinates"):
        parse_config({"symbol": {"kind": "cosine-bump", "center": [0.5, 1.0], "width": [0.3]}})
    with pytest.raises(ConfigError, match="symbol2"):
        parse_config({"pipeline": "ratio", "symbol2": "cosine-bump"})
    with pytest.raises(ConfigError, match=r"symbol.center\[0\]"):
        parse_config({"symbol": {"kind": "cosine-bump", "center": ["0.5", 1.0], "width": 0.3}})
    with pytest.raises(ConfigError, match="symbol.amplitude"):
        parse_config({"symbol": {"kind": "constant", "amplitude": "2"}})
    window = {"kind": "coordinate-window", "center": [0.5, 1.0], "width": 0.08}
    with pytest.raises(ConfigError, match="symbol.axis"):
        parse_config({"box": {"points_per_dim": [16, 16]}, "symbol": {**window, "axis": 5}})
    assert parse_config({"symbol": {**window, "axis": 1}}).symbol_spec["axis"] == 1
    # the window's box reaches 4.75 widths along its axis: [0.025, 0.975] at
    # width 0.1 is not two cells (0.042) inside [0, 1]
    with pytest.raises(ConfigError, match=r"support \[0\.025, 0\.975\] in dim 0"):
        parse_config({"symbol": {**window, "width": 0.1}})
    # n = 2: the support box is checked in every dimension
    box3 = {"bounds": [[0, 1], [0, 1], [0.5, 1.5]], "points_per_dim": [16, 16, 16]}
    bump3 = {"kind": "cosine-bump", "center": [0.5, 0.5, 1.0], "width": 0.35}
    parse_config({"params": {"n": 2, "k": 3}, "box": box3, "symbol": bump3})
    with pytest.raises(ConfigError, match="in dim 2"):
        parse_config({"params": {"n": 2, "k": 3}, "box": box3,
                      "symbol": {**bump3, "width": [0.35, 0.35, 0.4]}})


def test_symbol2_typed_outside_ratio():
    # every report.json echoes symbol2, so its numbers are typed whatever the
    # pipeline; its support box is checked for ratio only
    bad = {"kind": "cosine-bump", "center": [float("nan"), 1.0], "width": 0.3}
    for pipeline in ("sobolev", "spectrum", "ratio"):
        with pytest.raises(ConfigError, match=r"symbol2.center\[0\]"):
            parse_config({"pipeline": pipeline, "symbol2": bad})
    leaky = {"kind": "gaussian-bump", "center": [0.5, 1.0], "width": 0.3}
    assert parse_config({"pipeline": "sobolev", "symbol2": leaky}).symbol2_spec == leaky
    with pytest.raises(ConfigError, match="symbol2: numeric support"):
        parse_config({"pipeline": "ratio", "symbol2": leaky})


def test_pipeline_validation():
    with pytest.raises(ConfigError, match="pipeline"):
        parse_config({"pipeline": "unknown"})
    with pytest.raises(ConfigError, match="window_exponents"):
        parse_config({"fit": {"window_exponents": [0.9, 0.3]}})
    with pytest.raises(ConfigError, match="window_exponents"):
        parse_config({"fit": {"window_exponents": [0.3]}})
    with pytest.raises(ConfigError, match="window_exponents"):
        parse_config({"fit": {"window_exponents": 0.3}})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pipeline": "sobolev"}))
    cfg = load_config(path)
    assert cfg.pipeline == "sobolev"
    # json.load reads the NaN token as a float; the config must refuse it
    path.write_text('{"ratio_tolerance": NaN}')
    with pytest.raises(ConfigError, match="ratio_tolerance"):
        load_config(path)


def test_spectrum_pipeline_artifacts(tmp_path):
    cfg = small_spectrum_config(save_matrix=True)
    report = run(cfg, out_dir=tmp_path)
    assert (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "fit.json").exists()
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "matrix.bin").exists()
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["version"] == __version__
    assert len(payload["config_sha256"]) == 64
    assert payload["passed"] is True
    assert set(payload["timings"]) == {"table", "assemble", "svd"}
    runtime = payload["runtime"]
    assert set(runtime) == {"peak_rss_mb", "scipy_modules", "svd", "f_table", "generator"}
    # the generator evaluates its 12 non-negative lateral offsets and the two
    # parity probes; the vertical Riesz kernel (k = 2) is even laterally
    assert runtime["generator"] == {"offsets_evaluated": 14, "offsets_total": 23,
                                    "signs": [1]}
    assert {"linalg", "special"} <= set(runtime["scipy_modules"])
    assert runtime["scipy_modules"] == sorted(runtime["scipy_modules"])
    # the F table's one batched pass: two integrals per node past 0, every
    # one converged at order 32
    assert runtime["f_table"] == {"nodes": 1720, "integrals": 3438, "max_order": 32}
    assert runtime["peak_rss_mb"] > 0
    # the spectrum pipeline solves the fit window's head through the Gram
    # route and certifies that it carries the weak quasinorm
    solve = runtime["svd"]
    count = default_window(144)[1] + 1
    assert set(solve) == {"solver", "count", "error_bound", "head_sup", "tail_bound",
                          "blocks"}
    assert solve["solver"] == "gram" and solve["count"] == count == 33
    # the bump is centred on the box's lateral mirror: two half-size blocks
    assert solve["blocks"] == 2
    assert solve["error_bound"] <= GRAM_BOUND_MAX
    assert solve["tail_bound"] <= solve["head_sup"]
    assert solve["head_sup"] == payload["results"]["level0"]["weak_quasinorm"]
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,mu,weighted_mu"
    assert len(lines) == 1 + count


def _commutator(cfg):
    return cli.commutator(cfg.params, cfg.symbol, cfg.grid(), cli.f_table(cfg.params, cfg.bounds))


@pytest.mark.parametrize("m", [24, 32])
def test_spectrum_head_matches_dense_reference(tmp_path, m):
    cfg = small_spectrum_config(box={"points_per_dim": [m, m]})
    report = run(cfg, out_dir=tmp_path)
    assert report.runtime["svd"]["solver"] == "gram"
    s = np.linalg.svd(_commutator(cfg).entries, compute_uv=False)
    level = report.results["level0"]
    assert level["weak_quasinorm"] == pytest.approx(weak_quasinorm(s, 2.0), rel=1e-12, abs=0)
    assert level["top_singular_value"] == pytest.approx(s[0], rel=1e-12, abs=0)
    fit = weyl_fit(s, 2.0, default_window(m * m)).as_dict()
    assert level["fit"]["window"] == fit["window"]
    for key in ("exponent", "coefficient", "pinned_coefficient", "residual"):
        assert level["fit"][key] == pytest.approx(fit[key], rel=1e-12, abs=0)


def test_spectrum_certificate_failure_falls_back_to_dense(tmp_path, monkeypatch):
    certificate = spectra.tail_certificate

    def failing(*args):
        head_sup, _ = certificate(*args)
        return head_sup, 2.0 * head_sup

    monkeypatch.setattr(spectra, "tail_certificate", failing)
    cfg = small_spectrum_config()
    report = run(cfg, out_dir=tmp_path)
    solve = report.runtime["svd"]
    assert solve["solver"] == "dense" and solve["count"] == 144 and solve["blocks"] == 2
    assert solve["tail_bound"] == 2.0 * solve["head_sup"]
    mu = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.array_equal(mu, singular_values(_commutator(cfg)))
    assert report.results["level0"]["weak_quasinorm"] == weak_quasinorm(mu, 2.0)


def test_spectrum_constant_symbol_all_zero(tmp_path):
    cfg = small_spectrum_config(symbol={"kind": "constant", "amplitude": 3.0})
    report = run(cfg, out_dir=tmp_path)
    assert report.passed
    # the Gram head ends in 0, so it has no bound: every value is solved,
    # over both blocks of the mirror split
    assert report.runtime["svd"] == {"solver": "dense", "count": 144, "error_bound": None,
                                     "head_sup": None, "tail_bound": None, "blocks": 2}
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    assert len(rows) == 144
    mus = np.array([float(r.split(",")[1]) for r in rows])
    assert np.all(mus == 0.0)


def _strict_json(path):
    """The file's JSON, refusing the non-standard NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_spectrum_constant_symbol_report_is_strict_json(tmp_path):
    # criterion 9's constant config: the Gram head ends in 0, so the route
    # has no error bound; report.json must say null, not Infinity
    cfg = parse_config({
        "pipeline": "spectrum",
        "box": {"points_per_dim": [16, 16]},
        "symbol": {"kind": "constant", "amplitude": 0.7},
    })
    run(cfg, out_dir=tmp_path)
    payload = _strict_json(tmp_path / "report.json")
    solve = payload["runtime"]["svd"]
    assert solve["solver"] == "dense" and solve["error_bound"] is None
    assert payload["results"]["level0"]["top_singular_value"] == 0.0


def test_sobolev_constant_symbol_writes_strict_json(tmp_path):
    # the plain seminorm of a constant is 0: the ratio is null, not NaN
    cfg = parse_config({"pipeline": "sobolev", "symbol": {"kind": "constant", "amplitude": 0.7}})
    run(cfg, out_dir=tmp_path)
    payload = _strict_json(tmp_path / "sobolev.json")
    assert payload["seminorm_p"] == 0.0 and payload["ratio"] is None
    assert _strict_json(tmp_path / "report.json")["results"] == payload


def test_spectrum_linear_in_symbol(tmp_path):
    cfg1 = small_spectrum_config()
    sym2 = dict(cfg1.symbol_spec, amplitude=2.0)
    cfg2 = small_spectrum_config(symbol=sym2)
    run(cfg1, out_dir=tmp_path / "a")
    run(cfg2, out_dir=tmp_path / "b")
    mu1 = np.loadtxt(tmp_path / "a" / "spectrum.csv", delimiter=",", skiprows=1)[:, 1]
    mu2 = np.loadtxt(tmp_path / "b" / "spectrum.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.allclose(mu2, 2 * mu1, rtol=1e-12, atol=1e-15)


def test_rerun_byte_identical(tmp_path):
    cfg = small_spectrum_config()
    run(cfg, out_dir=tmp_path / "r1")
    run(cfg, out_dir=tmp_path / "r2")
    a = (tmp_path / "r1" / "spectrum.csv").read_bytes()
    b = (tmp_path / "r2" / "spectrum.csv").read_bytes()
    assert a == b
    fa = (tmp_path / "r1" / "fit.json").read_bytes()
    fb = (tmp_path / "r2" / "fit.json").read_bytes()
    assert fa == fb


def test_ratio_pipeline_double_symbol(tmp_path):
    # g = 2 f: both the coefficient ratio and the seminorm ratio equal 2 exactly
    data = {
        "pipeline": "ratio",
        "box": {"bounds": [[0.0, 1.0], [0.5, 1.5]], "points_per_dim": [16, 16]},
        "symbol": {"kind": "cosine-bump", "center": [0.5, 1.0], "width": [0.35, 0.35]},
        "symbol2": {
            "kind": "cosine-bump",
            "center": [0.5, 1.0],
            "width": [0.35, 0.35],
            "amplitude": 2.0,
        },
    }
    report = run(parse_config(data), out_dir=tmp_path)
    level = report.results["level0"]
    assert level["coefficient_ratio"] == pytest.approx(0.5, rel=1e-12, abs=0)
    assert level["seminorm_ratio"] == pytest.approx(0.5, rel=1e-12, abs=0)
    assert report.passed
    # one F table and one assembly (one generator) serve both symbols
    assert set(report.timings) == {"table", "assemble", "svd_f", "svd_g"}
    assert set(report.runtime) == {"peak_rss_mb", "scipy_modules", "svd_f", "svd_g",
                                   "f_table", "generator"}
    assert report.runtime["generator"] == {"offsets_evaluated": 18, "offsets_total": 31,
                                           "signs": [1]}


_FOOTPRINT_SCRIPT = """
import json, sys
from besselriesz import cli

HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse")
for name, data in json.loads(sys.argv[2]).items():
    out = sys.argv[1] + "/" + name
    cli.run(cli.parse_config(data), out_dir=out)
    with open(out + "/report.json") as fh:
        modules = json.load(fh)["runtime"]["scipy_modules"]
    loaded = [m for m in HEAVY if m in sys.modules]
    print(json.dumps({"pipeline": name, "report": modules, "loaded": loaded}))
cli.parse_config({"pipeline": "kernel"})
print(json.dumps({"kernel_parsed": "scipy.integrate" in sys.modules}))
"""


def test_spectrum_and_ratio_load_no_quadpack_or_interpolate(tmp_path):
    # a fresh interpreter: this one already holds scipy.integrate
    configs = {
        "spectrum": {"pipeline": "spectrum", "box": {"points_per_dim": [32, 32]}},
        "ratio": {
            "pipeline": "ratio",
            "box": {"bounds": [[0.0, 1.0], [0.5, 1.5]], "points_per_dim": [16, 16]},
            "symbol": {"kind": "cosine-bump", "center": [0.5, 1.0], "width": [0.35, 0.35]},
            "symbol2": {"kind": "cosine-bump", "center": [0.5, 1.0], "width": [0.3, 0.35]},
        },
    }
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT, str(tmp_path), json.dumps(configs)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    for line in lines[:-1]:
        assert line["loaded"] == [], line
        assert line["report"] == ["linalg", "special"], line
    assert [line["pipeline"] for line in lines[:-1]] == ["spectrum", "ratio"]
    # the kernel pipeline calls QUADPACK, which its config parse loads
    assert lines[-1] == {"kernel_parsed": True}


def test_ratio_pipeline_translated_symbol(tmp_path):
    # translation parallel to the lateral coordinate: ratios near 1
    data = {
        "pipeline": "ratio",
        "box": {"bounds": [[0.0, 1.0], [0.5, 1.5]], "points_per_dim": [24, 24]},
        "symbol": {"kind": "cosine-bump", "center": [0.47, 1.0], "width": [0.33, 0.4]},
        "symbol2": {"kind": "cosine-bump", "center": [0.53, 1.0], "width": [0.33, 0.4]},
    }
    report = run(parse_config(data), out_dir=tmp_path)
    level = report.results["level0"]
    assert level["seminorm_ratio"] == pytest.approx(1.0, rel=1e-10, abs=0)
    assert level["coefficient_ratio"] == pytest.approx(1.0, rel=0.05, abs=0)
    # the window comes from the node count, not the length of the top-count spectrum
    window = list(default_window(24 * 24))
    assert level["fit_f"]["window"] == level["fit_g"]["window"] == window
    # both heads are certified to carry the weak quasinorm, as in spectrum
    for tag in ("svd_f", "svd_g"):
        solve = report.runtime[tag]
        assert solve["solver"] == "gram"
        assert solve["count"] == window[1] + 1
        assert solve["error_bound"] <= GRAM_BOUND_MAX
        assert solve["tail_bound"] <= solve["head_sup"]


def test_ratio_rejects_degenerate_seminorm(tmp_path):
    data = {
        "pipeline": "ratio",
        "box": {"bounds": [[0.0, 1.0], [0.5, 1.5]], "points_per_dim": [12, 12]},
        "symbol": {"kind": "cosine-bump", "center": [0.5, 1.0], "width": [0.3, 0.3]},
        "symbol2": {"kind": "constant", "amplitude": 1.0},
    }
    with pytest.raises(ConfigError, match="degenerate"):
        run(parse_config(data), out_dir=tmp_path)


def test_auxfn_pipeline(tmp_path):
    report = run(parse_config({"pipeline": "auxfn"}), out_dir=tmp_path)
    assert report.passed
    header = (tmp_path / "auxfn.csv").read_text().splitlines()[0]
    assert header.startswith("x,F20,G20,dec_resid20")


def test_kernel_pipeline(tmp_path):
    report = run(parse_config({"pipeline": "kernel"}), out_dir=tmp_path, seed=3)
    assert report.passed
    assert report.results["max_pairwise_rel"] <= 1e-3
    lines = (tmp_path / "kernel.csv").read_text().splitlines()
    assert lines[0].startswith("x1,x2,y1,y2,closed")
    assert len(lines) == 13


def test_kernel_sampler_draws_the_reference_pairs(tmp_path, monkeypatch):
    # run_kernel draws a candidate's four coordinates with one rng.random(4)
    # as low + span * u, which is what four rng.uniform calls return
    for seed in (0, 7, 23):
        one, four = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2000):
            got = (cli._SAMPLE_LOW + cli._SAMPLE_SPAN * one.random(4)).tolist()
            want = [four.uniform(-1, 1), four.uniform(0.5, 2.0),
                    four.uniform(-1, 1), four.uniform(0.5, 2.0)]
            assert got == want
    # so every pool seed accepts the pairs the benchmark recorded: with the
    # kernels stubbed out, the x and y columns equal its references exactly
    for name in ("invsqrt_kernel_closed", "invsqrt_kernel_subordination",
                 "spectral_kernel_inverse_radial"):
        monkeypatch.setattr(cli, name, lambda p, x, y: 1.0)
    references = _benchmark_references("pointwise")
    for seed in range(24):
        run(parse_config({"pipeline": "kernel"}), out_dir=tmp_path, seed=seed)
        with open(tmp_path / "kernel.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        want = references[f"kernel.s{seed}"]
        assert len(rows) == 12 and "r12.x1" not in want
        for i, row in enumerate(rows):
            for col in ("x1", "x2", "y1", "y2"):
                assert float(row[col]) == want[f"r{i}.{col}"], (seed, i, col)


def test_refine_levels(tmp_path, monkeypatch):
    built = []

    def counting_table(*args, **kwargs):
        built.append(args)
        return auxfn.TabulatedF(*args, **kwargs)

    monkeypatch.setattr(cli, "TabulatedF", counting_table)
    cfg = small_spectrum_config()
    report = run(cfg, out_dir=tmp_path, refine=1)
    assert (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "spectrum_L1.csv").exists()
    assert "quasinorm_drift" in report.results
    # refinement keeps the box, so one F table serves both levels
    assert len(built) == 1
    assert set(report.timings) == {"table", "assemble", "svd", "assemble_L1", "svd_L1"}


def test_ratio_builds_one_generator_per_level(tmp_path, monkeypatch):
    # the generator does not depend on the symbol: one per level serves both
    built = []
    generator = discretize._toeplitz_generator

    def counting_generator(kernel, grid):
        built.append(grid.points_per_dim)
        return generator(kernel, grid)

    monkeypatch.setattr(discretize, "_toeplitz_generator", counting_generator)
    data = {
        "pipeline": "ratio",
        "box": {"points_per_dim": [16, 16]},
        "symbol": {"kind": "cosine-bump", "center": [0.5, 1.0], "width": [0.35, 0.35]},
        "symbol2": {"kind": "cosine-bump", "center": [0.48, 1.0], "width": [0.3, 0.3]},
    }
    report = run(parse_config(data), out_dir=tmp_path, refine=1)
    assert report.passed
    assert built == [(16, 16), (32, 32)]
    assert set(report.timings) == {"table", "assemble", "svd_f", "svd_g",
                                   "assemble_L1", "svd_f_L1", "svd_g_L1"}


def test_refine_past_node_cap_fails_before_any_work(tmp_path, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("F table built before every level's grid was checked")

    monkeypatch.setattr(cli, "TabulatedF", no_table)
    cfg = small_spectrum_config(box={"points_per_dim": [100, 100]})
    with pytest.raises(ConfigError, match="cap"):
        run(cfg, out_dir=tmp_path / "out", refine=1)
    # refused before the output directory is made
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pipeline", ["auxfn", "kernel", "sobolev", "verify"])
def test_refine_refused_for_pipelines_without_levels(tmp_path, monkeypatch, pipeline):
    def no_work(*args, **kwargs):
        raise AssertionError(f"the {pipeline} pipeline ran with refine > 0")

    monkeypatch.setattr(cli, f"run_{pipeline}", no_work)
    match = f"the {pipeline} pipeline has no grid levels; refine must be 0, got 2"
    with pytest.raises(ConfigError, match=match):
        run(parse_config({"pipeline": pipeline}), out_dir=tmp_path / "out", refine=2)
    with pytest.raises(ConfigError, match=match):
        cli.main([pipeline, "--refine", "2", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def _benchmark_child():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


TRACED_MODULES = {"cli": cli, "auxfn": auxfn, "kernels": kernels}


def test_benchmark_tracer_targets_exist():
    # the benchmark's tracer wraps these module attributes by name
    for mod, attr, *_ in _benchmark_child().TRACED:
        assert callable(getattr(TRACED_MODULES[mod], attr, None)), f"{mod}.{attr}"


def test_benchmark_tracer_counters(tmp_path, monkeypatch):
    # the tracer reads the grid from assemble's second positional argument and
    # the matrix from singular_values' first: its counters break on a change
    # of either call shape
    child = _benchmark_child()
    for mod, attr, *_ in child.TRACED:
        # snapshot, so that monkeypatch undoes the tracer's wrapping
        monkeypatch.setattr(TRACED_MODULES[mod], attr, getattr(TRACED_MODULES[mod], attr))
    tracer = child.install_tracer(TRACED_MODULES)
    run(small_spectrum_config(), out_dir=tmp_path)
    assert tracer.counts["discretize.matrix_bytes_computed"] == 8 * 144**2
    assert tracer.counts["spectra.svd_rows"] == 144


def test_spectrum_holds_one_square_array(tmp_path):
    # the Gram route sums A^T A over A's row blocks, so the run's peak of
    # traced allocations is one N x N float64 array and change, not two
    import tracemalloc

    cfg = parse_config({"box": {"points_per_dim": [32, 32]}})
    tracemalloc.start()
    try:
        run(cfg, out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * 1024**2


def test_spectrum_solves_half_size_blocks(tmp_path):
    # the default symbol splits into two mirror blocks, whose Gram matrices
    # are (N/2)^2 each and solved one after the other: the run's peak of
    # traced allocations stays well under one N x N float64 array
    import tracemalloc

    cfg = parse_config({"box": {"points_per_dim": [32, 32]}})
    tracemalloc.start()
    try:
        report = run(cfg, out_dir=tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.runtime["svd"]["blocks"] == 2
    assert peak <= 0.75 * 8 * 1024**2


def _benchmark_references(workload):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
    return json.loads(path.read_text())["workloads"][workload]


@pytest.mark.parametrize("label, pipeline, seed",
                         [*((f"kernel.s{s}", "kernel", s) for s in range(24)),
                          ("auxfn", "auxfn", 0)])
def test_pointwise_outputs_match_benchmark_references(tmp_path, label, pipeline, seed):
    # the benchmark rejects a run whose CSV values leave its recorded
    # references by more than 1e-10 relative; the rel_* and dec_resid*
    # columns are route discrepancies near rounding, held on scale 1
    want = _benchmark_references("pointwise")[label]
    run(parse_config({"pipeline": pipeline}), out_dir=tmp_path, seed=seed)
    with open(tmp_path / f"{pipeline}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = {f"r{i}.{col}": float(v) for i, row in enumerate(rows) for col, v in row.items()}
    assert set(got) == set(want)
    for key, ref in want.items():
        floor = 1.0 if key.split(".")[1].startswith(("rel_", "dec_resid")) else 0.0
        assert abs(got[key] - ref) <= 1e-10 * max(abs(ref), floor), key


def test_auxfn_batches_the_decomposition_quadrature(tmp_path, monkeypatch):
    # the per-index route made 738 panel_integral calls per auxfn run: A, B
    # and four near and far tails per index and x.  Batched, there is one A,
    # one B and one near-tail quadrature for every x, and two far-tail
    # quadratures (j + l = 0, and every j + l >= 1) with their cache cold
    calls = []
    integral = auxfn.panel_integral

    def counting(*args, **kwargs):
        calls.append(args[1])
        return integral(*args, **kwargs)

    monkeypatch.setattr(auxfn, "panel_integral", counting)
    monkeypatch.setattr(auxfn, "_far_tails", lru_cache(maxsize=64)(auxfn._far_tails.__wrapped__))
    run(parse_config({"pipeline": "auxfn"}), out_dir=tmp_path)
    assert len(calls) == 3 + 2
    assert sum(tuple(breaks) == (0.0, 1.0) for breaks in calls) == 2


def _check_pipeline_references(tmp_path, workload, pipeline, points):
    # the benchmark rejects a run whose outputs leave its recorded
    # references by more than 1e-10 relative
    want = _benchmark_references(workload)[pipeline]
    run(parse_config({"pipeline": pipeline, "box": {"points_per_dim": [points, points]}}),
        out_dir=tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    got = _benchmark_child().collect_outputs(pipeline, tmp_path, report)
    assert set(got) == set(want)
    for key, ref in want.items():
        assert abs(got[key] - ref) <= 1e-10 * abs(ref), key


def test_ratio_outputs_match_benchmark_references(tmp_path):
    _check_pipeline_references(tmp_path, "ratio-48", "ratio", 48)


@pytest.mark.slow
def test_spectrum_outputs_match_benchmark_references(tmp_path):
    _check_pipeline_references(tmp_path, "spectrum-64", "spectrum", 64)


def test_verify_pipeline_report_shape(tmp_path, monkeypatch, capsys):
    import besselriesz.verify as verify

    monkeypatch.setattr(
        verify, "ALL_CHECKS", (verify.check_bessel_closed_form, verify.check_ratio_bound)
    )
    report = run(parse_config({"pipeline": "verify"}), out_dir=tmp_path)
    assert report.passed
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2
    payload = json.loads((tmp_path / "report.json").read_text())
    assert len(payload["assertions"]) == 2
    for a in payload["assertions"]:
        assert {"name", "passed", "tolerance", "measured"} <= set(a)


def test_cli_main_entrypoint(tmp_path, capsys):
    from besselriesz.cli import main

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "pipeline": "spectrum",
                "box": {"bounds": [[0.0, 1.0], [0.5, 1.5]], "points_per_dim": [10, 10]},
                "symbol": {"kind": "cosine-bump", "center": [0.5, 1.0], "width": [0.28, 0.28]},
            }
        )
    )
    code = main(["spectrum", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "report.json").exists()


def test_auxfn_refuses_lam_below_half(tmp_path, monkeypatch):
    # the decomposition's far-tail quadrature does not converge below 1/2
    def no_decomposition(*args, **kwargs):
        raise AssertionError("F_decomposed_batch reached")

    monkeypatch.setattr(cli, "F_decomposed_batch", no_decomposition)
    with pytest.raises(ConfigError, match=r"params\.lam >= 0\.5"):
        run(parse_config({"pipeline": "auxfn", "params": {"lam": 0.3}}), out_dir=tmp_path)
    # a config written for another pipeline is checked again for auxfn
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"pipeline": "spectrum", "params": {"lam": 0.3}}))
    assert load_config(cfg_path).params.lam == 0.3
    with pytest.raises(ConfigError, match=r"params\.lam >= 0\.5"):
        cli.main(["auxfn", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def test_negative_refine_refused_before_any_grid(tmp_path, monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built for a negative refinement level")

    monkeypatch.setattr(cli.ExperimentConfig, "grid", no_grid)
    with pytest.raises(ConfigError, match="refine must be >= 0, got -1"):
        run(small_spectrum_config(), out_dir=tmp_path / "o", refine=-1)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["spectrum", "--refine", "-1", "--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert "--refine must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_negative_seed_refused(tmp_path, capsys):
    with pytest.raises(ConfigError, match="seed must be >= 0, got -2"):
        parse_config({"pipeline": "kernel", "seed": -2})
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["kernel", "--seed", "-3", "--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert "--seed must be >= 0, got -3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
