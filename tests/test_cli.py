import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from besselriesz import __version__, auxfn, cli, kernels
from besselriesz.cli import ConfigError, load_config, parse_config, run


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


def test_box_validation():
    with pytest.raises(ConfigError, match="last interval"):
        parse_config({"box": {"bounds": [[0, 1], [0, 1]], "points_per_dim": [8, 8]}})
    with pytest.raises(ConfigError, match="intervals"):
        parse_config({"box": {"bounds": [[0, 1]], "points_per_dim": [8]}})


def test_symbol_support_validation():
    # a wide gaussian leaks out of the box: not numerically supported inside
    with pytest.raises(ConfigError, match="support"):
        parse_config(
            {
                "symbol": {"kind": "gaussian-bump", "center": [0.5, 1.0], "width": 0.3},
            }
        )


def test_pipeline_validation():
    with pytest.raises(ConfigError, match="pipeline"):
        parse_config({"pipeline": "unknown"})
    with pytest.raises(ConfigError, match="window_exponents"):
        parse_config({"fit": {"window_exponents": [0.9, 0.3]}})


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pipeline": "sobolev"}))
    cfg = load_config(path)
    assert cfg.pipeline == "sobolev"


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
    pinnable = importlib.util.find_spec("threadpoolctl") is not None
    assert payload["runtime"] == {"blas_pinned": pinnable}
    header = (tmp_path / "spectrum.csv").read_text().splitlines()[0]
    assert header == "index,mu,weighted_mu"


def test_spectrum_constant_symbol_all_zero(tmp_path):
    cfg = small_spectrum_config(symbol={"kind": "constant", "amplitude": 3.0})
    report = run(cfg, out_dir=tmp_path)
    assert report.passed
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
    mus = np.array([float(r.split(",")[1]) for r in rows])
    assert np.all(mus == 0.0)


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
    assert level["coefficient_ratio"] == pytest.approx(0.5, rel=1e-12)
    assert level["seminorm_ratio"] == pytest.approx(0.5, rel=1e-12)
    assert report.passed
    # one F table serves both symbols
    assert set(report.timings) == {"table", "assemble_f", "svd_f", "assemble_g", "svd_g"}


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
    assert level["seminorm_ratio"] == pytest.approx(1.0, rel=1e-10)
    assert level["coefficient_ratio"] == pytest.approx(1.0, rel=0.05)


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


def test_refine_levels(tmp_path, monkeypatch):
    built = []

    def counting_table(*args, **kwargs):
        built.append(args)
        return kernels.TabulatedF(*args, **kwargs)

    monkeypatch.setattr(cli, "TabulatedF", counting_table)
    cfg = small_spectrum_config()
    report = run(cfg, out_dir=tmp_path, refine=1)
    assert (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "spectrum_L1.csv").exists()
    assert "quasinorm_drift" in report.results
    # refinement keeps the box, so one F table serves both levels
    assert len(built) == 1
    assert set(report.timings) == {"table", "assemble", "svd", "assemble_L1", "svd_L1"}


def test_benchmark_tracer_targets_exist():
    # the benchmark's tracer wraps these module attributes by name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    modules = {"cli": cli, "auxfn": auxfn, "kernels": kernels}
    for mod, attr, *_ in child.TRACED:
        assert callable(getattr(modules[mod], attr, None)), f"{mod}.{attr}"


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
