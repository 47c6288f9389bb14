import json
import runpy
from pathlib import Path

import pytest

from besselriesz.cli import ConfigError

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, line",
    [
        ("refinement_study.py", ["0"], "[32, 32]: quasinorm"),
    ],
)
def test_script_runs(script, args, line, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", [script, *args, str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert line in out


def test_refinement_study_refuses_negative_levels(tmp_path, monkeypatch):
    monkeypatch.setattr("sys.argv", ["refinement_study.py", "-1", str(tmp_path)])
    with pytest.raises(ConfigError, match="refine must be >= 0, got -1"):
        runpy.run_path(str(SCRIPTS / "refinement_study.py"), run_name="__main__")
    assert not (tmp_path / "report.json").exists()


GENERATOR = {"offsets_evaluated": 50, "offsets_total": 95, "signs": [1]}


def _report(exponent, measured, assemble, rss, modules, generator=GENERATOR):
    return {
        "results": {"level0": {"fit": {"exponent": exponent, "residual": 0.25},
                               "points_per_dim": [48, 48]}},
        "assertions": [{"name": "ratio", "passed": True, "tolerance": 0.15,
                        "measured": measured}],
        "timings": {"table": 0.1, "assemble": assemble},
        "runtime": {"peak_rss_mb": rss, "scipy_modules": modules, "generator": generator},
    }


def _report_diff(tmp_path, monkeypatch, capsys, old, new):
    paths = []
    for name, report in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        (tmp_path / name).write_text(json.dumps(report))
    monkeypatch.setattr("sys.argv", ["report_diff.py", *paths])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "report_diff.py"), run_name="__main__")
    return exit_info.value.code, capsys.readouterr().out.splitlines()


def test_report_diff_prints_what_moved(tmp_path, monkeypatch, capsys):
    old = _report(-0.5, 0.0125, 1.0, 100.0, ["linalg", "special"])
    # moves below every threshold: 1e-12 relative on values, +10% on a
    # timing (bound 0.25), +4% on the peak (bound 0.05)
    quiet = _report(-0.5 * (1 + 1e-12), 0.0125, 1.1, 104.0, ["linalg", "special"])
    assert _report_diff(tmp_path, monkeypatch, capsys, old, quiet) == (0, [])

    # a kernel without a parity evaluates every offset of its generator
    new = _report(-0.5 * (1 + 1e-9), 0.0126, 1.3, 106.0,
                  ["integrate", "linalg", "special"],
                  {"offsets_evaluated": 95, "offsets_total": 95, "signs": [None]})
    code, lines = _report_diff(tmp_path, monkeypatch, capsys, old, new)
    assert code == 1
    assert [line.split(":")[0] for line in lines] == [
        "results.level0.fit.exponent",
        "measured.ratio",
        "timings.assemble",
        "runtime.peak_rss_mb",
        "runtime.scipy_modules",
        "runtime.generator",
    ]
    assert "['linalg', 'special'] -> ['integrate', 'linalg', 'special']" in lines[-2]
    assert "'signs': [1]} -> {" in lines[-1] and "'signs': [None]}" in lines[-1]


def test_report_diff_prints_solver_and_quadrature_changes(tmp_path, monkeypatch, capsys):
    old = _report(-0.5, 0.0125, 1.0, 100.0, ["linalg", "special"])
    old["runtime"].update(
        f_table={"nodes": 1720, "integrals": 3438, "max_order": 32},
        svd_f={"solver": "gram", "count": 100, "error_bound": 1e-13, "head_sup": 0.4,
               "tail_bound": 0.3, "blocks": 2},
        svd_g={"solver": "gram", "count": 100, "error_bound": 2e-13, "head_sup": 0.3,
               "tail_bound": 0.2, "blocks": 1})
    new = json.loads(json.dumps(old))
    # a head that failed its certificate, and a table whose integrals went deeper
    new["runtime"]["svd_f"].update(solver="dense", count=2304, tail_bound=0.5)
    new["runtime"]["f_table"]["max_order"] = 64
    code, lines = _report_diff(tmp_path, monkeypatch, capsys, old, new)
    assert code == 1
    assert lines == [
        "runtime.f_table: {'nodes': 1720, 'integrals': 3438, 'max_order': 32} -> "
        "{'nodes': 1720, 'integrals': 3438, 'max_order': 64}",
        "runtime.svd_f.solver: 'gram' -> 'dense'",
        "runtime.svd_f.count: 100 -> 2304 (relative +2.204e+01)",
    ]
    # a solve only one report has prints every field
    missing = json.loads(json.dumps(old))
    del missing["runtime"]["svd_g"]
    code, lines = _report_diff(tmp_path, monkeypatch, capsys, old, missing)
    assert code == 1
    assert lines == ["runtime.svd_g.solver: 'gram' -> None", "runtime.svd_g.count: 100 -> None",
                     "runtime.svd_g.blocks: 1 -> None"]


def _bench(wall, rss, attempted, failed, coverages=()):
    metrics = {"wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": 0.5, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    children = [{"traced": False, "wall_s": wall, "problems": [], "layers": None}]
    children += [{"traced": True, "wall_s": wall, "problems": [],
                  "layers": {"trace.span_coverage": c}} for c in coverages]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "children": children}


def test_report_diff_compares_benchmark_results(tmp_path, monkeypatch, capsys):
    old = _bench(1.0, 100.0, 20, 0)
    # -20% wall (bound 0.25) and +4% peak (bound 0.05) are within bounds
    assert _report_diff(tmp_path, monkeypatch, capsys, old, _bench(0.8, 104.0, 20, 0)) == (0, [])

    new = _bench(0.6, 106.0, 30, 1)
    code, lines = _report_diff(tmp_path, monkeypatch, capsys, old, new)
    assert code == 1
    assert [line.split(":")[0] for line in lines] == [
        "metrics.wall_s", "metrics.peak_rss_mb", "failed", "attempted"]
    assert "1.0 -> 0.6 (relative -4.000e-01)" in lines[0]

    # a traced result: per-layer metrics only, and its least span coverage
    traced = _bench(1.0, 100.0, 20, 0, coverages=(0.93, 0.91, 0.95))
    traced["metrics"] = {"cli.self_s": {"value": 0.1, "unit": "s"}}
    code, lines = _report_diff(tmp_path, monkeypatch, capsys, traced, traced)
    assert code == 0
    assert lines == [f"least trace.span_coverage of {tmp_path / name}: 0.9100"
                     for name in ("old.json", "new.json")]

    (tmp_path / "report.json").write_text(json.dumps(_report(-0.5, 0.0125, 1.0, 100.0, [])))
    monkeypatch.setattr("sys.argv", ["report_diff.py", str(tmp_path / "report.json"),
                                     str(tmp_path / "new.json")])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "report_diff.py"), run_name="__main__")
    assert exit_info.value.code == 2
