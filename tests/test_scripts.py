import json
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# what a script prints besides its headline: for the default experiment,
# where the time went and which solver ran
DETAILS = {
    "run_default_experiment.py": ("seconds: table ", ", assemble ", ", svd ",
                                  "; solver gram over 2 block(s)"),
}


@pytest.mark.parametrize(
    "script, args, line",
    [
        ("refinement_study.py", ["0"], "[32, 32]: quasinorm"),
        ("run_default_experiment.py", [], "grid [48, 48]: exponent"),
    ],
)
def test_script_runs(script, args, line, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", [script, *args, str(tmp_path)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert line in out
    for detail in DETAILS.get(script, ()):
        assert detail in out


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
