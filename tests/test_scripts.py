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
