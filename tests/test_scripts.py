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
