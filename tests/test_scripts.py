"""Smoke tests of the scripts in ``scripts/``, which call the gates with
representation strings."""

import importlib.util
from pathlib import Path

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trotter_error_study_prints_one_row_per_step_count(capsys):
    _load("trotter_error_study").run(t=5.0, f_s=0.9)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t = 5.0 ns, f_s = 0.9"
    rows = [line.split() for line in lines[2:]]
    assert [int(r[0]) for r in rows] == [8, 16, 32, 64, 128, 256, 512, 1024, 2048]
    # first-order splitting: the deviation falls with every doubling
    devs = [float(r[1]) for r in rows]
    assert all(b < a for a, b in zip(devs, devs[1:]))
