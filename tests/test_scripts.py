"""Smoke tests of the scripts in ``scripts/``, which call the gates with
representation strings and ``cli.main`` several times in one process."""

import hashlib
import importlib.util
import json
from pathlib import Path

from fluxsqueeze.cli import main

_ROOT = Path(__file__).resolve().parents[1]
_SCRIPTS = _ROOT / "scripts"


def _load(name, path=None):
    spec = importlib.util.spec_from_file_location(name, path or _SCRIPTS / f"{name}.py")
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


def _reference_digests():
    # the constants the benchmark checks, read as test_reference_digests does
    return _load("perfbench_workloads", _ROOT / "perfbench" / "workloads.py").REFERENCE_DIGESTS


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def test_reproduce_figures_writes_the_reference_artifacts(tmp_path, capsys):
    digests = _reference_digests()
    assert _load("reproduce_figures").run(tmp_path) == 0
    for name in ("spectrum.csv", "trotter.csv", "amplify.csv", "selftest.json"):
        assert _digest(tmp_path / name) == digests[name.split(".")[0]], name
    # a non-default inductance: only its shape is checked
    report = json.loads((tmp_path / "coupling.json").read_text(encoding="utf-8"))
    assert report["inputs"]["inductance_h"] == 1.4e-9
    assert "bare coupling:" in capsys.readouterr().out


def test_cli_main_keeps_no_state_between_calls(tmp_path):
    # an override in one call must not reach the next one in the process
    first = tmp_path / "fs07.csv"
    assert main(["trotter", "--set", "circuit.f_s=0.7", "--out", str(first)]) == 0
    second = tmp_path / "default.csv"
    assert main(["trotter", "--out", str(second)]) == 0
    assert _digest(first) != _digest(second)
    assert _digest(second) == _reference_digests()["trotter"]
