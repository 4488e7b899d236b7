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


# canned ends of `pytest -q` runs; the tier-1 suite itself is never run here
_ANCHOR_FAILURES = """\
FAILED tests/test_acceptance.py::test_criterion_1_spectrum_anchor - AssertionError: E01(0.9)
FAILED tests/test_acceptance.py::test_criterion_4_trotter_agreement_window - Assertion...
"""
_GREEN = f"""\
........F...F............................................................ [100%]
=========================== short test summary info ============================
{_ANCHOR_FAILURES}2 failed, 780 passed, 5 warnings in 38.54s
"""


def test_tier1_summary_reads_the_counts_and_the_failed_ids():
    summary = _load("tier1").summarize(_GREEN)
    assert summary == {"passed": 780, "failed": 2, "errors": 0,
                       "failed_ids": sorted(_load("tier1").ANCHORS)}


def test_tier1_passes_only_when_exactly_the_anchors_fail():
    tier1 = _load("tier1")
    assert tier1.gate(tier1.summarize(_GREEN), 1)
    extra = _GREEN.replace("2 failed, 780", "3 failed, 779").replace(
        _ANCHOR_FAILURES, _ANCHOR_FAILURES + "FAILED tests/test_gates.py::test_u[a b] - x\n")
    assert tier1.summarize(extra)["failed_ids"][-1] == "tests/test_gates.py::test_u[a b]"
    one_anchor = _GREEN.replace("2 failed, 780", "1 failed, 781").replace(
        _ANCHOR_FAILURES, _ANCHOR_FAILURES.splitlines()[0] + "\n")
    collection = _GREEN.replace(" in 38.54s", ", 1 error in 38.54s").replace(
        _ANCHOR_FAILURES, _ANCHOR_FAILURES + "ERROR tests/test_new.py - ImportError: x\n")
    assert tier1.summarize(collection)["errors"] == 1
    for output, code in ((extra, 1), (one_anchor, 1), (collection, 1), (_GREEN, 2),
                         ("INTERNALERROR> boom\n", 3), ("", 1)):
        assert not tier1.gate(tier1.summarize(output), code)
