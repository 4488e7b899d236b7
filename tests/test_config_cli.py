import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fluxsqueeze.cli import main
from fluxsqueeze.config import RunConfig, build_config, load_config, parse_config_text
from fluxsqueeze.errors import ParameterError

GOOD_CONFIG = """
# circuit at the detuned working point
circuit.e_c = 0.12
circuit.e_j = 58.0
circuit.e_l = 58.6
circuit.f_s = 0.9

sweep.fs_steps = 11
sweep.ratios = 1.005, 1.01
numerics.two_pi = false
geometry.inductance = 1.4e-9
"""


def test_parse_good_config():
    values = parse_config_text(GOOD_CONFIG)
    assert values["e_c"] == 0.12
    assert values["fs_steps"] == 11
    assert values["ratios"] == (1.005, 1.01)
    assert values["two_pi"] is False
    assert values["inductance"] == 1.4e-9


def test_parse_rejects_unknown_key():
    with pytest.raises(ParameterError, match="unknown config key"):
        parse_config_text("circuit.ec = 0.12")


def test_parse_rejects_malformed_line():
    with pytest.raises(ParameterError, match="expected 'key = value'"):
        parse_config_text("circuit.e_c 0.12")


def test_parse_rejects_bad_value():
    with pytest.raises(ParameterError, match="bad value"):
        parse_config_text("circuit.e_c = not-a-number")
    with pytest.raises(ParameterError, match="boolean"):
        parse_config_text("numerics.two_pi = maybe")


def test_flags_override_file_values():
    cfg = build_config(parse_config_text(GOOD_CONFIG), {"fs_steps": 21, "dim": None})
    assert cfg.fs_steps == 21  # flag wins
    assert cfg.dim == 60  # None flag means "not given"
    assert cfg.e_c == 0.12


def test_config_validation():
    with pytest.raises(ParameterError):
        RunConfig(fs_min=0.9, fs_max=0.5)
    with pytest.raises(ParameterError):
        RunConfig(dim=1)
    with pytest.raises(ParameterError):
        RunConfig(convention="diagonal")
    with pytest.raises(ParameterError):
        RunConfig(m_steps=0)


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
def test_config_rejects_bad_convergence_tol(tol):
    with pytest.raises(ParameterError, match="convergence_tol"):
        build_config({}, {"convergence_tol": tol})


@pytest.mark.parametrize("value", ["0", "-1e-6", "nan", "inf"])
def test_spectrum_rejects_bad_convergence_tol(capsys, value):
    assert main(["spectrum", "--set", f"numerics.convergence_tol={value}"]) == 2
    assert "convergence_tol" in capsys.readouterr().err


FINITE_KEYS = [
    "circuit.e_c", "circuit.e_j", "circuit.e_l", "circuit.f_s",
    "geometry.edge_length", "geometry.z_nv", "geometry.inductance",
    "nv.zero_field_splitting", "nv.zeeman", "sweep.fs_min", "sweep.fs_max",
    "sweep.ratios", "run.t", "trotter.threshold",
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FINITE_KEYS)
def test_config_rejects_non_finite_float(key, value):
    with pytest.raises(ParameterError, match=f"{key} must be finite"):
        build_config(parse_config_text(f"{key} = {value}"))


def test_config_rejects_non_finite_ratio_among_finite():
    with pytest.raises(ParameterError, match="sweep.ratios must be finite"):
        RunConfig(ratios=(1.005, math.nan, 1.1))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "args",
    [
        ["trotter", "--t="],
        ["amplify", "--t="],
        ["amplify", "--fs-max="],
        ["coupling", "--set", "geometry.edge_length="],
        ["selftest", "--set", "circuit.e_j="],
    ],
    ids=["trotter_t", "amplify_t", "amplify_fs_max", "coupling_edge", "selftest_e_j"],
)
def test_cli_rejects_non_finite_input(capsys, tmp_path, args, value):
    argv = args[:-1] + [args[-1] + value]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_malformed_ratios_flag(capsys):
    assert main(["amplify", "--ratios", "1.005,abc"]) == 2
    assert "--ratios" in capsys.readouterr().err


def test_json_report_refuses_non_finite_values(capsys, tmp_path, monkeypatch):
    # a report holding a non-finite value is never written as bare Infinity
    from fluxsqueeze import cli
    from fluxsqueeze.selftest import CheckResult

    def overflowing(cfg):
        return [CheckResult("overflow", math.inf, 1.0, False)], False

    monkeypatch.setattr(cli, "run_selftest", overflowing)
    out = tmp_path / "report.json"
    assert main(["selftest", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError:") and "JSON compliant" in err
    assert not out.exists()


def test_aborted_selftest_exits_with_its_error_class(capsys, tmp_path):
    # an inverted potential aborts the battery: a stability error, not a report
    out = tmp_path / "report.json"
    assert main(["selftest", "--set", "circuit.e_j=1e300", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("stability error:") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("option, value", [("--fs-min", "-1e-1"), ("--fs-max", "-5e-2")])
def test_negative_exponent_value_parses_like_equals_form(tmp_path, option, value):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    extra = ["--fs-min", "-2e-1"] if option == "--fs-max" else []
    assert main(["amplify", *extra, option, value, "--out", str(spaced)]) == 0
    assert main(["amplify", *extra, f"{option}={value}", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize("argv", [["--t", "-1e-3"], ["--t=-1e-3"]], ids=["spaced", "joined"])
def test_negative_exponent_time_is_a_configuration_error(capsys, argv):
    assert main(["trotter", *argv]) == 2
    assert "run.t must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, match",
    [
        ("geometry.edge_length=1e300", "loop field"),
        ("geometry.z_nv=1e-320", "loop field"),
        ("geometry.inductance=1e-320", "coupling"),
        ("geometry.inductance=1e-310", "E_L"),
    ],
    ids=["field-overflow", "field-divide", "coupling-overflow", "e_l-overflow"],
)
def test_coupling_non_finite_result_is_geometry_error(capsys, tmp_path, setting, match):
    out = tmp_path / "report.json"
    assert main(["coupling", "--set", setting, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and match in err
    assert err.count("\n") == 1
    assert "not finite" in err
    assert not out.exists()


def test_amplify_gain_overflow_names_run_t(capsys, tmp_path):
    out = tmp_path / "gain.csv"
    assert main(["amplify", "--t", "10000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "overflows" in err
    assert "run.t" in err
    assert not out.exists()


def test_load_config_missing_file():
    with pytest.raises(ParameterError, match="cannot read"):
        load_config("/nonexistent/path.conf")


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else ""


def test_spectrum_command(tmp_path):
    code, text = run_cli(["spectrum", "--fs-steps", "5"], tmp_path, "sweep.csv")
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0].startswith("# circuit level sweep")
    assert "GHz" in lines[0] and "GHz*ns" in lines[0]
    header = lines[1].split(",")
    assert header[0] == "f_s" and header[-1] == "status"
    first = lines[2].split(",")
    # at the sweet spot the full and quartic level columns are identical
    assert first[1:4] == first[4:7]
    assert abs(float(first[7])) < 1e-9 and abs(float(first[8])) < 1e-9


def test_spectrum_deterministic(tmp_path):
    _, text_a = run_cli(["spectrum", "--fs-steps", "4"], tmp_path, "a.csv")
    _, text_b = run_cli(["spectrum", "--fs-steps", "4"], tmp_path, "b.csv")
    assert text_a == text_b


def test_trotter_command_zero_time_row(tmp_path):
    code, text = run_cli(
        ["trotter", "--t", "3", "--set", "run.t_steps=4"], tmp_path, "trot.csv"
    )
    assert code == 0
    lines = text.strip().splitlines()
    row0 = lines[2].split(",")
    assert float(row0[0]) == 0.0
    assert float(row0[-2]) == 0.0  # both matrices are the identity
    assert row0[-1] == "ok"


def test_trotter_agreement_column_tracks_threshold(tmp_path):
    _, text = run_cli(
        ["trotter", "--t", "15", "--set", "run.t_steps=16"], tmp_path, "trot.csv"
    )
    rows = [line.split(",") for line in text.strip().splitlines()[2:]]
    status = {float(r[0]): r[-1] for r in rows}
    assert status[1.0] == "ok"
    assert status[15.0] == "exceeds"


def test_amplify_command(tmp_path):
    code, text = run_cli(
        ["amplify", "--ratios", "1.005,0.98", "--fs-steps", "6"], tmp_path, "amp.csv"
    )
    assert code == 0
    lines = text.strip().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    sweet = [r for r in rows if float(r[1]) == 0.5]
    assert all(r[4] == "1.00000000000e+00" for r in sweet)
    assert any(r[-1] == "unstable" and r[4] == "" for r in rows)


def test_amplify_two_pi_flag_changes_output(tmp_path):
    _, plain = run_cli(["amplify", "--fs-steps", "3"], tmp_path, "p.csv")
    _, angular = run_cli(["amplify", "--fs-steps", "3", "--two-pi"], tmp_path, "q.csv")
    assert plain != angular
    assert "2pi*GHz*ns" in angular.splitlines()[0]


def test_coupling_command(tmp_path):
    code, text = run_cli(["coupling"], tmp_path, "coupling.json")
    assert code == 0
    report = json.loads(text)
    assert 10.0 / 3.0 < report["coupling"]["g_khz"] < 30.0
    assert report["coupling"]["si_vs_internal_relative_difference"] < 1e-10
    assert report["inputs"]["inductance_source"] == "derived_from_e_l"


def test_coupling_midpoint_field(tmp_path):
    import math

    code, text = run_cli(
        ["coupling", "--set", "geometry.z_nv=5e-6"], tmp_path, "mid.json"
    )
    assert code == 0
    report = json.loads(text)
    expected = 1.25663706212e-6 / (4.0 * math.pi) * 6.0 * math.sqrt(2.0) / 10e-6
    assert report["field"]["b0_tesla_per_ampere"] == pytest.approx(expected, rel=1e-12)


def test_coupling_geometry_error_exit_code(tmp_path):
    code = main(["coupling", "--set", "geometry.z_nv=0", "--out", str(tmp_path / "x")])
    assert code == 2


def test_config_rejects_nonpositive_energy():
    with pytest.raises(ParameterError):
        RunConfig(e_c=0.0)


def test_trotter_and_amplify_deterministic(tmp_path):
    for cmd in (["trotter", "--t", "2", "--set", "run.t_steps=5"],
                ["amplify", "--fs-steps", "4"]):
        _, first = run_cli(cmd, tmp_path, "r1")
        _, second = run_cli(cmd, tmp_path, "r2")
        assert first == second


def test_stability_error_exit_code(tmp_path):
    code = main(
        [
            "trotter",
            "--set", "circuit.e_l=40",
            "--set", "circuit.f_s=1.0",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 3


def test_unknown_set_key_exit_code(tmp_path):
    code = main(["spectrum", "--set", "circuit.bogus=1", "--out", str(tmp_path / "x")])
    assert code == 2


def test_config_file_plus_flag_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(GOOD_CONFIG, encoding="utf-8")
    out = tmp_path / "amp.csv"
    code = main(
        ["amplify", "--config", str(conf), "--ratios", "1.05", "--out", str(out)]
    )
    assert code == 0
    body = out.read_text(encoding="utf-8")
    rows = [line.split(",") for line in body.strip().splitlines()[2:]]
    assert {r[0] for r in rows} == {"1.05000000000e+00"}  # flag beat the file
    assert len(rows) == 11  # fs_steps came from the file


def test_selftest_passes_by_default(tmp_path):
    code, text = run_cli(["selftest"], tmp_path, "self.json")
    assert code == 0
    report = json.loads(text)
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "su11_commutators_interior" in names
    assert "biot_savart_symmetry" in names
    assert "conjugation_equivalence" in names


def test_selftest_unconverged_basis_fails(tmp_path):
    out = tmp_path / "self.json"
    code = main(["selftest", "--dim", "4", "--out", str(out)])
    assert code == 5
    report = json.loads(out.read_text(encoding="utf-8"))
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "truncation_convergence" in failed


def test_selftest_tampered_tolerance_detected(tmp_path):
    # a tolerance far below roundoff is valid config that no truncation meets
    out = tmp_path / "self.json"
    code = main(
        ["selftest", "--set", "numerics.convergence_tol=1e-30", "--out", str(out)]
    )
    assert code == 5
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["truncation_convergence"]["passed"] is False


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fluxsqueeze.cli", "coupling"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tool"]["name"] == "fluxsqueeze"


SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_unexpected_exception_is_one_line_exit_1(tmp_path):
    # the output directory does not exist, so open() raises; the CLI
    # reports the FileNotFoundError in one line
    out = tmp_path / "missing" / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "fluxsqueeze.cli", "coupling", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: FileNotFoundError:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cli_import_does_not_load_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fluxsqueeze.cli; assert 'scipy' not in sys.modules"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
