import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluxsqueeze.cli import COMMANDS, main
from fluxsqueeze.config import (
    KNOWN_KEYS,
    MAX_GRID_POINTS,
    MAX_MATRIX_BYTES,
    RunConfig,
    build_config,
    load_config,
    matrix_bytes,
    parse_config_text,
)
from fluxsqueeze.errors import ParameterError
from fluxsqueeze.physics import FINITE, POSITIVE, CircuitParams, CouplingGeometry

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
    file_values = parse_config_text(GOOD_CONFIG)
    cfg = build_config(file_values, {"fs_steps": 21})
    assert cfg.fs_steps == 21  # flag wins
    assert cfg.dim == 60  # set nowhere: the default
    assert cfg.e_c == 0.12 and cfg.inductance == 1.4e-9
    # a flag given as none arrives as None and unsets the file's value
    assert build_config(file_values, {"inductance": None}).inductance is None


@pytest.mark.parametrize("unset", [["--out", "none"], ["--set", "output.path=none"]])
def test_none_unsets_the_config_files_output_path(tmp_path, capsys, unset):
    conf = tmp_path / "run.conf"
    conf.write_text(f"output.path = {tmp_path / 'from-file.json'}\n", encoding="utf-8")
    assert main(["coupling", "--config", str(conf), *unset]) == 0
    assert json.loads(capsys.readouterr().out)["tool"]["name"] == "fluxsqueeze"
    assert not (tmp_path / "from-file.json").exists()


def test_none_unsets_the_config_files_time(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("run.t = 2.0\n", encoding="utf-8")
    assert main(["amplify", "--config", str(conf), "--fs-steps", "2"]) == 0
    assert "t=2.00000000000e+00 ns" in capsys.readouterr().out
    assert main(["amplify", "--config", str(conf), "--fs-steps", "2", "--t", "none"]) == 0
    assert "t=1.00000000000e+00 ns" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_out_is_one_configuration_error(tmp_path, capsys, target):
    out = tmp_path / target
    assert main(["coupling", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write output.path {out}: ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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


# a value that fails each check of the KNOWN_KEYS check column
FAILS_CHECK = {
    "finite": "nan", "positive": "-1", "non-negative": "-1", ">= 1": "0", ">= 2": "1",
    "'matched' or 'swapped'": "diagonal", "finite and > 0": "0",
    f"within the grid budget of {MAX_GRID_POINTS} points": "1000000000000",
    f"within the matrix budget of {MAX_MATRIX_BYTES} bytes": "100000",
}


@pytest.mark.parametrize(
    "key, what", [(key, what) for key, row in KNOWN_KEYS.items() for what, _ in row[4]]
)
def test_each_key_check_fails_as_one_configuration_line(capsys, key, what):
    assert main(["coupling", "--set", f"{key}={FAILS_CHECK[what]}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key} must be {what}, got ")
    assert err.count("\n") == 1


def test_circuit_and_geometry_fields_check_their_keys_as_the_config_does():
    # a rule held by both layers is one check tuple, so the two cannot drift
    # apart; geometry.inductance is optional in the config, required in the loop
    for cls in (CircuitParams, CouplingGeometry):
        for f in fields(cls):
            key, checks = f.metadata["key"], f.metadata["checks"]
            assert key in KNOWN_KEYS
            config_checks = KNOWN_KEYS[key][4]
            if key == "geometry.inductance":
                assert (config_checks, checks) == (FINITE, POSITIVE)
            else:
                assert checks == config_checks, key


FINITE_KEYS = [
    "circuit.e_c", "circuit.e_j", "circuit.e_l", "circuit.f_s",
    "geometry.edge_length", "geometry.z_nv", "geometry.inductance",
    "sweep.fs_min", "sweep.fs_max", "sweep.ratios", "run.t", "trotter.threshold",
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


# each flag's text goes through its config key's parser: a bad value is one
# classified line naming the flag or the key, not an argparse usage block
@pytest.mark.parametrize(
    "argv, names",
    [
        (["amplify", "--ratios", ","], "--ratios: bad value for sweep.ratios"),
        (["amplify", "--ratios="], "--ratios: bad value for sweep.ratios"),
        (["amplify", "--fs-steps", "1.5"], "--fs-steps: bad value for sweep.fs_steps"),
        (["trotter", "--M", "x"], "--M: bad value for run.m"),
        (["trotter", "--M", "-1e0"], "--M: bad value for run.m"),
        (["spectrum", "--dim", "-5"], "numerics.dim must be >= 2"),
        (["amplify", "--set", "numerics.two_pi=maybe"], "--set: bad value for numerics.two_pi"),
    ],
)
def test_bad_flag_value_is_one_classified_line(capsys, tmp_path, argv, names):
    out = tmp_path / "artifact"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and names in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_flags_and_set_items_parse_alike(tmp_path):
    flags, keys = tmp_path / "flags.csv", tmp_path / "keys.csv"
    argv = ["--fs-steps", "3", "--ratios", "1.01, 1.1", "--t", "2", "--two-pi"]
    sets = ["sweep.fs_steps=3", "sweep.ratios=1.01, 1.1", "run.t=2", "numerics.two_pi=true"]
    assert main(["amplify", *argv, "--out", str(flags)]) == 0
    assert main(["amplify", *[a for s in sets for a in ("--set", s)], "--out", str(keys)]) == 0
    assert flags.read_bytes() == keys.read_bytes()


@pytest.mark.parametrize("value", ["none", "None", ""])
def test_output_path_none_writes_to_stdout(capsys, tmp_path, monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.conf").write_text(f"output.path = {value}\n", encoding="utf-8")
    for argv in (["--config", "run.conf"], ["--set", f"output.path={value}"], ["--out", value]):
        assert main(["coupling", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["tool"]["name"] == "fluxsqueeze"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]


def _readme_section(start: str, end: str) -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text[text.index(start):][: text[text.index(start):].index(end)]


def test_readme_lists_the_option_table():
    ini = _readme_section("```ini\n", "\n```")
    readme_keys = {line.partition("=")[0].strip() for line in ini.splitlines()[1:]}
    assert readme_keys == set(KNOWN_KEYS)
    flags = _readme_section("Flags:", "\n\n")
    readme_flags = dict(re.findall(r"`(--[\w-]+)`\s+\(`([\w.]+)`\)", flags))
    assert readme_flags == {row[2]: key for key, row in KNOWN_KEYS.items() if row[2]}


def test_json_report_refuses_non_finite_values(capsys, tmp_path, monkeypatch):
    # a report holding a non-finite value is never written as bare Infinity
    from fluxsqueeze import selftest
    from fluxsqueeze.selftest import CheckResult

    def overflowing(cfg):
        return [CheckResult("overflow", math.inf, 1.0, False)], False

    monkeypatch.setattr(selftest, "run_selftest", overflowing)
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


@pytest.mark.parametrize("argv", [["--fs-mi", "-1e-1"], ["--fs-mi=-1e-1"]], ids=["spaced", "joined"])
def test_abbreviated_option_is_rejected(capsys, argv):
    assert main(["amplify", *argv]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: unrecognized argument '--fs-mi'; options are spelled in full\n"


# every argv error is one classified line, with nothing on stdout
@pytest.mark.parametrize(
    "argv, names",
    [
        (["spectrum", "--bogus"], "unrecognized argument '--bogus'"),
        (["amplify", "--fs-mi", "-1e-1"], "unrecognized argument '--fs-mi'"),
        (["amplify", "--fs-mi=-1e-1"], "unrecognized argument '--fs-mi'"),
        (["trotter", "--k", "1"], "unrecognized argument '--k'"),
        (["coupling", "--dim"], "--dim expects a value"),
        (["coupling", "--set", "circuit.e_c"], "--set expects KEY=VALUE, got 'circuit.e_c'"),
        (["amplify", "--two-pi=false"], "--two-pi takes no value"),
        (["bogus"], "unknown command 'bogus'"),
        ([], "missing command"),
    ],
    ids=["unknown", "prefix-spaced", "prefix-joined", "deleted-flag", "no-value", "set-no-equals",
         "switch-value", "unknown-command", "no-command"],
)
def test_malformed_argv_is_one_classified_line(capsys, argv, names):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and names in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--help", "spectrum"]])
def test_help_lists_every_command(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: fluxsqueeze") and captured.err == ""
    listed = {line.split()[0] for line in captured.out.split("commands:\n")[1].splitlines()}
    assert listed == set(COMMANDS)


@pytest.mark.parametrize("command", list(COMMANDS))
@pytest.mark.parametrize("switch", ["--help", "-h"])
def test_command_help_lists_every_flag(capsys, command, switch):
    # values are parsed after argv is read, so help wins over a bad one
    assert main([command, "--dim", "x", switch]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: fluxsqueeze {command}") and captured.err == ""
    listed = {line.split()[0] for line in captured.out.split("options:\n")[1].splitlines()}
    flags = {row[2] for row in KNOWN_KEYS.values() if row[2]}
    assert listed == flags | {"--config", "--set"}
    for key, row in KNOWN_KEYS.items():
        assert (f"({key})" in captured.out) == bool(row[2])


@pytest.mark.parametrize(
    "argv",
    [["--set", "run.t=5", "--t", "3"], ["--t", "3", "--set", "run.t=5"],
     ["--t", "4", "--t", "1", "--set", "run.t=2", "--set", "run.t=5"]],
    ids=["set-first", "flag-first", "repeated"],
)
def test_set_items_win_over_flags_in_any_order(tmp_path, argv):
    conf = tmp_path / "run.conf"
    conf.write_text("run.t = 7\n", encoding="utf-8")
    out = tmp_path / "amp.csv"
    assert main(["amplify", "--config", str(conf), *argv, "--out", str(out)]) == 0
    assert "t=5.00000000000e+00 ns" in out.read_text(encoding="utf-8").splitlines()[0]


def test_unstable_selftest_prints_one_short_line(capsys, tmp_path):
    assert main(["selftest", "--set", "circuit.e_j=1e300", "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 160
    assert "E_L + E_J(f_s)/2 = -9.51057e+299 GHz" in err


def test_degenerate_spectrum_exits_4(capsys, monkeypatch):
    from fluxsqueeze import circuit
    from fluxsqueeze.circuit import Spectrum

    flat = Spectrum(levels=((0, 1.0), (1, 1.0), (2, 1.0)), e01=0.0, e12=0.0)
    monkeypatch.setattr(circuit, "converged_spectra", lambda ps, *args, **kwargs: [(flat, 60)] * len(ps))
    assert main(["spectrum", "--fs-steps", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("degenerate spectrum:") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "key", ["circuit.e_c", "circuit.e_j", "circuit.e_l", "geometry.edge_length", "geometry.z_nv"]
)
def test_positivity_error_names_the_config_key(capsys, tmp_path, key):
    out = tmp_path / "report.json"
    assert main(["coupling", "--set", f"{key}=-1e-8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: {key} must be positive, got -1e-08\n"
    assert not out.exists()


# TiB-scale grids, which numpy would refuse outright: a missing budget
# check fails these tests with a MemoryError instead of exhausting memory
@pytest.mark.parametrize(
    "argv, key",
    [
        (["amplify", "--fs-steps", "1000000000000"], "sweep.fs_steps"),
        (["spectrum", "--fs-steps", "1000000000000"], "sweep.fs_steps"),
        (["trotter", "--set", "run.t_steps=1000000000000"], "run.t_steps"),
    ],
)
def test_over_budget_grid_names_its_key(capsys, tmp_path, argv, key):
    out = tmp_path / "grid.csv"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    # run.t_steps's budget is a check of its key; sweep.fs_steps's counts the ratios too
    start = "must be within" if key == "run.t_steps" else "= 1000000000000"
    assert err.startswith(f"configuration error: {key} {start}")
    assert "grid budget" in err and "1000000000000" in err
    assert not out.exists()


def test_grid_budget_counts_amplify_rows():
    # only builds configs, so nothing is allocated either way
    RunConfig(fs_steps=MAX_GRID_POINTS // 2, ratios=(1.01, 1.1))
    RunConfig(t_steps=MAX_GRID_POINTS)
    with pytest.raises(ParameterError, match="sweep.fs_steps"):
        RunConfig(fs_steps=MAX_GRID_POINTS // 2 + 1, ratios=(1.01, 1.1))
    with pytest.raises(ParameterError, match="run.t_steps"):
        RunConfig(t_steps=MAX_GRID_POINTS + 1)


# TiB-scale truncations (about 7 TB of matrices at dim 1e5): a missing
# budget check fails these with a MemoryError before any matrix is filled
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--dim", "100000"],
        ["selftest", "--set", "numerics.dim=100000"],
        ["coupling", "--dim", "100000"],
    ],
)
def test_over_budget_dim_names_its_key(capsys, tmp_path, argv):
    out = tmp_path / "report.out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"configuration error: numerics.dim must be within the matrix budget of "
                   f"{MAX_MATRIX_BYTES} bytes, got 100000\n")
    assert not out.exists()


def test_matrix_budget_admits_the_documented_dims():
    # estimates and configs only: nothing is allocated either way
    assert matrix_bytes(100000) > 2**40
    for dim in (60, 120, 240):
        RunConfig(dim=dim)
    largest = max(d for d in range(1000, 2000) if matrix_bytes(d) <= MAX_MATRIX_BYTES)
    RunConfig(dim=largest)
    with pytest.raises(ParameterError, match="numerics.dim"):
        RunConfig(dim=largest + 1)


def _never_converging_builder(asked):
    """A builder that records each rung's dim and returns a 4x4 diagonal
    whose ground level falls with every build: nothing of the requested
    size is allocated, and no doubling test passes."""
    import numpy as np

    def builder(p, space):
        asked.append(space.dim)
        return np.diag([-float(len(asked)), 1.0, 2.0, 3.0])

    return builder


def test_doubling_ladder_stops_before_the_matrix_budget():
    # estimates only: the ladder from dim 60 may build dim 1920 but not 3840
    assert matrix_bytes(960) <= MAX_MATRIX_BYTES < matrix_bytes(1920)
    from fluxsqueeze.circuit import converged_spectrum
    from fluxsqueeze.errors import ConvergenceError

    asked = []
    with pytest.raises(ConvergenceError) as exc:
        converged_spectrum(
            CircuitParams(0.12, 58.0, 58.6, 0.9), 60, _never_converging_builder(asked), tol=1e-30
        )
    assert asked == [60, 120, 240, 480, 960, 1920]
    message = str(exc.value)
    assert "numerics.convergence_tol = 1.0e-30" in message
    assert "dim=1920" in message and "dim=3840" in message


def test_unreachable_convergence_tol_exits_4(capsys, monkeypatch, tmp_path):
    from fluxsqueeze import circuit

    asked = []
    monkeypatch.setattr(circuit, "full_hamiltonian", _never_converging_builder(asked))
    out = tmp_path / "levels.csv"
    argv = ["spectrum", "--fs-steps", "2", "--set", "numerics.convergence_tol=1e-30"]
    assert main([*argv, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("convergence error: numerics.convergence_tol = 1.0e-30")
    assert "dim=1920" in err and err.count("\n") == 1
    assert max(asked) == 1920
    assert not out.exists()


def test_amplify_gain_overflow_names_run_t(capsys, tmp_path):
    out = tmp_path / "gain.csv"
    assert main(["amplify", "--t", "10000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "overflows" in err
    assert "run.t" in err
    assert not out.exists()


def test_amplify_does_not_read_circuit_e_j(capsys):
    # amplify forms E_J = E_L / ratio, so circuit.e_j changes no byte of its table
    assert main(["amplify", "--fs-steps", "3", "--set", "circuit.e_j=1.7e308"]) == 0
    extreme = capsys.readouterr()
    assert main(["amplify", "--fs-steps", "3"]) == 0
    assert extreme == capsys.readouterr() and extreme.err == ""


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


@pytest.mark.parametrize("dim, code", [(2, 2), (3, 5)])
def test_selftest_needs_three_levels(capsys, tmp_path, dim, code):
    # dim 2 leaves the interior checks no level; dim 3 runs and fails as before
    out = tmp_path / "self.json"
    assert main(["selftest", "--dim", str(dim), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("configuration error: numerics.dim") and err.count("\n") == 1
        assert not out.exists()
    else:
        assert err == "" and out.exists()


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


# runs ``coupling`` with its command replaced by one that fails unexpectedly
FAILING_COMMAND = """
import sys
from fluxsqueeze import cli
def broken(cfg):
    raise KeyError("no such table")
cli.cmd_coupling = broken
sys.exit(cli.main(["coupling"]))
"""


def test_unexpected_exception_is_one_line_exit_1():
    proc = subprocess.run(
        [sys.executable, "-c", FAILING_COMMAND],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: KeyError: 'no such table'")
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


def test_cli_does_not_load_argparse(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fluxsqueeze.cli\n"
         "assert 'argparse' not in sys.modules\n"
         f"assert fluxsqueeze.cli.main(['coupling', '--out', {str(out)!r}]) == 0\n"
         "assert 'argparse' not in sys.modules"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("key", ["nv.zeeman", "nv.zero_field_splitting", "run.k"])
def test_deleted_keys_are_unknown(capsys, tmp_path, key):
    out = tmp_path / "x.json"
    assert main(["coupling", "--set", f"{key}=1", "--out", str(out)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    conf = tmp_path / "run.conf"
    conf.write_text(f"{key} = 1\n", encoding="utf-8")
    assert main(["coupling", "--config", str(conf), "--out", str(out)]) == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


def test_branch_flag_is_gone(capsys):
    assert main(["trotter", "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: unrecognized argument '--k'")
    assert err.count("\n") == 1


def test_trotter_past_hyperbolic_cap_is_a_regime_error(capsys, tmp_path):
    out = tmp_path / "trot.csv"
    argv = ["trotter", "--set", "numerics.convention=swapped", "--t", "100", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("stability error: hyperbolic argument") and err.count("\n") == 1
    assert "cap 10.0" in err and "run.t" in err
    assert not out.exists()


def test_failing_convergence_check_prints_the_value_it_judged(tmp_path):
    def convergence(tol):
        out = tmp_path / f"self-{tol}.json"
        main(["selftest", "--set", f"numerics.convergence_tol={tol}", "--out", str(out)])
        checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
        return checks["truncation_convergence"]

    loose, tight = convergence(1e-6), convergence(1e-13)
    assert loose["passed"] and loose["value"] < 1e-12
    assert not tight["passed"] and tight["threshold"] == 1e-13
    assert tight["value"] == loose["value"]


# extreme values that once ended in a ZeroDivisionError, named the wrong
# key, or printed numpy RuntimeWarnings before the classified error line
EXTREME_ROWS = [
    (["coupling", "--set", "circuit.e_l=1e-320"], 2, "configuration error: circuit.e_l"),
    (["amplify", "--set", "circuit.e_l=1e-320"], 2, "configuration error: circuit.e_l"),
    (["selftest", "--set", "circuit.e_l=1e-320"], 2, "configuration error: circuit.e_l"),
    (["selftest", "--set", "circuit.e_l=1e300"], 2, "configuration error: circuit.e_l"),
    (["spectrum", "--set", "circuit.e_l=1e-320"], 2, "configuration error: circuit.e_c and circuit.e_l"),
    (["selftest", "--set", "circuit.e_c=1e-320"], 2,
     "configuration error: circuit.e_c and circuit.e_l"),
    (["trotter", "--t", "1e300"], 3, "stability error: hyperbolic argument |3.208e+297| exceeds cap"),
    (["trotter", "--t", "1e200"], 3, "stability error: hyperbolic argument |3.208e+197| exceeds cap"),
    (["coupling", "--config", "utf16.conf"], 2,
     "configuration error: cannot read config file utf16.conf: 'utf-8' codec"),
    (["spectrum", "--set", "sweep.fs_steps=3", "--dim", "4", "--set", "circuit.e_l=1e-300",
      "--fs-min", "0", "--fs-max", "0.51"], 4,
     "convergence error: Hamiltonian at dim=8 mixes photon parity"),
    (["trotter", "--set", "circuit.e_l=1e-200", "--set", "circuit.e_c=1e-200",
      "--set", "circuit.f_s=0.0", "--t", "1e9"], 2,
     "configuration error: circuit.e_c and circuit.e_l"),
    (["coupling", "--set", "geometry.inductance=1.7e308"], 2,
     "configuration error: geometry.edge_length, geometry.z_nv and geometry.inductance: "
     "spin-loop coupling = 0 is not finite and positive"),
    (["selftest", "--set", "circuit.e_j=1e-320"], 3,
     "stability error: no squeezing interaction"),
    (["selftest", "--dim", "3", "--set", "geometry.edge_length=1.7e308"], 2,
     "configuration error: geometry.edge_length and geometry.z_nv: loop field profile = inf "
     "is not finite and positive"),
    (["selftest", "--dim", "3", "--set", "geometry.edge_length=1e-200",
      "--set", "geometry.z_nv=1e-320"], 2,
     "configuration error: geometry.edge_length and geometry.z_nv: loop field profile = nan "
     "is not finite and positive"),
    (["selftest", "--dim", "3", "--set", "geometry.edge_length=1e150"], 2,
     "configuration error: geometry.edge_length and geometry.z_nv: loop field profile = 0 "
     "is not finite and positive"),
    (["coupling", "--set", "geometry.inductance=1e-200", "--set", "circuit.e_j=1e200",
      "--set", "circuit.e_l=1e-300"], 2,
     "configuration error: circuit.e_l and geometry.inductance: relative E_L mismatch = inf "
     "is not finite"),
    (["trotter", "--set", "circuit.e_l=1.7e308"], 2,
     "configuration error: circuit.e_j and circuit.e_l: 2 E_L + E_J(f_s) = inf"),
    (["selftest", "--dim", "3", "--set", "circuit.f_s=1e-320", "--set", "circuit.e_j=1e150",
      "--set", "circuit.e_c=1e200"], 2,
     "configuration error: circuit.e_c, circuit.e_j, circuit.e_l and circuit.f_s: omega1 = inf"),
    (["spectrum", "--fs-steps", "3", "--dim", "4", "--set", "circuit.e_c=1e-10",
      "--set", "circuit.e_j=0.001", "--set", "circuit.e_l=1.7e308"], 2,
     "configuration error: circuit.e_j and circuit.e_l: 2 E_L + E_J(f_s) = inf"),
    (["coupling", "--set", "circuit.e_j=1.7e308"], 2,
     "configuration error: circuit.e_j: E_J(f_s) = nan"),
    (["spectrum", "--fs-steps", "3", "--set", "circuit.e_j=1.7e308"], 2,
     "configuration error: circuit.e_j: E_J(f_s) = nan"),
    (["trotter", "--set", "circuit.e_j=1.7e308"], 2,
     "configuration error: circuit.e_j: E_J(f_s) = -inf"),
    (["selftest", "--dim", "3", "--set", "circuit.e_c=1e300"], 2,
     "configuration error: circuit.e_c and circuit.e_l: omega0 = 1.53101e+151 GHz"),
    (["selftest", "--dim", "3", "--set", "circuit.e_c=1e-10", "--set", "circuit.e_j=1e-300",
      "--set", "circuit.e_l=1000", "--set", "circuit.f_s=1e10"], 3,
     "stability error: no squeezing interaction: eta1 = -1.1888206454e-314 GHz"),
    (["spectrum", "--fs-steps", "3", "--dim", "4", "--fs-min", "0", "--fs-max", "0.4",
      "--set", "circuit.e_j=8e307", "--set", "circuit.e_l=1"], 2,
     "configuration error: circuit.e_c, circuit.e_j and circuit.e_l give a non-finite "
     "Hamiltonian at f_s=0.0, dim=4"),
    (["selftest", "--dim", "3", "--set", "circuit.f_s=0", "--set", "circuit.e_j=8e307",
      "--set", "circuit.e_l=1"], 2,
     "configuration error: circuit.e_c, circuit.e_j and circuit.e_l give a non-finite "
     "Hamiltonian at f_s=0.0, dim=3"),
    (["amplify", "--set", "geometry.inductance=1e-9", "--set", "circuit.e_l=1e308",
      "--ratios", "1.005"], 2,
     "configuration error: circuit.e_l and sweep.ratios: 2 E_J = 2 E_L / 1.005 = inf"),
    (["amplify", "--set", "circuit.e_l=1e-300", "--ratios", "1e300"], 2,
     "configuration error: circuit.e_l and sweep.ratios: 2 E_J = 2 E_L / 1e+300 = 0"),
    (["amplify", "--set", "geometry.inductance=1e-9", "--set", "circuit.e_l=1.7e308",
      "--ratios", "1e10"], 2, "configuration error: circuit.e_l: 2 E_L = inf"),
    (["amplify", "--fs-min", "-1.7e308", "--fs-max", "1.7e308", "--fs-steps", "3"], 2,
     "configuration error: sweep.fs_min and sweep.fs_max: fs_max - fs_min = inf"),
    (["spectrum", "--fs-min", "-1.7e308", "--fs-max", "1.7e308", "--fs-steps", "3"], 2,
     "configuration error: sweep.fs_min and sweep.fs_max: fs_max - fs_min = inf"),
    (["coupling", "--set", "geometry.inductance=-1e-9"], 2,
     "configuration error: geometry.inductance must be positive, got -1e-09"),
    (["coupling", "--set", "geometry.z_nv=2e-5"], 2,
     "configuration error: geometry.edge_length and geometry.z_nv: edge_length - z_nv = "
     "-1e-05 is not finite and positive"),
    (["amplify", "--set", "geometry.z_nv=2e-5"], 2,
     "configuration error: geometry.edge_length and geometry.z_nv: edge_length - z_nv = "
     "-1e-05 is not finite and positive"),
    (["amplify", "--ratios", "-1"], 2,
     "configuration error: sweep.ratios must be positive, got (-1.0,)"),
]
EXTREME_IDS = [
    "coupling", "amplify", "selftest-tiny", "selftest-huge", "spectrum", "selftest-tiny-e_c",
    "trotter-1e300", "trotter-1e200", "config-not-utf-8", "spectrum-parity-mixing",
    "trotter-omega0-underflow", "coupling-g-underflow", "selftest-eta1-underflow",
    "profile-overflow", "profile-divide", "profile-huge-edge", "coupling-mismatch-overflow",
    "trotter-omega1-overflow", "selftest-omega1-overflow", "spectrum-stiffness-overflow",
    "coupling-ej-overflow", "spectrum-ej-overflow", "trotter-ej-overflow",
    "selftest-hyperbolic-overflow", "selftest-eta1-subnormal", "spectrum-symmetrize-overflow",
    "selftest-symmetrize-overflow", "amplify-ej-overflow", "amplify-ej-underflow",
    "amplify-el-overflow", "amplify-range-overflow", "spectrum-range-overflow",
    "coupling-negative-inductance", "coupling-z_nv-outside", "amplify-z_nv-outside",
    "amplify-ratio-negative",
]


def _extreme_rows(ids=EXTREME_IDS):
    return pytest.mark.parametrize("argv, code, message", [
        pytest.param(*row, id=name) for row, name in zip(EXTREME_ROWS, EXTREME_IDS) if name in ids
    ])


def _is_one_classified_line(tmp_path, got, err, code, message):
    assert got == code, err
    assert err.startswith(message), err
    assert err.count("\n") == 1
    assert not (tmp_path / "artifact").exists()


@_extreme_rows()
def test_extreme_input_is_one_classified_line(tmp_path, monkeypatch, argv, code, message):
    # a config file that starts with a UTF-16 byte order mark
    (tmp_path / "utf16.conf").write_bytes("\ufeffcircuit.e_c = 0.12\n".encode("utf-16-le"))
    monkeypatch.chdir(tmp_path)
    got, err = _artifact_or_one_classified_line([*argv, "--out", "artifact"], "error")
    _is_one_classified_line(tmp_path, got, err, code, message)


# a few rows run as ``python -W error`` processes too, through startup and import
@_extreme_rows(ids=("config-not-utf-8", "trotter-1e300", "spectrum-parity-mixing"))
def test_extreme_input_is_one_classified_line_in_a_fresh_process(tmp_path, argv, code, message):
    (tmp_path / "utf16.conf").write_bytes("\ufeffcircuit.e_c = 0.12\n".encode("utf-16-le"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fluxsqueeze.cli", *argv, "--out", "artifact"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        cwd=tmp_path,
    )
    _is_one_classified_line(tmp_path, proc.returncode, proc.stderr, code, message)


# each command that reads the circuit keys, at grids small enough for many examples
CIRCUIT_COMMANDS = {
    "spectrum": ["--fs-steps", "3", "--dim", "4"],
    "trotter": ["--set", "run.t_steps=3"],
    "amplify": ["--fs-steps", "3"],
    "coupling": [],
    "selftest": ["--dim", "3"],
}
# None leaves a key at its default; the rest span subnormals to near overflow
ENERGY = st.one_of(
    st.none(),
    st.floats(min_value=5e-324, max_value=1.7e308),
    st.builds(lambda m, e: min(m * 10.0**e, 1.7e308), st.floats(1.0, 10.0), st.integers(-323, 308)),
)
FLUX = st.one_of(st.none(), st.floats(-2.0, 2.0), st.floats(allow_nan=False, allow_infinity=False))


def _json_numbers(obj):
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for item in obj for x in _json_numbers(item)]
    return [obj] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


def _csv_numbers(text: str) -> list:
    numbers = []
    for cell in ",".join(text.splitlines()[2:]).split(","):
        with contextlib.suppress(ValueError):
            numbers.append(float(cell))
    return numbers


def _artifact_or_one_classified_line(argv, action="always"):
    """Run ``argv`` in process under warning filter ``action``: it writes a finite
    artifact or one classified line, and warns not.  Returns the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter(action)
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3, 4, 5), err.getvalue()
    assert err.getvalue().count("\n") == (code in (2, 3, 4)), err.getvalue()
    if code == 0:
        text = out.getvalue()
        json_out = argv[0] in ("coupling", "selftest")
        numbers = _json_numbers(json.loads(text)) if json_out else _csv_numbers(text)
        assert numbers and all(map(math.isfinite, numbers))
    return code, err.getvalue()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(CIRCUIT_COMMANDS)), e_c=ENERGY, e_j=ENERGY, e_l=ENERGY,
       f_s=FLUX)
# the gate time t' = omega1 t / omega0 overflowed float and numpy warned
@example(command="trotter", e_c=None, e_j=1e300, e_l=5.17886799e-315, f_s=-0.08826918721646715)
def test_circuit_keys_give_an_artifact_or_one_classified_line(command, e_c, e_j, e_l, f_s):
    argv = [command, *CIRCUIT_COMMANDS[command]]
    for key, value in (("e_c", e_c), ("e_j", e_j), ("e_l", e_l), ("f_s", f_s)):
        if value is not None:
            argv += ["--set", f"circuit.{key}={value!r}"]
    _artifact_or_one_classified_line(argv)


# the text of a value of each field type of RunConfig: floats of either sign
# from subnormals to near overflow, infinities and NaN among them
FLOAT = st.one_of(
    st.floats(),
    st.builds(lambda sign, m, e: sign * min(m * 10.0**e, 1.7e308), st.sampled_from([1.0, -1.0]),
              st.floats(1.0, 10.0), st.integers(-323, 308)),
).map(repr)
BY_TYPE = {
    "float": FLOAT,
    "float | None": st.one_of(FLOAT, st.just("none")),
    "int": st.integers(-1, 10**9).map(str),
    "bool": st.sampled_from(["true", "false"]),
    "str": st.sampled_from(["matched", "swapped", "neither"]),
    "tuple[float, ...]": st.lists(FLOAT, min_size=1, max_size=3).map(", ".join),
}
# the keys whose work grows with their value are drawn small
BOUNDED = {
    "numerics.dim": st.integers(2, 8).map(str),
    "sweep.fs_steps": st.integers(2, 4).map(str),
    "run.t_steps": st.integers(2, 4).map(str),
    "numerics.convergence_tol": st.floats(1e-6, 1.7e308).map(repr),
}


def _admitted(f):
    """The text of the values that the row of field ``f`` admits, or None (unset)."""
    _, parse, *_, checks = KNOWN_KEYS[f.metadata["key"]]
    draws = BOUNDED.get(f.metadata["key"], BY_TYPE[f.type])
    return st.none() | draws.filter(lambda text: all(ok(parse(text)) for _, ok in checks))


# every key but the circuit keys (drawn above) and output.path
OTHER_KEYS = st.fixed_dictionaries({
    f.metadata["key"]: _admitted(f)
    for f in fields(RunConfig)
    if not f.metadata["key"].startswith(("circuit.", "output."))
})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(CIRCUIT_COMMANDS)), values=OTHER_KEYS)
def test_other_keys_give_an_artifact_or_one_classified_line(command, values):
    argv = [command, *CIRCUIT_COMMANDS[command]]
    for key, text in values.items():
        if text is not None:
            argv += ["--set", f"{key}={text}"]
    _artifact_or_one_classified_line(argv)
