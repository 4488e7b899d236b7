"""The package and the CLI start without numpy.

``import fluxsqueeze`` and ``import fluxsqueeze.cli`` load no numpy: the
package resolves its exports on first access, and the CLI imports numpy
and the array modules inside the commands that compute arrays.  So
``amplify``, ``coupling``, ``--help``, ``--version`` and every
configuration error run without it.  Each case runs in a fresh interpreter, where an import made
by an earlier test cannot hide one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every name the package exports, with the module that defines it
EXPORTS = {
    **dict.fromkeys(["circuit", "coupling", "errors", "gates", "operators"], None),
    **dict.fromkeys(
        [
            "AmplificationRow", "CircuitParams", "CouplingGeometry", "EffectiveParams",
            "NVParams", "ReducedParams", "amplification_sweep", "bare_coupling",
            "bare_coupling_si", "biot_savart_b0", "cos_pi", "default_geometry",
            "effective_josephson", "effective_params", "reduced_params", "stability",
        ],
        "physics",
    ),
    **dict.fromkeys(
        [
            "Spectrum", "anharmonicity", "converged_spectrum", "full_hamiltonian",
            "harmonic_hamiltonian", "quartic_hamiltonian", "spectrum",
        ],
        "circuit",
    ),
    **dict.fromkeys(["conjugate_hamiltonian", "total_hamiltonian"], "coupling"),
    **dict.fromkeys(
        [
            "ConvergenceError", "DegenerateSpectrumError", "GeometryError",
            "InvalidDimensionError", "ParameterError", "SimulationError", "StabilityError",
            "TruncationLeakError", "TruncationLeakWarning", "WrongRegimeError",
        ],
        "errors",
    ),
    **dict.fromkeys(
        [
            "GateSchedule", "SqueezeResult", "analytic_us", "gate_distance", "gate_u0",
            "gate_u1", "make_schedule", "squeeze_operator", "trotter_squeeze",
        ],
        "gates",
    ),
    **dict.fromkeys(
        [
            "FockSpace", "SU11Generators", "annihilation", "exp_normal",
            "hermitian_eig", "make_fock_space", "phase_charge_operators", "su11_generators",
            "su11_generators_2x2",
        ],
        "operators",
    ),
}


def _run(script: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# argv[1] is run, then whether numpy is loaded is printed
NUMPY_LOADED = """
import sys
exec(sys.argv[1])
print("numpy" in sys.modules)
"""


def _cli(argv: list, code: int) -> str:
    return f"from fluxsqueeze import cli\ncode = cli.main({argv!r})\nassert code == {code}, code"


@pytest.mark.parametrize(
    "statement",
    [
        "import fluxsqueeze",
        "import fluxsqueeze.cli",
        "from fluxsqueeze import CircuitParams, bare_coupling, errors",
        "from fluxsqueeze import AmplificationRow, amplification_sweep",
        _cli(["amplify", "--out", "OUT"], 0),
        _cli(["amplify", "--two-pi", "--out", "OUT"], 0),
        _cli(["coupling", "--out", "OUT"], 0),
        _cli(["--version"], 0),
        _cli(["--help"], 0),
        _cli(["spectrum", "--help"], 0),
        _cli(["spectrum", "--fs-steps", "1"], 2),
    ],
    ids=[
        "package", "cli", "scalar-exports", "gain-exports", "amplify", "amplify-two-pi",
        "coupling", "version", "help", "command-help", "config-error",
    ],
)
def test_starts_without_numpy(tmp_path, statement):
    statement = statement.replace("OUT", str(tmp_path / "report.json"))
    assert _run(NUMPY_LOADED, statement).splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "command", [["spectrum", "--fs-steps", "2"], ["trotter"], ["selftest"]]
)
def test_array_commands_load_numpy(tmp_path, command):
    statement = _cli([*command, "--out", str(tmp_path / "artifact")], 0)
    assert _run(NUMPY_LOADED, statement).splitlines()[-1] == "True"


# resolves every export through the package before any module is imported
# directly, then reports each name whose object differs from the one its
# module held before, or from its defining module's
EXPORT_SCRIPT = """
import importlib, json, sys
import fluxsqueeze
expected = json.loads(sys.argv[1])
got = {name: getattr(fluxsqueeze, name) for name in expected}
bad = []
for name, module in expected.items():
    obj = got[name]
    if module is None:
        same = obj is sys.modules[f"fluxsqueeze.{name}"]
    else:
        defining = sys.modules[obj.__module__]
        same = obj is getattr(importlib.import_module(f"fluxsqueeze.{module}"), name)
        same = same and getattr(defining, name) is obj
    if not same:
        bad.append(name)
print(json.dumps({"all": fluxsqueeze.__all__, "dir": dir(fluxsqueeze), "bad": bad}))
"""


def test_exports_are_the_same_objects():
    record = json.loads(_run(EXPORT_SCRIPT, json.dumps(EXPORTS)))
    assert sorted(record["all"]) == sorted(EXPORTS)
    assert len(record["all"]) == 58
    assert set(EXPORTS) <= set(record["dir"])
    assert record["bad"] == []


def test_unknown_export_raises_attribute_error():
    import fluxsqueeze

    with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
        fluxsqueeze.not_an_export


def test_closed_forms_have_one_import_path():
    # physics is the one home of the closed forms; circuit and coupling keep
    # only the names that perfbench reads through them
    from fluxsqueeze import circuit, coupling, physics

    for module, names in [
        (circuit, ["CircuitParams"]),
        (coupling, ["ZERO_FIELD_SPLITTING_GHZ", "NVParams", "bare_coupling", "default_geometry",
                    "effective_params", "amplification_sweep"]),
    ]:
        for name in names:
            assert getattr(module, name) is getattr(physics, name), name
    assert not hasattr(coupling, "H_PLANCK")
    assert not hasattr(circuit, "reduced_params")


# the kernel OpenBLAS reports, after the imports in argv[1]
CORE_SCRIPT = """
import sys
exec(sys.argv[1])
from fluxsqueeze import _parallel
print(_parallel.core_name(), "numpy" in sys.modules)
"""


def test_openblas_is_found_before_numpy_loads():
    # _openblas is cached for the process: a lookup that ran before numpy
    # loaded and cached None would leave the sweep serial for good
    numpy_first = _run(CORE_SCRIPT, "import numpy").split()
    package_first = _run(CORE_SCRIPT, "import fluxsqueeze").split()
    assert package_first == numpy_first
    assert numpy_first[1] == "True"
