"""The spectrum sweep runs its flux points on every CPU.

``cmd_spectrum`` hands contiguous, ascending chunks of its grid to
``_parallel.map_points``, and solves the stable points of each chunk as
one stack (``circuit.converged_spectra``): the calling thread plus one
helper per further CPU, with OpenBLAS pinned to one thread for the whole
sweep and its count restored afterwards.  A failing sweep raises what the
serial loop raised, the error of the lowest failing grid index and, within
a point, of its full solve before its quartic one, because a chunk that
raises is solved again one point at a time.  A machine where OpenBLAS
cannot be pinned runs the same loop on one thread with the same bytes.  Importing
the package before numpy shortens OpenBLAS's idle spin, so its worker does
not hold a CPU once a call returns.

``cli.main`` runs every command whose arrays go through OpenBLAS
(``spectrum``, ``trotter``, ``selftest``) under one OpenBLAS thread and
restores the count afterwards, whatever the exit code.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from fluxsqueeze import _parallel, circuit, cli, gates
from fluxsqueeze import selftest as selftest_module
from fluxsqueeze.circuit import converged_spectra, converged_spectrum
from fluxsqueeze.config import RunConfig
from fluxsqueeze.errors import ConvergenceError, ParameterError, StabilityError
from fluxsqueeze.physics import CircuitParams

SRC = str(Path(__file__).resolve().parents[1] / "src")
SPECTRUM_DIGEST = "2da70ae751fe6c3e"


@pytest.fixture
def two_blas_threads():
    """OpenBLAS at two threads, so that a count left at 1 shows."""
    lib = _parallel._openblas()
    if lib is None:
        pytest.skip("OpenBLAS not pinnable")
    previous = lib.get_num_threads()
    lib.set_num_threads(2)
    try:
        if lib.get_num_threads() != 2:
            pytest.skip("OpenBLAS runs one thread only")
        yield 2
    finally:
        lib.set_num_threads(previous)


def _blas_threads():
    lib = _parallel._openblas()
    return None if lib is None else lib.get_num_threads()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _recording_solver(monkeypatch):
    """Wrap ``converged_spectra`` to record the thread and the OpenBLAS
    thread count of each call."""
    seen = []

    def solver(*args, **kwargs):
        seen.append((threading.get_ident(), _blas_threads()))
        return converged_spectra(*args, **kwargs)

    monkeypatch.setattr(circuit, "converged_spectra", solver)
    return seen


def test_map_points_runs_each_item_once_under_contention(monkeypatch):
    # more workers than cores and a short switch interval, so that the
    # workers interleave often; a lost or repeated index shows in `calls`
    monkeypatch.setattr(_parallel, "_cpus", lambda: 8)
    items = list(range(3000))
    calls = [0] * len(items)
    out = []

    def fn(i):
        calls[i] += 1
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: out.append(_parallel.map_points(fn, items)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert out == [[-i for i in items]]
    assert set(calls) == {1}
    assert _parallel.map_points(fn, []) == []


def test_lowest_failing_index_decides_the_exit_code(monkeypatch, capsys):
    # the higher point fails at once and the lower one late, so with more
    # than one worker the higher failure happens first
    cfg = RunConfig()
    grid = np.linspace(cfg.fs_min, cfg.fs_max, cfg.fs_steps).tolist()
    low, high = grid[20], grid[60]
    canned = converged_spectrum(CircuitParams(cfg.e_c, cfg.e_j, cfg.e_l, cfg.f_s))

    def solver(ps, *args, **kwargs):
        fluxes = {p.f_s for p in ps}
        if low in fluxes:
            time.sleep(0.2)
            raise ConvergenceError("lower point")
        if high in fluxes:
            raise StabilityError("higher point")
        return [canned] * len(ps)

    monkeypatch.setattr(_parallel, "_cpus", lambda: 4)
    monkeypatch.setattr(circuit, "converged_spectra", solver)
    assert cli.main(["spectrum"]) == ConvergenceError.exit_code
    err = capsys.readouterr().err
    assert err == "convergence error: lower point\n"


def test_a_failing_chunk_raises_what_the_serial_loop_raises(monkeypatch, capsys):
    # grid points 20 and 21 share a stack; the stacked full solve meets the
    # failure of point 21 first, but the serial loop fails at point 20's
    # quartic solve, and the chunk solved again point by point says so
    cfg = RunConfig()
    grid = cli.linspace(cfg.fs_min, cfg.fs_max, cfg.fs_steps)
    size = circuit.stack_points(cfg.dim)
    assert 20 // size == 21 // size
    canned = converged_spectrum(CircuitParams(cfg.e_c, cfg.e_j, cfg.e_l, cfg.f_s))

    def solver(ps, dim, builder, **kwargs):
        fluxes = {p.f_s for p in ps}
        if builder is circuit.full_hamiltonian and grid[21] in fluxes:
            raise StabilityError("full at point 21")
        if builder is circuit.quartic_hamiltonian and grid[20] in fluxes:
            raise ConvergenceError("quartic at point 20")
        return [canned] * len(ps)

    monkeypatch.setattr(circuit, "converged_spectra", solver)
    assert cli.main(["spectrum"]) == ConvergenceError.exit_code
    assert capsys.readouterr().err == "convergence error: quartic at point 20\n"


def test_threaded_sweep_builds_each_basis_once(monkeypatch):
    # dim 24 doubles to 48 at some points, so three bases are built
    monkeypatch.setattr(_parallel, "_cpus", lambda: 4)
    circuit._cached_terms.cache_clear()
    cli.cmd_spectrum(RunConfig(dim=24, fs_steps=21))
    assert circuit._cached_terms.cache_info().misses == 3


def test_sweep_pins_blas_and_restores_its_count(monkeypatch, two_blas_threads):
    seen = _recording_solver(monkeypatch)
    monkeypatch.setattr(_parallel, "_cpus", lambda: 2)
    assert _digest(cli.cmd_spectrum(RunConfig())) == SPECTRUM_DIGEST
    assert {count for _, count in seen} == {1}
    assert _blas_threads() == two_blas_threads


def test_failing_sweep_restores_the_blas_count(monkeypatch, two_blas_threads):
    def solver(*args, **kwargs):
        raise ConvergenceError("no rung")

    monkeypatch.setattr(circuit, "converged_spectra", solver)
    with pytest.raises(ConvergenceError):
        cli.cmd_spectrum(RunConfig())
    assert _blas_threads() == two_blas_threads


@pytest.mark.parametrize("limit", ["not pinnable", "one cpu"])
def test_serial_sweep_writes_the_same_bytes(monkeypatch, limit):
    if limit == "not pinnable":
        monkeypatch.setattr(_parallel, "_openblas", lambda: None)
    else:
        monkeypatch.setattr(_parallel, "_cpus", lambda: 1)
    seen = _recording_solver(monkeypatch)
    assert _digest(cli.cmd_spectrum(RunConfig())) == SPECTRUM_DIGEST
    assert {thread for thread, _ in seen} == {threading.get_ident()}


def test_cli_import_brings_no_thread_pool_module():
    # the sweep's threading and ctypes come with numpy; a thread-pool
    # module would add to every command's start-up
    script = (
        "import sys, numpy; before = set(sys.modules); import fluxsqueeze.cli; "
        "new = set(sys.modules) - before; "
        "assert {'threading', 'ctypes'} <= before, 'numpy no longer loads them'; "
        "assert 'concurrent.futures' not in new, sorted(new)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr


def test_gates_import_brings_no_circuit_or_config():
    # gates reaches the closed forms through physics, so trotter loads
    # neither the Hamiltonian builders nor the config tables with it
    script = (
        "import sys, fluxsqueeze.gates; "
        "loaded = {'fluxsqueeze.circuit', 'fluxsqueeze.config'} & set(sys.modules); "
        "assert not loaded, sorted(loaded)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr


# reports, as JSON, OPENBLAS_THREAD_TIMEOUT after the imports in argv[1],
# whether OpenBLAS is reachable, and which other threads read state R in
# three looks 20, 25 and 30 ms after the imports
IDLE_SCRIPT = """
import json, os, sys, threading, time
exec(sys.argv[1])
from fluxsqueeze import _parallel
looks = []
for _ in range(3):
    time.sleep(0.02 if not looks else 0.005)
    running = []
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != threading.get_native_id():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                stat = fh.read()
            if stat[stat.rindex(")") + 2] == "R":
                running.append(tid)
    looks.append(running)
print(json.dumps({"timeout": os.environ.get("OPENBLAS_THREAD_TIMEOUT"),
                  "pinnable": _parallel._openblas() is not None, "looks": looks}))
"""


def _idle_run(imports: str, **env) -> dict:
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    proc = subprocess.run(
        [sys.executable, "-c", IDLE_SCRIPT, imports],
        capture_output=True,
        text=True,
        env={**base, "PYTHONPATH": SRC, **env},
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    if not record["pinnable"]:
        pytest.skip("OpenBLAS not reachable")
    return record


def test_blas_worker_sleeps_soon_after_import():
    # at OpenBLAS's default idle timeout the worker still spins (state R)
    # about 80 ms after numpy loads; under the package's it sleeps after
    # about 0.3 ms, so one of three looks finds no other thread running;
    # `import fluxsqueeze` alone loads no numpy, and circuit does
    record = _idle_run("from fluxsqueeze import circuit")
    assert record["timeout"] == "20"
    assert [] in record["looks"], record["looks"]


def test_user_blas_idle_timeout_is_kept():
    assert _idle_run("import fluxsqueeze", OPENBLAS_THREAD_TIMEOUT="28")["timeout"] == "28"


def test_numpy_imported_first_leaves_the_environment():
    # OpenBLAS has read its environment by then, so the package sets nothing
    assert _idle_run("import numpy, fluxsqueeze")["timeout"] is None


# each array command, and a function it calls inside main's pin: the
# spectrum sweep's own pin is inside map_points, so spectrum is seen
# before it
ARRAY_COMMANDS = {
    "spectrum": (["spectrum", "--fs-steps", "3"], _parallel, "map_points"),
    "trotter": (["trotter", "--set", "run.t_steps=3"], gates, "trotter_squeeze"),
    "selftest": (["selftest"], selftest_module, "run_selftest"),
}


@pytest.mark.parametrize("command", list(ARRAY_COMMANDS))
@pytest.mark.parametrize(
    "error, code",
    [(None, cli.EXIT_OK), (ParameterError, ParameterError.exit_code),
     (StabilityError, StabilityError.exit_code), (ConvergenceError, ConvergenceError.exit_code)],
    ids=["exit0", "exit2", "exit3", "exit4"],
)
def test_array_commands_run_on_one_blas_thread(
    monkeypatch, tmp_path, two_blas_threads, command, error, code
):
    argv, module, name = ARRAY_COMMANDS[command]
    original = getattr(module, name)
    seen = []

    def recording(*args, **kwargs):
        seen.append(_blas_threads())
        if error is not None:
            raise error("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    assert cli.main([*argv, "--out", str(tmp_path / "artifact")]) == code
    assert seen == [1]
    assert _blas_threads() == two_blas_threads
