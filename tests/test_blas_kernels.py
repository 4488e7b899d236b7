"""Default-flag digests under OpenBLAS kernels other than the native one.

The reference digests hold for the kernel OpenBLAS picks on the machine
they were recorded on (SkylakeX, AVX-512).  ``OPENBLAS_CORETYPE`` makes
it pick another, and ``spectrum``, ``trotter`` and ``selftest`` then
round a few cells differently in their last digits; the digests below
were recorded that way on the same machine (2 vCPU, numpy 2.4.6,
OpenBLAS 0.3.31).  ``amplify`` and ``coupling`` make no BLAS call and
keep their native digests.  OpenBLAS reads the variable when it loads, so
each (kernel, thread count) pair runs in two fresh processes (``RUNS``);
the test is skipped where the kernel cannot be named or is not the one
requested.

Unlike the native kernel, SandyBridge rounds some products differently
at one and at two OpenBLAS threads.  The CLI runs ``spectrum``,
``trotter`` and ``selftest`` under one OpenBLAS thread whatever
``OPENBLAS_NUM_THREADS`` says, so each kernel's digests are checked with
the variable at 1 and at 2.  The flux-free terms that every command
shares are built under one thread as well, so a command writes the same
bytes in a fresh process and after another command in the same one.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)
NATIVE = _workloads.REFERENCE_DIGESTS

KERNEL_DIGESTS = {
    "Haswell": {
        "spectrum": "6537e5aa2e8c5591",
        "trotter": "49d5fb8abfc329bc",
        "selftest": "0aff78951794db53",
    },
    "SandyBridge": {
        "spectrum": "69a4101a0ed3fa8e",
        "trotter": "be0123bcaf615917",
        "selftest": "31357e88e4eea415",
    },
}

# runs the default-flag commands of argv[2:] in one process, writing each
# to argv[1], and prints the kernel and the artifact digests, as JSON
SCRIPT = """
import hashlib, json, sys
from fluxsqueeze import _parallel
from fluxsqueeze.cli import main
out, commands = sys.argv[1], sys.argv[2:]
digests = []
for command in commands:
    assert main([command, "--out", out]) == 0
    with open(out, "rb") as fh:
        digests.append(hashlib.sha256(fh.read()).hexdigest()[:16])
print(json.dumps({"core": _parallel.core_name(), "digests": digests}))
"""


# the two processes of each (kernel, threads) pair.  The first runs
# selftest fresh, then three commands that read none of the caches it
# fills; the second runs spectrum fresh, then selftest on the term cache
# that the sweep filled.
RUNS = (("selftest", "trotter", "amplify", "coupling"), ("spectrum", "selftest"))


def _run(out, kernel, threads, commands):
    """The kernel OpenBLAS picked and each command's artifact digest."""
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_CORETYPE": kernel,
        "OPENBLAS_NUM_THREADS": threads,
    }
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(out), *commands],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    return record["core"], dict(zip(commands, record["digests"]))


@pytest.fixture(scope="module")
def kernel_runs(tmp_path_factory):
    """``runs(kernel, threads)``: the digests of both ``RUNS``, each
    process started once per module; skips where the kernel is not used."""
    cache = {}

    def runs(kernel, threads):
        if (kernel, threads) not in cache:
            out = tmp_path_factory.mktemp("kernel") / "artifact.out"
            cache[kernel, threads] = [_run(out, kernel, threads, commands) for commands in RUNS]
        records = cache[kernel, threads]
        # OpenBLAS spells some names in its own case ("Sandybridge")
        for core, _ in records:
            if core is None or core.lower() != kernel.lower():
                pytest.skip(f"OpenBLAS kernel {core!r}, not {kernel}")
        return [digests for _, digests in records]

    return runs


THREADS = ["1", "2"]


@pytest.mark.parametrize("command", list(NATIVE))
@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("kernel", list(KERNEL_DIGESTS))
def test_kernel_digest(kernel_runs, kernel, threads, command):
    # each command as the first of its process, or after selftest only
    first, second = kernel_runs(kernel, threads)
    digest = second[command] if command == "spectrum" else first[command]
    assert digest == KERNEL_DIGESTS[kernel].get(command, NATIVE[command])


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("kernel", list(KERNEL_DIGESTS))
def test_selftest_after_spectrum_writes_fresh_process_bytes(kernel_runs, kernel, threads):
    # the sweep fills the shared term cache that selftest then reads
    _, second = kernel_runs(kernel, threads)
    assert second == {
        "spectrum": KERNEL_DIGESTS[kernel]["spectrum"],
        "selftest": KERNEL_DIGESTS[kernel]["selftest"],
    }
