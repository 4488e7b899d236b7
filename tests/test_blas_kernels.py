"""Default-flag digests under OpenBLAS kernels other than the native one.

The reference digests hold for the kernel OpenBLAS picks on the machine
they were recorded on (SkylakeX, AVX-512).  ``OPENBLAS_CORETYPE`` makes
it pick another, and ``spectrum``, ``trotter`` and ``selftest`` then
round a few cells differently in their last digits; the digests below
were recorded that way on the same machine (2 vCPU, numpy 2.4.6,
OpenBLAS 0.3.31).  ``amplify`` and ``coupling`` make no BLAS call and
keep their native digests.  Each command runs in a fresh process, because
OpenBLAS reads the variable when it loads; the test is skipped where the
kernel cannot be named or is not the one requested.

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


def _digests(tmp_path, kernel, threads, commands):
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_CORETYPE": kernel,
        "OPENBLAS_NUM_THREADS": threads,
    }
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "artifact.out"), *commands],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    # OpenBLAS spells some names in its own case ("Sandybridge")
    if record["core"] is None or record["core"].lower() != kernel.lower():
        pytest.skip(f"OpenBLAS kernel {record['core']!r}, not {kernel}")
    return record["digests"]


THREADS = ["1", "2"]


@pytest.mark.parametrize("command", list(NATIVE))
@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("kernel", list(KERNEL_DIGESTS))
def test_kernel_digest(tmp_path, kernel, threads, command):
    [digest] = _digests(tmp_path, kernel, threads, [command])
    assert digest == KERNEL_DIGESTS[kernel].get(command, NATIVE[command])


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("kernel", list(KERNEL_DIGESTS))
def test_selftest_after_spectrum_writes_fresh_process_bytes(tmp_path, kernel, threads):
    # the sweep fills the shared term cache that selftest then reads
    assert _digests(tmp_path, kernel, threads, ["spectrum", "selftest"]) == [
        KERNEL_DIGESTS[kernel]["spectrum"],
        KERNEL_DIGESTS[kernel]["selftest"],
    ]
