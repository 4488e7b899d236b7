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

Unlike the native kernel, SandyBridge rounds ``spectrum`` and ``selftest``
differently at one and at two OpenBLAS threads; the digests were recorded
at two, which each process is given.  The spectrum sweep runs
under one OpenBLAS thread, so its SandyBridge digest is the one-thread
value, and one process that runs ``selftest`` after ``spectrum`` reuses
the flux-free terms the sweep built and prints the one-thread selftest;
hence one process per command.
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
        "selftest": "278159688e425f79",
    },
}

# prints the kernel and the digest of one default-flag artifact, as JSON
SCRIPT = """
import hashlib, json, sys
from fluxsqueeze import _parallel
from fluxsqueeze.cli import main
command, out = sys.argv[1:]
assert main([command, "--out", out]) == 0
with open(out, "rb") as fh:
    digest = hashlib.sha256(fh.read()).hexdigest()[:16]
print(json.dumps({"core": _parallel.core_name(), "digest": digest}))
"""


@pytest.mark.parametrize("command", list(NATIVE))
@pytest.mark.parametrize("kernel", list(KERNEL_DIGESTS))
def test_kernel_digest(tmp_path, kernel, command):
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_CORETYPE": kernel,
        "OPENBLAS_NUM_THREADS": "2",
    }
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, command, str(tmp_path / "artifact.out")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    # OpenBLAS spells some names in its own case ("Sandybridge")
    if record["core"] is None or record["core"].lower() != kernel.lower():
        pytest.skip(f"OpenBLAS kernel {record['core']!r}, not {kernel}")
    assert record["digest"] == KERNEL_DIGESTS[kernel].get(command, NATIVE[command])
