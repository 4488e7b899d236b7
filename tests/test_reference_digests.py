"""Byte identity of the five default-flag CLI artifacts.

Each command runs at its default flags through ``cli.main`` and the
sha256 prefix of what it writes is compared with ``REFERENCE_DIGESTS``
of ``perfbench/workloads.py``, the constants the benchmark checks too.
The digests were recorded on one machine (2 vCPU, numpy 2.4.6,
OpenBLAS 0.3.31); another BLAS or CPU may round the last printed digit
differently, in which case these tests fail without a defect in the
package.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from fluxsqueeze.cli import main

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)
REFERENCE_DIGESTS = _workloads.REFERENCE_DIGESTS


@pytest.mark.parametrize("command", ["spectrum", "trotter", "amplify", "coupling", "selftest"])
def test_default_artifact_matches_reference_digest(tmp_path, command):
    out = tmp_path / f"{command}.out"
    assert main([command, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()[:16]
    assert digest == REFERENCE_DIGESTS[command]
