"""Byte identity of non-default ``spectrum``, ``amplify`` and ``selftest``
artifacts.

``tests/test_reference_digests.py`` pins the five default-flag artifacts.
These variants reach what the defaults do not: other times, the angular
phase convention, unstable flux points and ratios (including the
zero-margin point at ratio 1, f_s = 1), a wider flux grid, other
truncations and working points, a spectrum sweep whose small starting
truncations double before they are accepted (dim 32 and 48 at some
points), and a selftest that fails its invariants (exit 5).  Each runs through ``cli.main`` and the sha256 prefix of what it
writes is compared with the value recorded on one machine (2 vCPU, numpy
2.4.6, OpenBLAS 0.3.31); as with the reference digests, another BLAS or
CPU may round the last printed digit differently.
"""

import hashlib

import pytest

from fluxsqueeze.cli import main

VARIANTS = {
    "spectrum --dim 40": ("47c9b1b01e9774c2", 0),
    "spectrum --dim 24 --fs-steps 21": ("ac9e058b62a36d4a", 0),
    "spectrum --dim 16 --fs-steps 21": ("b5e89847f340fe62", 0),
    "spectrum --set circuit.e_l=50 --fs-steps 41": ("321a442e06b3d9ba", 0),
    "spectrum --fs-min 0 --fs-max 1 --fs-steps 41": ("ed248df5cf6ea8e8", 0),
    "amplify --t 0.9": ("c425a4ddb7e2ca16", 0),
    "amplify --two-pi": ("5623388fccaa989e", 0),
    "amplify --fs-min 0 --fs-max 1": ("96769643ed4a51ab", 0),
    "amplify --ratios 0.5,1,2,4,8": ("af3d019f0763fd0e", 0),
    "amplify --set circuit.e_l=20": ("13d30f30eef4433a", 0),
    "amplify --fs-min -1 --fs-max 2 --fs-steps 301": ("cd9b0966833b08d6", 0),
    "selftest --dim 48": ("38641a7ba19e9a80", 0),
    "selftest --dim 30": ("2d18c84e38ba8570", 0),
    "selftest --set circuit.f_s=0.75": ("8c05e7cf25325de4", 0),
    "selftest --set circuit.f_s=0.5": ("db2d2dc5f78e5c52", 0),
    "selftest --dim 3": ("fc0e0f0984bfc2b2", 5),
}


@pytest.mark.parametrize("argv", list(VARIANTS))
def test_variant_artifact_matches_recorded_digest(tmp_path, argv):
    digest, exit_code = VARIANTS[argv]
    out = tmp_path / "artifact.out"
    assert main([*argv.split(), "--out", str(out)]) == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest
