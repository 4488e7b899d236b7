"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -rA``).

Expected values marked "oracle" are computed here with self-contained
numerics (raw ladder matrices and dense eigensolves, no package
builders) so the package path is checked against an independent route.

Two anchor tests are known to fail and are kept failing on purpose:
criterion 1 (the converged gap is 1.60036 GHz, 0.0004 GHz outside the
pinned 1.5 +/- 0.1 window) and the first clause of criterion 4 (the
interleaved-product deviation passes 0.02 near t = 1.5 ns and reaches
~157 by t = 15 at M = 100).  The measured values are asserted against
the pinned windows verbatim rather than against what the code produces;
see the test docstrings.
"""

import math
import time

import numpy as np
import pytest

from fluxsqueeze.circuit import (
    anharmonicity,
    full_hamiltonian,
    harmonic_hamiltonian,
    quartic_hamiltonian,
    spectrum,
)
from fluxsqueeze.config import RunConfig
from fluxsqueeze.coupling import (
    conjugate_hamiltonian,
    project_coupling_coefficients,
    squeeze_on_product,
    total_hamiltonian,
)
from fluxsqueeze.gates import analytic_us, gate_distance, squeeze_operator, trotter_squeeze
from fluxsqueeze.operators import make_fock_space
from fluxsqueeze.physics import (
    CircuitParams,
    CouplingGeometry,
    NVParams,
    amplification_sweep,
    bare_coupling,
    bare_coupling_si,
    effective_params,
    reduced_params,
)
from fluxsqueeze.selftest import run_selftest

E_C, E_J, E_L = 0.12, 58.0, 58.6
FIG2 = dict(e_c=E_C, e_j=E_J, e_l=E_L)

# golden value frozen from the dim=120 oracle below (stable to 1e-9
# against dim=240): largest relative gap deviation on the 50-point grid
GOLDEN_MAX_GAP_DEVIATION = 4.249198750427e-03


def _report(num: int, name: str, passed: bool, detail: str):
    print(f"[criterion {num}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")


# ----------------------------------------------------------------- oracle --
# self-contained dense numerics, intentionally not using the package


def oracle_hamiltonians(f_s: float, dim: int):
    ej = 2.0 * E_J * (0.0 if f_s == 0.5 else math.cos(math.pi * f_s))
    omega0 = 2.0 * math.sqrt(E_C * E_L)
    a = np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)
    ad = a.conj().T
    x = math.sqrt(E_C / omega0)
    phi = x * (a + ad)
    n = 1j * math.sqrt(omega0 / (4.0 * E_C)) * (ad - a)
    w, v = np.linalg.eigh(phi)
    cos_phi = (v * np.cos(w)) @ v.conj().T
    phi2 = phi @ phi
    h_full = E_C * (n @ n) - ej * cos_phi + E_L * phi2
    h_quartic = E_C * (n @ n) + 0.5 * (2.0 * E_L + ej) * phi2 - ej / 24.0 * (phi2 @ phi2)
    return h_full, h_quartic


def oracle_gaps(f_s: float, dim: int):
    h_full, h_quartic = oracle_hamiltonians(f_s, dim)
    wf = np.linalg.eigvalsh(h_full)
    wq = np.linalg.eigvalsh(h_quartic)
    return wf[1] - wf[0], wq[1] - wq[0]


# -------------------------------------------------------------- criteria --


def test_criterion_1_spectrum_anchor():
    """Anchor window 1.5 +/- 0.1 GHz for the full-Hamiltonian gap at f_s = 0.9.

    Known failing: the converged gap is 1.600362 GHz (confirmed by the
    independent grid oracle and by truncations 60/120/240 agreeing to
    nine digits), 0.0004 GHz outside the pinned window.  The quadratic
    mean-field reduction at the same flux gives 1.5254 GHz, inside the
    window, which is what the 1.5 GHz figure describes.
    """
    p = CircuitParams(f_s=0.9, **FIG2)
    e01 = spectrum(full_hamiltonian(p, make_fock_space(60))).e01
    oracle_e01, _ = oracle_gaps(0.9, 120)
    assert e01 == pytest.approx(oracle_e01, abs=1e-9)
    passed = abs(e01 - 1.5) <= 0.1
    _report(1, "spectrum anchor", passed, f"E01(0.9) = {e01:.6f} GHz, window 1.4..1.6")
    assert passed, f"E01 = {e01:.6f} GHz misses the 1.5 +/- 0.1 GHz window"


def test_criterion_2_approximation_fidelity():
    grid = np.linspace(0.5, 0.95, 50)
    space = make_fock_space(60)
    worst = 0.0
    for f_s in grid:
        p = CircuitParams(f_s=float(f_s), **FIG2)
        e_full = spectrum(full_hamiltonian(p, space)).e01
        e_quartic = spectrum(quartic_hamiltonian(p, space)).e01
        worst = max(worst, abs(e_quartic - e_full) / e_full)
    # brute-force oracle at doubled truncation reproduces the frozen value
    oracle_worst = max(
        abs(eq - ef) / ef
        for ef, eq in (oracle_gaps(float(f_s), 120) for f_s in grid)
    )
    assert oracle_worst == pytest.approx(GOLDEN_MAX_GAP_DEVIATION, rel=1e-6)
    assert worst == pytest.approx(oracle_worst, rel=1e-6)
    passed = worst < 0.05
    _report(2, "approximation fidelity", passed, f"max rel gap deviation = {worst:.3e}")
    assert passed


def test_criterion_3_harmonic_point():
    p = CircuitParams(f_s=0.5, **FIG2)
    space = make_fock_space(60)
    h_full = full_hamiltonian(p, space)
    h_quartic = quartic_hamiltonian(p, space)
    h_harm = harmonic_hamiltonian(p, space)
    identical = np.array_equal(h_full, h_harm) and np.array_equal(
        h_quartic, h_harm
    )
    s_full = spectrum(h_full)
    s_quartic = spectrum(h_quartic)
    alpha_ok = abs(anharmonicity(s_full)) < 1e-9 and abs(anharmonicity(s_quartic)) < 1e-9
    omega0 = 2.0 * math.sqrt(E_C * E_L)
    gap_ok = abs(s_full.e01 - omega0) < 1e-6
    assert omega0 == pytest.approx(5.304, abs=5e-4)
    passed = identical and alpha_ok and gap_ok
    _report(
        3,
        "harmonic point",
        passed,
        f"identical={identical}, |alpha|<1e-9={alpha_ok}, |E01-omega0|={abs(s_full.e01 - omega0):.2e}",
    )
    assert passed


def test_criterion_4_trotter_agreement_window():
    """Element deviation below 0.02 for every t with t/M <= 0.15 at M = 100.

    Known failing: the first-order product error grows as t^2/M amplified
    by the hyperbolic growth of the propagator; the 0.02 bound holds for
    t up to about 1.5 ns and the deviation reaches ~1.6e2 at t = 15 ns
    (where the matrix elements themselves are ~6.8e2).
    """
    p = CircuitParams(f_s=0.9, **FIG2)
    worst = 0.0
    worst_t = 0.0
    for t in np.linspace(0.0, 15.0, 151):
        dev = gate_distance(
            trotter_squeeze(p, float(t), 100, "2x2"), analytic_us(p, float(t), "2x2")
        )
        if dev > worst:
            worst, worst_t = dev, float(t)
    passed = worst < 0.02
    _report(
        4,
        "product-formula agreement window",
        passed,
        f"max deviation {worst:.3e} at t = {worst_t:.2f} ns (bound 0.02)",
    )
    assert passed, f"max element deviation {worst:.3e} exceeds 0.02"


def test_criterion_4_trotter_monotone_convergence():
    p = CircuitParams(f_s=0.9, **FIG2)
    us = analytic_us(p, 5.0, "2x2")
    devs = [
        gate_distance(trotter_squeeze(p, 5.0, m, "2x2"), us)
        for m in (8, 16, 32, 64, 128, 256, 512, 1024)
    ]
    passed = all(b < a + 1e-12 for a, b in zip(devs, devs[1:]))
    _report(
        4,
        "product-formula monotone convergence",
        passed,
        f"deviation halves from {devs[0]:.3e} (M=8) to {devs[-1]:.3e} (M=1024)",
    )
    assert passed


def test_criterion_5_squeezing_operator_equivalence():
    p = CircuitParams(f_s=0.9, **FIG2)
    eta1 = reduced_params(p).eta1
    worst = 0.0
    for eta2 in (0.1, 0.24, 1.0):
        t = eta2 / (-eta1)
        for k in (0, 1, 2):
            res = squeeze_operator(p, t, k=k, rep="2x2", backend="analytic")
            assert res.eta2 == pytest.approx(eta2, rel=1e-12)
            worst = max(worst, res.residual)
    passed = worst < 1e-10
    _report(5, "squeezing-operator equivalence", passed, f"max residual = {worst:.3e}")
    assert passed


def test_criterion_6_conjugation_vs_closed_form():
    dim = 96
    eta2 = 0.2
    p = CircuitParams(f_s=0.5, **FIG2)
    space = make_fock_space(dim)
    g = 1.4e-5
    nv = NVParams(zeeman=2.87 - p.omega0)
    h_tot = total_hamiltonian(p, nv, g, space)
    h_eff = conjugate_hamiltonian(squeeze_on_product(space, eta2), h_tot)
    eff = effective_params(p, g, eta2)

    coeffs = project_coupling_coefficients(h_eff, space, n_interior=dim // 3)
    rel = max(
        abs(coeffs["number"] - eff.omega_eff) / eff.omega_eff,
        abs(coeffs["pair"] - eff.chi) / eff.chi,
        abs(coeffs["coupling"] - eff.g_eff) / eff.g_eff,
    )

    # independent oracle: read the same coefficients off individual
    # matrix elements of the transformed Hamiltonian (spin-fast index)
    m = h_eff
    omega_eff_oracle = (m[4, 4] - m[2, 2]).real
    chi_oracle = (m[0, 4] / math.sqrt(2.0)).real
    g_eff_oracle = m[0, 3].real
    rel_oracle = max(
        abs(omega_eff_oracle - eff.omega_eff) / eff.omega_eff,
        abs(chi_oracle - eff.chi) / eff.chi,
        abs(g_eff_oracle - eff.g_eff) / eff.g_eff,
    )

    passed = rel < 1e-6 and rel_oracle < 1e-6
    _report(
        6,
        "conjugation vs closed form",
        passed,
        f"projected rel err = {rel:.3e}, element-oracle rel err = {rel_oracle:.3e}",
    )
    assert passed


def test_criterion_7_coupling_order_of_magnitude():
    p = CircuitParams(f_s=0.5, **FIG2)
    geom = CouplingGeometry(edge_length=10e-6, z_nv=0.01e-6, inductance=1.4e-9)
    g = bare_coupling(p, geom)
    g_si = bare_coupling_si(p, geom)
    g_khz = g * 1e6
    band_ok = 10.0 / 3.0 <= g_khz <= 30.0
    route_ok = abs(g_si - g) / g < 1e-10
    passed = band_ok and route_ok
    _report(
        7,
        "coupling order of magnitude",
        passed,
        f"g = {g_khz:.3f} kHz (band 3.3..30), route mismatch {abs(g_si - g) / g:.2e}",
    )
    assert passed


def test_criterion_8_amplification_endpoint():
    rows = amplification_sweep(
        e_c=E_C,
        ratios=(1.005, 1.01, 1.05, 1.1),
        t=1.0,
        fs_grid=np.linspace(0.5, 1.0, 101),
    )
    sweet = [r for r in rows if r.f_s == 0.5]
    unity_ok = all(r.gain == 1.0 for r in sweet) and len(sweet) == 4
    big = [
        r
        for r in rows
        if r.ratio == 1.005 and r.status == "ok" and r.f_s < 1.0 and r.gain >= 100.0
    ]
    passed = unity_ok and bool(big)
    best = max((r.gain for r in big), default=0.0)
    _report(
        8,
        "amplification endpoint",
        passed,
        f"unity at sweet spot: {unity_ok}; best stable gain below full flux: {best:.1f}",
    )
    assert passed


def test_criterion_9_invariant_suite():
    start = time.monotonic()
    checks, passed = run_selftest(RunConfig())
    elapsed = time.monotonic() - start
    failed = [c.name for c in checks if not c.passed]
    by_name = {c.name: c for c in checks}
    assert by_name["su11_commutators_interior"].threshold == 1e-12
    assert by_name["propagator_unitarity"].threshold == 1e-9
    assert by_name["hyperbolic_identity_moderate"].threshold == 1e-10
    assert by_name["biot_savart_symmetry"].threshold == 1e-12
    assert by_name["truncation_convergence"].threshold == 1e-6
    runtime_ok = elapsed < 120.0
    _report(
        9,
        "invariant suite",
        passed and runtime_ok,
        f"{len(checks)} checks, failed: {failed or 'none'}, {elapsed:.1f}s",
    )
    assert passed and runtime_ok
