"""Invariant battery behind the ``selftest`` CLI command.

Each check returns its measured value and threshold so the JSON report
is auditable; any failure flips the process exit status.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import circuit, coupling, gates, operators
from .config import RunConfig
from .errors import ConvergenceError


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _check(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name=name, value=float(value), threshold=float(threshold), passed=bool(value <= threshold))


def _ladder_commutator(dim: int) -> CheckResult:
    space = operators.make_fock_space(dim)
    a = operators.annihilation(space).matrix
    comm = operators.commutator(a, a.conj().T)
    res = np.abs(operators.interior(comm - np.eye(dim), dim - 1)).max()
    return _check("ladder_commutator_interior", res, 1e-12)


def _su11_commutators(dim: int) -> CheckResult:
    space = operators.make_fock_space(dim)
    g = operators.su11_generators(space)
    g1, g2, g3 = g.gamma1.matrix, g.gamma2.matrix, g.gamma3.matrix
    n_int = dim - 2
    res = max(
        np.abs(operators.interior(operators.commutator(g1, g2) + 2j * g3, n_int)).max(),
        np.abs(operators.interior(operators.commutator(g2, g3) - 2j * g1, n_int)).max(),
        np.abs(operators.interior(operators.commutator(g3, g1) - 2j * g2, n_int)).max(),
    )
    return _check("su11_commutators_interior", res, 1e-12)


def _su11_2x2() -> CheckResult:
    g = operators.su11_generators_2x2()
    res = max(
        np.abs(operators.commutator(g.gamma1, g.gamma2) + 2j * g.gamma3).max(),
        np.abs(operators.commutator(g.gamma2, g.gamma3) - 2j * g.gamma1).max(),
        np.abs(operators.commutator(g.gamma3, g.gamma1) - 2j * g.gamma2).max(),
    )
    return _check("su11_commutators_2x2", res, 1e-14)


def _closed_forms_2x2() -> CheckResult:
    g = operators.su11_generators_2x2()
    eye = np.eye(2)
    worst = 0.0
    for gt in np.linspace(-5.0, 5.0, 41):
        worst = max(
            worst,
            np.abs(operators.exp_2x2(-1j * gt * g.gamma1) - (math.cosh(gt) * eye - 1j * g.gamma1 * math.sinh(gt))).max(),
            np.abs(operators.exp_2x2(-1j * gt * g.gamma2) - (math.cosh(gt) * eye - 1j * g.gamma2 * math.sinh(gt))).max(),
            np.abs(operators.exp_2x2(-1j * gt * g.gamma3) - (math.cos(gt) * eye - 1j * g.gamma3 * math.sin(gt))).max(),
        )
    return _check("closed_form_2x2_exponentials", worst, 1e-12)


def _phase_charge(dim: int, p: circuit.CircuitParams) -> CheckResult:
    space = operators.make_fock_space(dim)
    phi, n = circuit.circuit_operators(p, space)
    comm = operators.commutator(phi.matrix, n.matrix)
    res = np.abs(operators.interior(comm - 1j * np.eye(dim), dim - 2)).max()
    return _check("phase_charge_commutator_interior", res, 1e-12)


def _unitarity(p: circuit.CircuitParams, dim: int) -> CheckResult:
    space = operators.make_fock_space(dim)
    u_full = operators.evolve(circuit.full_hamiltonian(p, space), 1.0)
    u1 = gates.gate_u1(p, 1.0, "fock", space)
    eye = np.eye(dim)
    res = max(
        np.abs(u_full @ u_full.conj().T - eye).max(),
        np.abs(u1 @ u1.conj().T - eye).max(),
    )
    return _check("propagator_unitarity", res, 1e-9)


def _eigen_reconstruction(p: circuit.CircuitParams, dim: int) -> CheckResult:
    space = operators.make_fock_space(dim)
    h = circuit.full_hamiltonian(p, space)
    w, v = operators.hermitian_eig(h)
    recon = (v * w) @ v.conj().T
    scale = max(1.0, float(np.abs(h.matrix).max()))
    return _check("eigen_reconstruction", np.abs(recon - h.matrix).max() / scale, 1e-9)


def _hyperbolic_identity(p: circuit.CircuitParams) -> list[CheckResult]:
    w0 = p.omega0
    strict = 0.0
    scaled = 0.0
    for eta2 in np.linspace(-3.0, 3.0, 121):
        eff = coupling.effective_params(p, g=1.0, eta2=float(eta2))
        err = abs(eff.omega_eff**2 - 4.0 * eff.chi**2 - w0**2)
        scaled = max(scaled, err / max(w0**2, eff.omega_eff**2))
        if abs(eta2) <= 1.5:
            strict = max(strict, err / w0**2)
    return [
        _check("hyperbolic_identity_moderate", strict, 1e-10),
        _check("hyperbolic_identity_scaled", scaled, 1e-10),
    ]


def _conjugation_equivalence(p: circuit.CircuitParams) -> CheckResult:
    dim = 96
    eta2 = 0.2
    space = operators.make_fock_space(dim)
    geom = coupling.default_geometry(p)
    g = coupling.bare_coupling(p, geom)
    # Zeeman shift chosen to put the spin on resonance with the oscillator
    nv = coupling.NVParams(zeeman=coupling.ZERO_FIELD_SPLITTING_GHZ - p.omega0)
    h_tot = coupling.total_hamiltonian(p, nv, g, space)
    s = coupling.squeeze_on_product(space, eta2)
    h_eff = coupling.conjugate_hamiltonian(s, h_tot)
    coeffs = coupling.project_coupling_coefficients(h_eff, space, n_interior=dim // 3)
    eff = coupling.effective_params(p, g, eta2)
    rel = max(
        abs(coeffs["number"] - eff.omega_eff) / eff.omega_eff,
        abs(coeffs["pair"] - eff.chi) / eff.chi,
        abs(coeffs["coupling"] - eff.g_eff) / eff.g_eff,
    )
    return _check("conjugation_equivalence", rel, 1e-6)


def _biot_savart_symmetry(geom: coupling.CouplingGeometry) -> CheckResult:
    z = np.linspace(geom.edge_length * 1e-4, geom.edge_length * (1 - 1e-4), 1000)
    left = coupling.b0_profile(geom, z)
    right = coupling.b0_profile(geom, geom.edge_length - z)
    res = np.max(np.abs(left - right) / np.abs(left))
    return _check("biot_savart_symmetry", res, 1e-12)


def _truncation_convergence(p: circuit.CircuitParams, dim: int, tol: float) -> CheckResult:
    try:
        move = circuit.check_convergence(p, dim, circuit.full_hamiltonian, tol=tol)
    except ConvergenceError:
        # measure the movement anyway so the report shows how bad it is
        lo = np.linalg.eigvalsh(circuit.full_hamiltonian(p, operators.make_fock_space(dim)).matrix)[:3]
        hi = np.linalg.eigvalsh(circuit.full_hamiltonian(p, operators.make_fock_space(2 * dim)).matrix)[:3]
        move = float(np.abs(lo - hi).max())
        return CheckResult("truncation_convergence", move, tol, passed=False)
    return CheckResult("truncation_convergence", move, tol, passed=move < tol)


def _squeeze_closure(p: circuit.CircuitParams) -> list[CheckResult]:
    from dataclasses import replace

    # the closure property needs the squeezing regime; fall back to the
    # canonical detuned flux when the configured point is harmonic
    if circuit.reduced_params(p).eta1 >= 0.0:
        p = replace(p, f_s=0.9)
    r = circuit.reduced_params(p)
    worst = 0.0
    for eta2 in (0.1, 0.24, 1.0):
        t = eta2 / (-r.eta1)
        for k in (0, 1, 2):
            res = gates.squeeze_operator(p, t, k=k, rep="2x2", convention="matched")
            worst = max(worst, res.residual)
    k_results = [
        gates.squeeze_operator(p, 1.0, k=k, rep="2x2", convention="matched").s for k in (0, 1, 2)
    ]
    spread = max(
        float(np.abs(k_results[0] - k_results[1]).max()),
        float(np.abs(k_results[0] - k_results[2]).max()),
    )
    return [
        _check("squeeze_closure_2x2", worst, 1e-10),
        _check("squeeze_branch_independence", spread, 1e-10),
    ]


def _harmonic_point(p: circuit.CircuitParams, dim: int) -> list[CheckResult]:
    from dataclasses import replace

    half = replace(p, f_s=0.5)
    space = operators.make_fock_space(dim)
    h_full = circuit.full_hamiltonian(half, space)
    h_quartic = circuit.quartic_hamiltonian(half, space)
    h_harm = circuit.harmonic_hamiltonian(half, space)
    collapse = max(
        float(np.abs(h_full.matrix - h_harm.matrix).max()),
        float(np.abs(h_quartic.matrix - h_harm.matrix).max()),
    )
    levels = circuit.spectrum(h_full)
    alpha = abs(circuit.anharmonicity(levels))
    gap = abs(levels.e01 - half.omega0)
    return [
        _check("harmonic_point_collapse", collapse, 0.0),
        _check("harmonic_point_anharmonicity", alpha, 1e-9),
        _check("harmonic_point_frequency", gap, 1e-6),
    ]


def run_selftest(cfg: RunConfig) -> tuple[list[CheckResult], bool]:
    """Run every invariant check; returns the results and overall verdict.

    A ``SimulationError`` raised by a check (an unstable circuit, say) is
    not a verdict: it propagates, so the CLI exits with its classified code.
    """
    p = circuit.CircuitParams(e_c=cfg.e_c, e_j=cfg.e_j, e_l=cfg.e_l, f_s=cfg.f_s)
    geom = coupling.CouplingGeometry(
        edge_length=cfg.edge_length,
        z_nv=cfg.z_nv,
        inductance=cfg.inductance
        if cfg.inductance is not None
        else coupling.inductance_from_inductive_energy(cfg.e_l),
    )
    checks: list[CheckResult] = [
        _ladder_commutator(cfg.dim),
        _su11_commutators(cfg.dim),
        _su11_2x2(),
        _closed_forms_2x2(),
        _phase_charge(cfg.dim, p),
        _unitarity(p, cfg.dim),
        _eigen_reconstruction(p, cfg.dim),
        *_hyperbolic_identity(p),
        _conjugation_equivalence(p),
        _biot_savart_symmetry(geom),
        _truncation_convergence(p, cfg.dim, cfg.convergence_tol),
        *_squeeze_closure(p),
        *_harmonic_point(p, cfg.dim),
    ]
    return checks, all(c.passed for c in checks)
