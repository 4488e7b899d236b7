"""Invariant battery behind the ``selftest`` CLI command.

Each check returns its measured value and threshold so the JSON report
is auditable; any failure flips the process exit status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import circuit, coupling, gates, operators, physics
from .config import RunConfig
from .errors import ParameterError, WrongRegimeError

# the interior checks drop the top two levels and need one left
MIN_DIM = 3


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool


def _check(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name=name, value=float(value), threshold=float(threshold), passed=bool(value <= threshold))


def _residual(name: str, bound: float, n_keep: int, *diffs: np.ndarray) -> CheckResult:
    """The largest max|D| of the differences ``diffs`` on their lowest ``n_keep`` levels."""
    return _check(name, max(np.abs(operators.interior(d, n_keep)).max() for d in diffs), bound)


def _closed_forms_2x2() -> CheckResult:
    g = operators.su11_generators_2x2()
    eye = np.eye(2)
    gts = np.linspace(-5.0, 5.0, 41)
    worst = 0.0
    for gen, even, odd in (
        (g.gamma1, math.cosh, math.sinh),
        (g.gamma2, math.cosh, math.sinh),
        (g.gamma3, math.cos, math.sin),
    ):
        # one stacked exponential per generator; the reference takes math.*
        # per point, whose bits numpy's float exp/cosh do not share, and
        # combines them as one stack
        got = operators.exp_2x2(-1j * gts[:, None, None] * gen)
        c = np.array([even(gt) for gt in gts])[:, None, None]
        s = np.array([odd(gt) for gt in gts])[:, None, None]
        want = c * eye - 1j * gen * s
        worst = max(worst, np.abs(got - want).max())
    return _check("closed_form_2x2_exponentials", worst, 1e-12)


def _unitarity(p: physics.CircuitParams, w: np.ndarray, v: np.ndarray) -> CheckResult:
    """U = exp(-iH) of the full Hamiltonian from its eigenpairs, and U1."""
    dim = len(w)
    u_full = operators.propagator(w, v, 1.0)
    u1 = gates.gate_u1(p, 1.0, "fock", operators.make_fock_space(dim))
    res = max(operators.unitarity_residual(u_full), operators.unitarity_residual(u1))
    return _check("propagator_unitarity", res, operators.EXP_ROUNDTRIP_ATOL)


def _eigen_reconstruction(h: np.ndarray, w: np.ndarray, v: np.ndarray) -> CheckResult:
    res = operators.reconstruction_residual(h, w, v) / max(1.0, float(np.abs(h).max()))
    return _check("eigen_reconstruction", res, operators.RECONSTRUCTION_RTOL)


def _hyperbolic_identity(p: physics.CircuitParams) -> list[CheckResult]:
    w0 = p.omega0
    strict = 0.0
    scaled = 0.0
    try:
        for eta2 in np.linspace(-3.0, 3.0, 121):
            eff = physics.effective_params(p, g=1.0, eta2=float(eta2))
            err = abs(eff.omega_eff**2 - 4.0 * eff.chi**2 - w0**2)
            scaled = max(scaled, err / max(w0**2, eff.omega_eff**2))
            if abs(eta2) <= 1.5:
                strict = max(strict, err / w0**2)
    except OverflowError:
        msg = f"circuit.e_c and circuit.e_l: omega0 = {w0:.6g} GHz overflows omega_eff^2"
        raise ParameterError(msg) from None
    return [
        _check("hyperbolic_identity_moderate", strict, 1e-10),
        _check("hyperbolic_identity_scaled", scaled, 1e-10),
    ]


def _conjugation_equivalence(p: physics.CircuitParams) -> CheckResult:
    dim = 96
    eta2 = 0.2
    space = operators.make_fock_space(dim)
    geom = physics.default_geometry(p)
    g = physics.bare_coupling(p, geom)
    # Zeeman shift chosen to put the spin on resonance with the oscillator
    nv = physics.NVParams(zeeman=physics.ZERO_FIELD_SPLITTING_GHZ - p.omega0)
    h_tot = coupling.total_hamiltonian(p, nv, g, space)
    s = coupling.squeeze_on_product(space, eta2)
    h_eff = coupling.conjugate_hamiltonian(s, h_tot)
    coeffs = coupling.project_coupling_coefficients(h_eff, space, n_interior=dim // 3)
    eff = physics.effective_params(p, g, eta2)
    rel = max(
        abs(coeffs["number"] - eff.omega_eff) / eff.omega_eff,
        abs(coeffs["pair"] - eff.chi) / eff.chi,
        abs(coeffs["coupling"] - eff.g_eff) / eff.g_eff,
    )
    return _check("conjugation_equivalence", rel, 1e-6)


def _biot_savart_symmetry(geom: physics.CouplingGeometry) -> CheckResult:
    z = np.linspace(geom.edge_length * 1e-4, geom.edge_length * (1 - 1e-4), 1000)
    left = coupling.b0_profile(geom, z)
    right = coupling.b0_profile(geom, geom.edge_length - z)
    res = np.max(np.abs(left - right) / np.abs(left))
    return _check("biot_savart_symmetry", res, 1e-12)


def _truncation_convergence(p: physics.CircuitParams, w: np.ndarray, tol: float) -> CheckResult:
    """Movement of the lowest three levels from the shared full solve ``w``
    to 2*dim, solved the same way (the sweep's sector solve of the upper
    rung rounds this value differently)."""
    upper, _ = circuit.solve(circuit.full_hamiltonian(p, operators.make_fock_space(2 * len(w))))
    move = float(np.abs(w[:3] - upper[:3]).max())
    return CheckResult("truncation_convergence", move, tol, passed=move < tol)


def _squeeze_closure(p: physics.CircuitParams) -> list[CheckResult]:
    # the closure property needs the squeezing regime; fall back to the
    # canonical detuned flux when the configured point is harmonic
    if physics.reduced_params(p).eta1 >= 0.0:
        p = replace(p, f_s=0.9)
    r = physics.reduced_params(p)
    # the squeeze times t = eta2 / -eta1 below, eta2 up to 1, must be finite
    if not (r.eta1 < 0.0 and 1.0 / -r.eta1 < math.inf):
        raise WrongRegimeError(f"no squeezing interaction: eta1 = {r.eta1} GHz at f_s={p.f_s}")
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


def _harmonic_point(p: physics.CircuitParams, dim: int) -> list[CheckResult]:
    half = replace(p, f_s=0.5)
    space = operators.make_fock_space(dim)
    h_full = circuit.full_hamiltonian(half, space)
    h_quartic = circuit.quartic_hamiltonian(half, space)
    h_harm = circuit.harmonic_hamiltonian(half, space)
    collapse = max(
        float(np.abs(h_full - h_harm).max()),
        float(np.abs(h_quartic - h_harm).max()),
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
    if cfg.dim < MIN_DIM:
        raise ParameterError(
            f"numerics.dim must be >= {MIN_DIM} for selftest (its interior checks "
            f"drop the top two levels), got {cfg.dim}"
        )
    # the geometry and the shared solve come first: an E_L or E_c out of
    # range is then a configuration error before any check computes with it
    p, geom = cfg.circuit(), cfg.geometry()
    dim, comm = cfg.dim, operators.commutator
    space = operators.make_fock_space(dim)
    # one solve of the full Hamiltonian serves three checks
    h = circuit.full_hamiltonian(p, space)
    w, v = circuit.solve(h)
    a = operators.annihilation(space)
    g1, g2, g3 = operators.su11_generators(space)
    g = operators.su11_generators_2x2()
    checks = [
        _residual("ladder_commutator_interior", 1e-12, dim - 1, comm(a, a.conj().T) - np.eye(dim)),
        _residual("su11_commutators_interior", 1e-12, dim - 2, comm(g1, g2) + 2j * g3,
                  comm(g2, g3) - 2j * g1, comm(g3, g1) - 2j * g2),
        _residual("su11_commutators_2x2", 1e-14, 2, comm(g.gamma1, g.gamma2) + 2j * g.gamma3,
                  comm(g.gamma2, g.gamma3) - 2j * g.gamma1,
                  comm(g.gamma3, g.gamma1) - 2j * g.gamma2),
        _closed_forms_2x2(),
        _residual("phase_charge_commutator_interior", 1e-12, dim - 2,
                  comm(*operators.phase_charge_operators(space, p.mass, p.omega0))
                  - 1j * np.eye(dim)),
        _unitarity(p, w, v),
        _eigen_reconstruction(h, w, v),
        *_hyperbolic_identity(p),
        _conjugation_equivalence(p),
        _biot_savart_symmetry(geom),
        _truncation_convergence(p, w, cfg.convergence_tol),
        *_squeeze_closure(p),
        *_harmonic_point(p, cfg.dim),
    ]
    return checks, all(c.passed for c in checks)
