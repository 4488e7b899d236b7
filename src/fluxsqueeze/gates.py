"""The two flux-switched gates, their interleaved product, and the
composed squeezing operator.

Gate zoo (phases are plain GHz*ns products):

    U0(t) = exp(-i omega0 n t)                      flux at the sweet spot
    U1(t) = exp(-i [omega1 n - eta1 (a^2 + a^dag^2)] t)   flux detuned
    Us(t) = exp(i 2 eta1 G1 t)                      the squeezing propagator

Us is approximated by the interleaved product

    U's(t) = [U0^dag(t'/M) U1(t/M)]^M

and turned into the squeezing operator by a quarter-period rotation:

    S = exp[eta2 (a^2 - a^dag^2)] = U0(t'') Us(t) U0^dag(t''),  eta2 = -eta1 t.

Two conventions are provided for the helper times t' and t''.  The
product formula telescopes (and the conjugation closes exactly) only
when the rotating-frame phases cancel:

    "matched":  omega0 t' = omega1 t     and  omega0 t'' = (4k+1) pi/4
    "swapped":  t' = omega0 t / omega1   and  omega1 t'' = (4k+1) pi/4

"matched" is the default.  "swapped" exchanges the roles of the two
frequencies (a form sometimes written down because the two gates are
easy to mix up); it is kept selectable because the test suite documents
that it neither telescopes nor closes the squeezing identity.

Representations: "fock" uses the number operator a^dag a in the gate
phases; "2x2" uses the compact generators (G3 = tau_z carries the extra
half quantum, a pure global phase).  Distances are only ever compared
within one representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, _require_stable, reduced_params
from .errors import ParameterError, WrongRegimeError
from .operators import (
    FockSpace,
    annihilation,
    exp_2x2,
    exp_normal,
    su11_generators,
    su11_generators_2x2,
    warn_on_truncation_leak,
)

CONVENTIONS = ("matched", "swapped")
REPS = ("2x2", "fock")


@dataclass(frozen=True)
class GateSchedule:
    """Evolution times of one squeezing construction.

    t_prime is the U0 duration per telescoping step (times M), t_dprime
    the quarter-period conjugation duration, both in ns.
    """

    t: float
    m: int
    k: int
    t_prime: float
    t_dprime: float
    convention: str


def make_schedule(
    p: CircuitParams, t: float, m: int, k: int = 0, convention: str = "matched"
) -> GateSchedule:
    """Derive t' and t'' from the circuit parameters under one convention."""
    if m < 1:
        raise ParameterError(f"step count must be >= 1, got {m}")
    if k < 0:
        raise ParameterError(f"branch index must be >= 0, got {k}")
    if convention not in CONVENTIONS:
        raise ParameterError(f"unknown convention {convention!r}; pick from {CONVENTIONS}")
    r = reduced_params(p)
    quarter = (4 * k + 1) * math.pi / 4.0
    if convention == "matched":
        t_prime = r.omega1 * t / r.omega0
        t_dprime = quarter / r.omega0
    else:
        t_prime = r.omega0 * t / r.omega1
        t_dprime = quarter / r.omega1
    return GateSchedule(
        t=t, m=m, k=k, t_prime=t_prime, t_dprime=t_dprime, convention=convention
    )


def _check_rep(rep: str, space: FockSpace | None):
    if rep not in REPS:
        raise ParameterError(f"unknown representation {rep!r}; pick from {REPS}")
    if rep == "fock" and space is None:
        raise ParameterError("fock representation needs a FockSpace")


def _fock_u0(p: CircuitParams, t: float, space: FockSpace) -> np.ndarray:
    # diagonal in the number basis; no eigensolve needed
    phases = np.exp(-1j * p.omega0 * np.arange(space.dim) * t)
    return np.diag(phases)


def gate_u0(p: CircuitParams, t: float, rep: str = "2x2", space: FockSpace | None = None) -> np.ndarray:
    """Sweet-spot gate exp(-i omega0 n t) (fock) / exp(-i omega0 G3 t) (2x2)."""
    _require_stable(p)
    _check_rep(rep, space)
    if rep == "fock":
        return _fock_u0(p, t, space)
    g = su11_generators_2x2()
    return exp_2x2(-1j * p.omega0 * t * g.gamma3)


def gate_u1(p: CircuitParams, t: float, rep: str = "2x2", space: FockSpace | None = None) -> np.ndarray:
    """Detuned-flux gate; unitary in the fock rep, non-unitary 2x2 in general."""
    _require_stable(p)
    _check_rep(rep, space)
    r = reduced_params(p)
    if rep == "fock":
        a = annihilation(space).matrix
        ad = a.conj().T
        h1 = r.omega1 * (ad @ a) - r.eta1 * (a @ a + ad @ ad)
        return exp_normal(-1j * h1 * t)
    g = su11_generators_2x2()
    return exp_2x2(-1j * r.omega1 * t * g.gamma3 + 2j * r.eta1 * t * g.gamma1)


def analytic_us(p: CircuitParams, t: float, rep: str = "2x2", space: FockSpace | None = None) -> np.ndarray:
    """The squeezing propagator exp(i 2 eta1 G1 t) evaluated directly."""
    _require_stable(p)
    _check_rep(rep, space)
    r = reduced_params(p)
    if rep == "fock":
        g = su11_generators(space)
        u = exp_normal(2j * r.eta1 * t * g.gamma1)
        warn_on_truncation_leak(u, space, "analytic squeezing propagator")
        return u
    g = su11_generators_2x2()
    return exp_2x2(2j * r.eta1 * t * g.gamma1)


def trotter_squeeze(
    p: CircuitParams,
    t: float,
    m: int,
    rep: str = "2x2",
    space: FockSpace | None = None,
    convention: str = "matched",
) -> np.ndarray:
    """The M-fold interleaved product [U0^dag(t'/M) U1(t/M)]^M."""
    _require_stable(p)
    _check_rep(rep, space)
    sched = make_schedule(p, t, m, convention=convention)
    if rep == "fock":
        u0_dag_step = _fock_u0(p, -sched.t_prime / m, space)
        u1_step = gate_u1(p, t / m, "fock", space)
    else:
        g = su11_generators_2x2()
        u0_dag_step = exp_2x2(1j * p.omega0 * (sched.t_prime / m) * g.gamma3)
        u1_step = gate_u1(p, t / m, "2x2")
    product = np.linalg.matrix_power(u0_dag_step @ u1_step, m)
    if rep == "fock":
        warn_on_truncation_leak(product, space, "interleaved squeezing product")
    return product


def gate_distance(A: np.ndarray, B: np.ndarray) -> float:
    """Largest element-wise deviation max_ij |A_ij - B_ij|."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ParameterError(f"shape mismatch: {A.shape} vs {B.shape}")
    return float(np.abs(A - B).max())


@dataclass(frozen=True)
class SqueezeResult:
    """Composed squeezing operator and its deviation from the direct target."""

    eta2: float
    s: np.ndarray
    target: np.ndarray
    residual: float
    schedule: GateSchedule


def squeeze_target(eta2: float, rep: str = "2x2", space: FockSpace | None = None) -> np.ndarray:
    """Directly exponentiated exp[eta2 (a^2 - a^dag^2)] (= exp(-2i eta2 G2))."""
    _check_rep(rep, space)
    if rep == "fock":
        a = annihilation(space).matrix
        ad = a.conj().T
        return exp_normal(eta2 * (a @ a - ad @ ad))
    g = su11_generators_2x2()
    return math.cosh(2.0 * eta2) * np.eye(2, dtype=complex) - 1j * math.sinh(
        2.0 * eta2
    ) * g.gamma2


def squeeze_operator(
    p: CircuitParams,
    t: float,
    m: int = 100,
    k: int = 0,
    rep: str = "2x2",
    space: FockSpace | None = None,
    backend: str = "analytic",
    convention: str = "matched",
) -> SqueezeResult:
    """Compose S = U0(t'') Us(t) U0^dag(t'') and compare to the direct target.

    ``backend`` picks the analytic Us (default, isolates the conjugation
    step) or the interleaved product U's (for product-formula fidelity
    studies).  Requires eta1 < 0, the squeezing-producing regime.
    """
    _require_stable(p)
    _check_rep(rep, space)
    if backend not in ("analytic", "trotter"):
        raise ParameterError(f"unknown backend {backend!r}")
    r = reduced_params(p)
    if r.eta1 >= 0.0:
        raise WrongRegimeError(
            f"eta1 = {r.eta1:.4f} GHz >= 0 at f_s={p.f_s}; squeezing needs "
            "E_J(f_s) < 0 with the oscillator still stable"
        )
    sched = make_schedule(p, t, m, k, convention)
    if backend == "analytic":
        core = analytic_us(p, t, rep, space)
    else:
        core = trotter_squeeze(p, t, m, rep, space, convention)
    u0 = gate_u0(p, sched.t_dprime, rep, space)
    composed = u0 @ core @ u0.conj().T
    eta2 = -r.eta1 * t
    target = squeeze_target(eta2, rep, space)
    if rep == "fock":
        warn_on_truncation_leak(composed, space, "composed squeezing operator")
    return SqueezeResult(
        eta2=eta2,
        s=composed,
        target=target,
        residual=gate_distance(composed, target),
        schedule=sched,
    )
