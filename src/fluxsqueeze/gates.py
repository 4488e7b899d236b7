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
half quantum, a pure global phase).  ``representation`` resolves the
(rep, space) pair of a gate call once into a ``Compact`` or ``Fock``
object, which owns all that differs between the two; ``Fock`` carries its
gates as ``Sectors``, joined (``_dense``) only at the public edge.  Distances
are only ever compared within one representation.  Every gate phase is
formed by ``operators._finite_phases``, so a time whose phase is past
the float range is a ``ParameterError``.

In the 2x2 form ``gate_u0``, ``gate_u1``, ``analytic_us`` and
``trotter_squeeze`` also take a 1-D array of times and return an
``(n, 2, 2)`` stack, one matrix per time, with the same bits as n calls;
``gate_distance`` then gives one deviation per time.  The Fock form takes
one time per call and refuses an array with ``ParameterError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, WrongRegimeError
from .operators import (
    FockSpace, Sectors, _finite_phases, _generator_eig, exp_2x2, exp_sectors, hermitian_eig,
    join_sectors, parity_sectors, require_below, sector_tridiagonal, su11_generators_2x2,
    warn_on_truncation_leak,
)
from .physics import CircuitParams, ReducedParams, _circuit_value, _or_inf, _require_stable, reduced_params

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
    """Derive t' and t'' from the circuit parameters under one convention;
    a time past the float range is a ``ParameterError``."""
    return _schedule(reduced_params(p), t, m, k, convention)


def _schedule(r: ReducedParams, t: float, m: int, k: int, convention: str) -> GateSchedule:
    if m < 1:
        raise ParameterError(f"step count must be >= 1, got {m}")
    if k < 0:
        raise ParameterError(f"branch index must be >= 0, got {k}")
    if convention not in CONVENTIONS:
        raise ParameterError(f"unknown convention {convention!r}; pick from {CONVENTIONS}")
    quarter = (4 * k + 1) * math.pi / 4.0
    fast, slow = (r.omega1, r.omega0) if convention == "matched" else (r.omega0, r.omega1)
    with np.errstate(over="ignore"):
        t_prime = fast * t / slow
    t_dprime = quarter / slow
    if not (np.isfinite(t_prime).all() and math.isfinite(t_dprime)):
        raise ParameterError(f"circuit keys: gate times t' = {fast:.6g} t / {slow:.6g} and t'' = "
                             f"{t_dprime:.6g} ns must be finite at t = {np.max(t):.6g} ns")
    return GateSchedule(t=t, m=m, k=k, t_prime=t_prime, t_dprime=t_dprime, convention=convention)


class Compact:
    """The exact 2x2 representation, non-unitary in general; every
    exponential is the closed form of ``exp_2x2``.  The gate methods take
    one time or an array of times; an array gives a stack of 2x2 matrices,
    one per time, in one ``exp_2x2`` call."""

    g = su11_generators_2x2()

    def u0(self, p: CircuitParams, t) -> np.ndarray:
        return exp_2x2(_finite_phases(_times(t), -1j * p.omega0) * self.g.gamma3)

    def u0_dag_left(self, p: CircuitParams, t, mat: np.ndarray) -> np.ndarray:
        """U0^dag(t) @ mat."""
        return exp_2x2(_finite_phases(_times(t), 1j * p.omega0) * self.g.gamma3) @ mat

    def u0_conjugate(self, p: CircuitParams, t: float, mat: np.ndarray) -> np.ndarray:
        """U0(t) @ mat @ U0^dag(t)."""
        u0 = self.u0(p, t)
        return u0 @ mat @ u0.conj().swapaxes(-1, -2)

    def u1(self, r: ReducedParams, t) -> np.ndarray:
        tt = _times(t)
        return exp_2x2(_finite_phases(tt, -1j * r.omega1) * self.g.gamma3
                       + _finite_phases(tt, 2j * r.eta1) * self.g.gamma1)

    def us(self, r: ReducedParams, t) -> np.ndarray:
        """exp(i 2 eta1 G1 t)."""
        return exp_2x2(_finite_phases(_times(t), 2j * r.eta1) * self.g.gamma1)

    def target(self, eta2: float) -> np.ndarray:
        """exp(-2i eta2 G2) = cosh(2 eta2) - i sinh(2 eta2) G2, for a finite cosh."""
        cosh = _circuit_value(_or_inf(math.cosh, 2.0 * eta2), "cosh(-2 eta1 t)", "t")
        return cosh * np.eye(2, dtype=complex) - 1j * math.sinh(2.0 * eta2) * self.g.gamma2

    def power(self, mat: np.ndarray, m: int) -> np.ndarray:
        return np.linalg.matrix_power(mat, m)

    def check_leak(self, mat: np.ndarray, context: str):
        """The 2x2 form has no truncation edge."""


def _times(t) -> np.ndarray:
    """``t`` as float times against trailing 2x2 axes, checked finite before
    any product forms; each phase is then formed by ``_finite_phases``."""
    times = np.asarray(t, dtype=float)
    if not np.isfinite(times).all():
        raise ParameterError(f"gate time t must be finite, got {t}")
    return times[..., None, None]


def _one_time(t, who: str = "the fock representation") -> float:
    """``t`` as a finite float, for code built for one time per call."""
    if np.ndim(t) != 0:
        raise ParameterError(f"{who} takes one time per call, got an array of shape {np.shape(t)}")
    return _times(t).item()


@functools.lru_cache(maxsize=1)
def _target_blocks(dim: int, eta2: float) -> Sectors:
    """Read-only, round-trip-checked blocks of exp(-2i eta2 G2), shared by both backends."""
    blocks = exp_sectors(_generator_eig(dim, "gamma2"), -2.0 * eta2)
    for block in blocks:
        block.setflags(write=False)
    return blocks


@dataclass(frozen=True)
class Fock:
    """The truncated Fock representation: U0 is the diagonal of phases
    exp(-i omega0 n t), and every other gate keeps photon parity, so it is
    carried as its ``Sectors``, each block built, scaled and powered apart."""

    space: FockSpace

    def _phases(self, p: CircuitParams, t: float) -> np.ndarray:
        # the diagonal of U0 in the number basis; no eigensolve needed
        return np.exp(_finite_phases(_one_time(t), -1j * p.omega0 * np.arange(self.space.dim)))

    def u0(self, p: CircuitParams, t: float) -> np.ndarray:
        return np.diag(self._phases(p, t))

    def u0_dag_left(self, p: CircuitParams, t: float, u: Sectors) -> Sectors:
        """U0^dag(t) @ u as a row scaling of each block."""
        ph = self._phases(p, -t)
        return Sectors(ph[s::2, None] * b for s, b in enumerate(u))

    def u0_conjugate(self, p: CircuitParams, t: float, u: Sectors) -> Sectors:
        """U0(t) @ u @ U0^dag(t) as a row and column scaling of each block."""
        ph = self._phases(p, t)
        return Sectors(ph[s::2, None] * b * ph[s::2].conj() for s, b in enumerate(u))

    def u1(self, r: ReducedParams, t: float) -> Sectors:
        # h1 = omega1 n - eta1 (a^2 + a^dag^2) keeps photon parity: one real solve per
        # sector, not cached (h1 moves with omega1, eta1); 0.0 - x keeps a zero band +0
        theta = -_one_time(t)
        eigs = [hermitian_eig(sector_tridiagonal(0.0 - r.eta1 * band, diag=r.omega1 * n))
                for n, band in parity_sectors(self.space.dim)]
        return exp_sectors(eigs, theta)

    def us(self, r: ReducedParams, t: float) -> Sectors:
        """exp(i 2 eta1 G1 t)."""
        return exp_sectors(_generator_eig(self.space.dim, "gamma1"), 2.0 * r.eta1 * _one_time(t))

    def target(self, eta2: float) -> Sectors:
        return _target_blocks(self.space.dim, eta2)

    def power(self, u: Sectors, m: int) -> Sectors:
        return Sectors(np.linalg.matrix_power(b, m) for b in u)

    def check_leak(self, u: Sectors, context: str):
        warn_on_truncation_leak(u, self.space, context)


def _dense(u):
    """A gate as one matrix: the 2x2 form's as it is, the Fock form's ``Sectors`` joined."""
    return join_sectors(sum(map(len, u)), u) if isinstance(u, Sectors) else u


def representation(rep: str, space: FockSpace | None = None) -> Compact | Fock:
    """The representation object for ``rep`` ("2x2" or "fock"; the latter
    needs ``space``)."""
    if rep == "2x2":
        return Compact()
    if rep not in REPS:
        raise ParameterError(f"unknown representation {rep!r}; pick from {REPS}")
    if space is None:
        raise ParameterError("fock representation needs a FockSpace")
    return Fock(space)


def gate_u0(p: CircuitParams, t: float | np.ndarray, rep: str = "2x2", space: FockSpace | None = None) -> np.ndarray:
    """Sweet-spot gate exp(-i omega0 n t) (fock) / exp(-i omega0 G3 t) (2x2)."""
    _require_stable(p)
    return representation(rep, space).u0(p, t)


def gate_u1(p: CircuitParams, t: float | np.ndarray, rep: str = "2x2", space: FockSpace | None = None) -> np.ndarray:
    """Detuned-flux gate; unitary in the fock rep, non-unitary 2x2 in general."""
    _require_stable(p)
    return _dense(representation(rep, space).u1(reduced_params(p), t))


def _core(form: Compact | Fock, p: CircuitParams, r: ReducedParams, t,
          sched: GateSchedule | None = None):
    """Us(t) evaluated directly, or with ``sched`` the interleaved product, leak-checked."""
    if sched is None:
        u, what = form.us(r, t), "analytic squeezing propagator"
    else:
        step = form.u0_dag_left(p, sched.t_prime / sched.m, form.u1(r, t / sched.m))
        u, what = form.power(step, sched.m), "interleaved squeezing product"
    form.check_leak(u, what)
    return u


def analytic_us(p: CircuitParams, t: float | np.ndarray, rep: str = "2x2", space: FockSpace | None = None) -> np.ndarray:
    """The squeezing propagator exp(i 2 eta1 G1 t) evaluated directly."""
    _require_stable(p)
    return _dense(_core(representation(rep, space), p, reduced_params(p), t))


def trotter_squeeze(
    p: CircuitParams,
    t: float | np.ndarray,
    m: int,
    rep: str = "2x2",
    space: FockSpace | None = None,
    convention: str = "matched",
) -> np.ndarray:
    """The M-fold interleaved product [U0^dag(t'/M) U1(t/M)]^M."""
    _require_stable(p)
    form, r = representation(rep, space), reduced_params(p)
    return _dense(_core(form, p, r, t, _schedule(r, t, m, 0, convention)))


def gate_distance(A: np.ndarray, B: np.ndarray) -> float | np.ndarray:
    """Largest element-wise deviation max_ij |A_ij - B_ij|: a float for two matrices (or
    ``Sectors``, whose off-sector zeros agree), an array of per-matrix maxima for two stacks."""
    if isinstance(A, Sectors) and isinstance(B, Sectors):
        return max(map(gate_distance, A, B))
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ParameterError(f"shape mismatch: {A.shape} vs {B.shape}")
    dev = np.abs(A - B).max(axis=(-2, -1))
    require_below(dev, math.inf, ParameterError, "gate_distance max|A - B|")
    return float(dev) if dev.ndim == 0 else dev


@dataclass(frozen=True)
class SqueezeResult:
    """Composed squeezing operator and its deviation from the direct target; ``s`` and ``target``
    are formed from their representation's blocks when first read."""

    eta2: float
    residual: float
    schedule: GateSchedule
    _s: object = field(repr=False)
    _target: object = field(repr=False)
    s = functools.cached_property(lambda self: _dense(self._s))
    target = functools.cached_property(lambda self: _dense(self._target))


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
    t = _one_time(t, "squeeze_operator")
    form = representation(rep, space)
    if backend not in ("analytic", "trotter"):
        raise ParameterError(f"unknown backend {backend!r}")
    r = reduced_params(p)
    if r.eta1 >= 0.0:
        raise WrongRegimeError(
            f"eta1 = {r.eta1:.4f} GHz >= 0 at f_s={p.f_s}; squeezing needs "
            "E_J(f_s) < 0 with the oscillator still stable"
        )
    sched = _schedule(r, t, m, k, convention)
    core = _core(form, p, r, t, sched if backend == "trotter" else None)
    composed = form.u0_conjugate(p, sched.t_dprime, core)
    eta2 = -r.eta1 * t
    target = form.target(eta2)
    form.check_leak(composed, "composed squeezing operator")
    return SqueezeResult(eta2=eta2, residual=gate_distance(composed, target), schedule=sched,
                         _s=composed, _target=target)
