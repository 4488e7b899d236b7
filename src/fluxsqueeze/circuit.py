"""Flux-tunable circuit Hamiltonians and their spectra.

The circuit is a loop of inductive energy E_L enclosing a symmetric
two-junction interferometer whose effective Josephson energy is tuned
by the normalized flux f_s:

    E_J(f_s) = 2 E_J cos(pi f_s)

Two Hamiltonians are built on a fixed Fock basis (the f_s-independent
oscillator E_c n^2 + E_L phi^2 of frequency omega0 = 2 sqrt(E_c E_L)):

    full:    H = E_c n^2 - E_J(f_s) cos(phi) + E_L phi^2
    quartic: H = E_c n^2 + (1/2)(2 E_L + E_J(f_s)) phi^2 - E_J(f_s) phi^4 / 24

cos(phi) is evaluated as a Hermitian matrix function, never a truncated
series.  The oscillator is stable while E_L + E_J(f_s)/2 >= 0.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._parallel import _one_blas_thread
from .config import CONVERGENCE_TOL, DEFAULT_DIM, MAX_MATRIX_BYTES, matrix_bytes
from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    ParameterError,
    SimulationError,
)
from .operators import (
    EIG_INPUT_RTOL, FockSpace, _finite_scale, hermitian_eig, hermitian_matrix_function,
    make_fock_space, phase_charge_operators, require_below,
)
from .physics import CircuitParams, _require_stable  # perfbench/worker.py reads CircuitParams

MAX_DOUBLINGS = 6


class FluxFreeTerms(NamedTuple):
    """The flux-independent float64 matrices both Hamiltonians combine (read-only)."""

    nn: np.ndarray
    pp: np.ndarray
    cos_phi: np.ndarray
    phi4: np.ndarray


# The doubling ladder visits at most this many bases per (E_c, E_L).
@functools.lru_cache(maxsize=MAX_DOUBLINGS + 1)
def _cached_terms(mass: float, omega0: float, dim: int) -> FluxFreeTerms:
    """n^2, phi^2, cos(phi) and phi^4 of the omega0 basis, built once per
    (E_c, E_L, dim) and shared by every flux point and every command.

    Built under one OpenBLAS thread, as the sweep builds them, so that the
    cache holds one set of bits whichever command fills it first (some
    kernels, SandyBridge among them, round differently at two threads).
    """
    # an extreme E_c or E_L overflows a product: rejected below, not warned
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        phi, n = phase_charge_operators(make_fock_space(dim), mass, omega0)
        pp = phi @ phi
        terms = FluxFreeTerms(
            nn=n @ n,
            pp=pp,
            cos_phi=hermitian_matrix_function(phi, np.cos),
            phi4=pp @ pp,
        )
    for name, mat in zip(FluxFreeTerms._fields, terms):
        if not np.isfinite(mat).all():
            raise ParameterError(f"circuit.e_c and circuit.e_l give a non-finite {name} at dim={dim}")
    # formed in complex arithmetic; kept as their real parts only when exact
    for name, mat in zip(FluxFreeTerms._fields, terms):
        if mat.imag.any():
            raise SimulationError(
                f"flux-free term {name} at dim={dim} is not exactly real: "
                f"max|Im| = {float(np.abs(mat.imag).max()):.3e}"
            )
    real = FluxFreeTerms(*(mat.real.copy() for mat in terms))
    for mat in real:
        mat.setflags(write=False)
    return real


# Flux points of one sweep run on several threads at once; the lock makes
# the first of them build a missing basis while the others wait for it,
# instead of each building its own copy.
_TERMS_LOCK = threading.Lock()


def _terms(p: CircuitParams, dim: int) -> FluxFreeTerms:
    with _TERMS_LOCK:
        return _cached_terms(p.mass, p.omega0, dim)


def _assemble(p: CircuitParams, space: FockSpace, *terms: tuple[float, str]) -> np.ndarray:
    """The sum of coefficient x flux-free term in the order given, made
    exactly symmetric by 0.5 (M + M^T).  A subtracted term comes with its
    coefficient negated (a - b c and a + (-b) c round alike).  A sum past
    the float range raises ``ParameterError``, not a numpy warning."""
    t = _terms(p, space.dim)
    (first, name), *rest = terms
    with np.errstate(over="ignore", invalid="ignore"):
        mat = first * getattr(t, name)
        for coefficient, name in rest:
            mat += coefficient * getattr(t, name)
        mat = 0.5 * (mat + mat.T)
    if not np.isfinite(mat).all():
        raise ParameterError(
            f"circuit.e_c, circuit.e_j and circuit.e_l give a non-finite Hamiltonian "
            f"at f_s={p.f_s}, dim={space.dim}"
        )
    return mat


def harmonic_hamiltonian(p: CircuitParams, space: FockSpace) -> np.ndarray:
    """E_c n^2 + E_L phi^2 (the f_s = 1/2 point and the basis oscillator)."""
    return _assemble(p, space, (p.e_c, "nn"), (p.e_l, "pp"))


def full_hamiltonian(p: CircuitParams, space: FockSpace) -> np.ndarray:
    """E_c n^2 - E_J(f_s) cos(phi) + E_L phi^2 with cos as a matrix function."""
    _require_stable(p)
    return _assemble(p, space, (p.e_c, "nn"), (-p.ej_flux, "cos_phi"), (p.e_l, "pp"))


def quartic_hamiltonian(p: CircuitParams, space: FockSpace) -> np.ndarray:
    """cos(phi) expanded through phi^4; same basis as the full Hamiltonian."""
    _require_stable(p)
    return _assemble(
        p, space, (p.e_c, "nn"), (0.5 * p.stiffness, "pp"), (-(p.ej_flux / 24.0), "phi4")
    )


@dataclass(frozen=True)
class Spectrum:
    """Lowest levels of a circuit Hamiltonian, energies in GHz ascending."""

    levels: tuple[tuple[int, float], ...]
    e01: float
    e12: float


def _three_or_more(k: int) -> int:
    if k < 3:
        raise ParameterError(f"need at least the lowest three levels, got k={k}")
    return k


def _lowest_levels(w: np.ndarray, k: int) -> Spectrum:
    if _three_or_more(k) > len(w):
        raise ParameterError(f"k={k} exceeds the truncation dim={len(w)}")
    levels = tuple((i, float(w[i])) for i in range(k))
    return Spectrum(levels=levels, e01=float(w[1] - w[0]), e12=float(w[2] - w[1]))


def solve(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a circuit Hamiltonian, or of each of a stack, solved on
    a complex copy: the printed levels were fixed that way, and a real
    solve rounds differently."""
    return hermitian_eig(np.asarray(H, dtype=complex))


def spectrum(H: np.ndarray, k: int = 3) -> Spectrum:
    """Lowest ``k`` eigenvalues with the first two gaps extracted."""
    return _lowest_levels(solve(H)[0], k)


def anharmonicity(s: Spectrum) -> float:
    """Relative level-spacing deviation (E12 - E01) / E01."""
    if s.e01 <= 0.0:
        raise DegenerateSpectrumError(f"E01 = {s.e01} GHz is not a usable gap")
    return (s.e12 - s.e01) / s.e01


Builder = Callable[[CircuitParams, FockSpace], np.ndarray]


# Upper-rung bytes one stack of flux points may hold, four points at the
# default dim: peak RSS grows with the stack, and larger stacks saved no time.
STACK_BYTES = 4 * 8 * (2 * DEFAULT_DIM) ** 2


def stack_points(dim: int) -> int:
    """Flux points per stack from ``dim``, within ``STACK_BYTES``; four at
    most, as a stack started below the default dim may double past it."""
    return max(1, min(4, STACK_BYTES // (8 * (2 * dim) ** 2)))


def _build(ps, dim: int, builder: Builder) -> np.ndarray:
    """The rung ``dim`` of every point of ``ps``, as one ``(len(ps), dim, dim)`` stack."""
    return np.stack([builder(p, make_fock_space(dim)) for p in ps])


def _sector_eigenvalues(H: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a real symmetric Hamiltonian that keeps photon
    parity, or of each matrix of a stack, solved on the even and on the odd
    levels of every matrix in one stacked call.

    The entries between the two sectors are dropped only after a check
    that none exceeds ``EIG_INPUT_RTOL`` of its matrix's largest element,
    else ``ConvergenceError``; each sector solve then runs the guards of
    ``hermitian_eig``.  A NaN or infinite entry, in a sector or between
    them, raises ``ParameterError``.
    """
    scale = _finite_scale(H, "sector solve", stacks=True)
    even, odd, mixed = H[..., 0::2, 0::2], H[..., 1::2, 1::2], H[..., 0::2, 1::2]
    require_below(
        np.abs(mixed).max(axis=(-2, -1)), EIG_INPUT_RTOL * scale, ConvergenceError,
        f"Hamiltonian at dim={H.shape[-1]} mixes photon parity: max|H[even, odd]|",
    )
    blocks = np.stack([even, odd], axis=-3).reshape(-1, *even.shape[-2:])
    shape = H.shape[:-2]
    del H, even, odd, mixed  # a caller that passes its only reference frees the rung here
    w, _ = hermitian_eig(blocks)
    return np.sort(w.reshape(*shape, -1), axis=-1)


def converged_spectra(
    ps,
    dim: int = DEFAULT_DIM,
    builder: Builder = full_hamiltonian,
    k: int = 3,
    tol: float = CONVERGENCE_TOL,
) -> list[tuple[Spectrum, int]]:
    """``(Spectrum, dim)`` of each point of ``ps`` at the first truncation
    whose doubling test passes.

    Starts from ``dim`` and doubles, ``MAX_DOUBLINGS`` times at most, until
    the lowest ``k`` levels move by less than ``tol`` GHz, then reports the
    values at the accepted (smaller) dimension with that dimension.
    ``builder`` is one of the circuit builders of this module, or any
    function of the same signature.

    The points climb the ladder together.  Each rung is the builder's real
    symmetric matrix of every point still climbing, stacked.  The start
    rung, whose levels are reported, is solved on complex copies in one
    stacked call; the upper rung is only compared with ``tol`` and is
    solved on its even and odd photon-parity sectors in another.  Points
    that pass leave the stack and the rest double.  A rung reached by
    doubling keeps its sector eigenvalues for the next comparison; it is
    built again and solved in complex arithmetic for the points that
    accept it, so that the upper rung is freed before its sector solve.
    Each point gets the bits it gets alone; an error is the first met on
    the way up.

    A doubling whose two rungs would exceed ``config.MAX_MATRIX_BYTES``
    by ``config.matrix_bytes`` raises ``ConvergenceError`` before the
    upper rung is built.
    """
    current, k = dim, _three_or_more(k)
    if not ps:
        return []
    out: list = [None] * len(ps)
    climbing = list(range(len(ps)))
    w_lower, _ = solve(_build(ps, current, builder))
    for _ in range(MAX_DOUBLINGS):
        if matrix_bytes(current) > MAX_MATRIX_BYTES:
            raise ConvergenceError(
                f"numerics.convergence_tol = {tol:.1e} GHz is not met by dim={current} "
                f"(started at {dim}); testing it needs dim={2 * current}, whose dense "
                f"matrices would exceed the budget of {MAX_MATRIX_BYTES} bytes"
            )
        w_upper = _sector_eigenvalues(_build([ps[i] for i in climbing], 2 * current, builder))
        k_eff = min(k, current)
        passed = np.abs(w_lower[:, :k_eff] - w_upper[:, :k_eff]).max(axis=1) < tol
        done = [i for i, ok in zip(climbing, passed) if ok]
        if done:
            w_done = w_lower[passed]
            if current != dim:
                w_done, _ = solve(_build([ps[i] for i in done], current, builder))
            for i, w in zip(done, w_done):
                out[i] = (_lowest_levels(w, k), current)
        climbing = [i for i, ok in zip(climbing, passed) if not ok]
        if not climbing:
            return out
        current *= 2
        w_lower = w_upper[~passed]
    raise ConvergenceError(
        f"no converged truncation found up to dim={current} "
        f"(started at {dim}, tolerance {tol:.1e} GHz)"
    )


def converged_spectrum(
    p: CircuitParams,
    dim: int = DEFAULT_DIM,
    builder: Builder = full_hamiltonian,
    k: int = 3,
    tol: float = CONVERGENCE_TOL,
) -> tuple[Spectrum, int]:
    """``converged_spectra`` of the one point ``p``."""
    return converged_spectra([p], dim, builder, k, tol)[0]
