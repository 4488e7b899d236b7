"""Truncated Fock-space numerics: ladder operators, squeezing-algebra
generators, Hermitian eigensolves, and matrix exponentials.

Operators are plain dense ndarrays.  The ladder, quadrature and
generator helpers return complex128 even where the entries are real, so
every product built from them runs in complex arithmetic.  Operator
algebra identities hold exactly only on an interior subspace; the
truncation edge (top one or two levels) is excluded wherever an identity
is asserted.

Units: energies in GHz, times in ns. The phase accumulated by ``propagator``
is the plain product energy*time with no additional 2*pi factor.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidDimensionError, ParameterError, SimulationError, TruncationLeakWarning, WrongRegimeError,
)
from .physics import _circuit_value, _or_inf

# Hermiticity (eigensolve) and anti-Hermiticity (exponential) tolerance
# for inputs, scaled by the largest matrix element.
EIG_INPUT_RTOL = 1e-10
# Eigen-reconstruction residual bound, scaled by the largest matrix element.
RECONSTRUCTION_RTOL = 1e-9
# exp(K)exp(-K) round-trip (unitarity) residual bound.
EXP_ROUNDTRIP_ATOL = 1e-9
# Hyperbolic-argument cap for the closed-form 2x2 exponential.  Beyond
# this the non-unitary representation grows without bound and results
# stop being physically interpretable.
HYPERBOLIC_CAP = 10.0
# A low-lying state may place at most this much weight in the top 10%
# of Fock levels before a truncation-leak warning fires.
LEAK_TOL = 1e-6
# Unitarity (and scaled hermiticity) bound of ``coupling.conjugate_hamiltonian``.
UNITARY_TOL = 1e-8


def require_below(residual, bound, error: type[SimulationError], what: str) -> None:
    """Raise ``error`` unless ``residual <= bound``, the test of every guard;
    a NaN fails it.  Arrays are tested entry by entry; the first failing one is named."""
    if isinstance(residual, np.ndarray):
        failed = np.flatnonzero(~(residual <= bound))
        if not failed.size:
            return
        first = failed[0]
        residual, bound = residual.flat[first], np.broadcast_to(bound, residual.shape).flat[first]
    if not residual <= bound:
        raise error(f"{what} residual {residual:.3e} exceeds bound {bound:.3e}")


@dataclass(frozen=True)
class FockSpace:
    """Handle fixing the number of retained Fock levels."""

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, (int, np.integer)) or self.dim < 2:
            raise InvalidDimensionError(
                f"Fock truncation needs an integer dimension >= 2, got {self.dim!r}"
            )


def make_fock_space(dim: int) -> FockSpace:
    """Create the truncation handle shared by all operators of one problem."""
    return FockSpace(int(dim) if isinstance(dim, (int, np.integer)) else dim)


def annihilation(space: FockSpace) -> np.ndarray:
    """Ladder-down operator, <m|a|n> = sqrt(n) delta_{m,n-1}."""
    return np.diag(np.sqrt(np.arange(1, space.dim)), 1).astype(complex)


def phase_charge_operators(
    space: FockSpace, m: float, omega: float
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature pair for an oscillator of mass ``m`` and frequency ``omega``:

        phi = sqrt(1/(2 m omega)) (a + a^dag)
        n   = i sqrt(m omega / 2) (a^dag - a)

    Both come back Hermitian; [phi, n] = i holds on the interior subspace.
    """
    if not (m > 0 and omega > 0):
        raise ParameterError(f"need m > 0 and omega > 0, got m={m}, omega={omega}")
    # an extreme m or omega gives a scale of 0 or inf, refused before any product
    phi_scale = _circuit_value(_or_inf(lambda x: math.sqrt(1.0 / x), 2.0 * m * omega),
                               "sqrt(1/(2 m omega))", "m and omega", positive=True)
    n_scale = _circuit_value(math.sqrt(m * omega / 2.0), "sqrt(m omega / 2)", "m and omega",
                             positive=True)
    a = annihilation(space)
    ad = a.conj().T
    phi = phi_scale * (a + ad)
    n = 1j * n_scale * (ad - a)
    return phi, n


class SU11Generators(NamedTuple):
    """The squeezing-algebra triple, obeying

        [G1, G2] = -2i G3,  [G2, G3] = 2i G1,  [G3, G1] = 2i G2.

    The Fock matrices are Hermitian and obey the relations on the
    interior subspace; the compact 2x2 matrices obey them exactly but are
    non-Hermitian (the group admits no finite unitary irrep).
    """

    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray


def su11_generators(space: FockSpace) -> SU11Generators:
    """Fock-representation generators G1=(a^2+ad^2)/2, G2=i(a^2-ad^2)/2, G3=n+1/2."""
    a = annihilation(space)
    ad = a.conj().T
    a2 = a @ a
    ad2 = ad @ ad
    g1 = 0.5 * (a2 + ad2)
    g2 = 0.5j * (a2 - ad2)
    g3 = np.diag(np.arange(space.dim) + 0.5).astype(complex)
    return SU11Generators(g1, g2, g3)


TAU_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
TAU_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
TAU_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def su11_generators_2x2() -> SU11Generators:
    """Exact non-Hermitian 2x2 representation: G1 = i tau_y, G2 = -i tau_x, G3 = tau_z."""
    return SU11Generators(1j * TAU_Y, -1j * TAU_X, TAU_Z.copy())


def _finite_scale(mat: np.ndarray, what: str, stacks: bool = False):
    """max(1, max|M_ij|), the scale of the input guards, or one per matrix
    of a ``(k, n, n)`` stack where ``stacks`` allows it; a matrix that is not
    square, or has a NaN or infinite entry, raises ``ParameterError``."""
    if mat.ndim not in ((2, 3) if stacks else (2,)) or mat.shape[-1] != mat.shape[-2]:
        raise ParameterError(f"expected a square matrix, got shape {mat.shape}")
    peak = np.abs(mat).max(axis=(-2, -1))
    finite = np.isfinite(peak)
    if not finite.all():
        raise ParameterError(
            f"{what} needs finite matrix entries, got max|M| = {float(peak[~finite][0])}"
        )
    return max(1.0, float(peak)) if mat.ndim == 2 else np.maximum(peak, 1.0)


def reconstruction_residual(mat: np.ndarray, w: np.ndarray, v: np.ndarray):
    """max|V diag(w) V^dag - M|, unscaled: a float for a matrix, an array
    of per-matrix maxima for a stack."""
    res = np.abs((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2) - mat).max(axis=(-2, -1))
    return float(res) if res.ndim == 0 else res


def hermitian_eig(op) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator, or of each matrix of a
    ``(k, n, n)`` stack in one call.

    Returns sorted-ascending eigenvalues and the unitary eigenvector
    matrix (columns).  The input must be Hermitian within
    ``EIG_INPUT_RTOL`` of its largest element; the reconstruction
    V diag(E) V^dag is verified against the input.  A float64 array is
    solved as a real symmetric matrix; other input is made complex.  A
    matrix with a NaN or infinite entry is rejected before the solve.  In
    a stack each matrix is checked against its own largest element, gets
    the bits it gets alone, and the first that fails a guard is named.
    """
    real = isinstance(op, np.ndarray) and op.dtype == np.float64
    mat = op if real else np.asarray(op, dtype=complex)
    scale = _finite_scale(mat, "hermitian_eig", stacks=True)
    require_below(
        np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1)), EIG_INPUT_RTOL * scale,
        ParameterError, "matrix is not Hermitian: max|M - M^dag|",
    )
    w, v = np.linalg.eigh(mat)
    res = reconstruction_residual(mat, w, v)
    require_below(res, RECONSTRUCTION_RTOL * scale, SimulationError, "eigen-reconstruction")
    return w, v


def hermitian_matrix_function(op, fn) -> np.ndarray:
    """f(M) for Hermitian M via eigendecomposition (exact within truncation)."""
    w, v = hermitian_eig(op)
    return (v * fn(w)) @ v.conj().T


def propagator(w: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) from the eigenpairs (w, v) of a Hermitian H, checked unitary."""
    return _exp_i_eig(_finite_phases(-t, w), v)


def _finite_phases(theta, w) -> np.ndarray:
    """theta * w: the phases of exp(i theta H) from the eigenvalues ``w`` of H,
    or of a gate from its times and frequency; either may be an array.  A
    finite ``w`` times a theta that is not finite, or past the float range,
    raises ``ParameterError``, not a numpy warning; a ``w`` that is not
    finite is left to the exponential's guard."""
    with np.errstate(over="ignore", invalid="ignore"):
        phases = theta * w
    if not np.isfinite(phases).all() and np.isfinite(w).all():
        raise ParameterError(
            f"phase theta x E must be finite, got max|theta| = {float(np.max(np.abs(theta))):.6g} "
            f"and max|E| = {float(np.max(np.abs(w))):.6g} GHz"
        )
    return phases


def unitarity_residual(u: np.ndarray) -> float:
    """max|U U^dag - 1|, the guard of every unitary this package forms."""
    gram = u @ u.conj().T
    gram.reshape(-1)[:: u.shape[0] + 1] -= 1.0
    return float(np.abs(gram).max())


def exp_2x2(K: np.ndarray) -> np.ndarray:
    """Closed-form exponential of a 2x2 complex matrix, or of each matrix
    of a ``(..., 2, 2)`` stack.

    Cayley-Hamilton for the traceless part B: B^2 = -det(B) I, hence
    exp(B) = cosh(mu) I + sinh(mu)/mu B with mu = sqrt(-det B).  This
    reproduces the single-generator hyperbolic/trigonometric formulas
    of the compact representation without any series truncation.  Every
    step is elementwise over the stack, so a matrix gives the same bits
    alone as inside a stack.

    Hyperbolic arguments are capped at ``HYPERBOLIC_CAP``; beyond it the
    non-unitary representation has grown by e^10, and the squeeze is
    refused as a regime limit (``WrongRegimeError``), naming the first
    matrix in stack order that is over the cap or whose argument is NaN.
    A NaN or infinite entry is rejected with ``ParameterError`` first.
    """
    K = np.asarray(K, dtype=complex)
    if K.shape[-2:] != (2, 2):
        raise ParameterError(f"exp_2x2 needs a (..., 2, 2) stack, got {K.shape}")
    if not np.isfinite(K).all():
        raise ParameterError("exp_2x2 needs finite matrix entries")
    half_tr = 0.5 * (K[..., 0, 0] + K[..., 1, 1])
    B = K - half_tr[..., None, None] * np.eye(2)
    det = lambda m: m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]  # noqa: E731
    with np.errstate(over="ignore", invalid="ignore"):
        # a det B past the float range (a pure phase past about 1.3e154) is formed again
        # from B scaled by 2^-600, exactly; every other member keeps its bits
        mu = np.sqrt(-det(B))
        mu = np.where(np.isinf(mu), np.sqrt(-det(B * 2.0**-600)) * 2.0**600, mu)
    over = np.ravel(~(np.abs(mu.real) <= HYPERBOLIC_CAP) | ~np.isfinite(mu))
    if over.any():
        first = np.ravel(mu)[over.argmax()]
        size = abs(first.real) if np.isfinite(first) else abs(first)
        raise WrongRegimeError(
            f"hyperbolic argument |{size:#.4g}| exceeds cap {HYPERBOLIC_CAP}; "
            "matrix elements would exceed cosh(10); shorten the evolution time run.t"
        )
    zero = np.abs(mu) < 1e-300
    # mu -> 1 where it vanishes, so sinh(mu)/mu stays finite there; those
    # members take exp(B) = I + B below
    safe_mu = np.where(zero, 1.0, mu)
    body = np.cosh(mu)[..., None, None] * np.eye(2) + (np.sinh(mu) / safe_mu)[..., None, None] * B
    body = np.where(zero[..., None, None], np.eye(2, dtype=complex) + B, body)
    return np.exp(half_tr)[..., None, None] * body


def exp_normal(K) -> np.ndarray:
    """exp(K) for an anti-Hermitian matrix.

    Every squeezing gate is the exponential of ``i`` times a Hermitian
    generator, so the input must satisfy K^dag = -K within
    ``EIG_INPUT_RTOL`` of its largest element; it then goes through the
    eigendecomposition of the Hermitian matrix -iK.  Any other matrix,
    normal or not, and any matrix with a NaN or infinite entry, is
    rejected with ``ParameterError``.
    """
    mat = np.asarray(K, dtype=complex)
    scale = _finite_scale(mat, "exp_normal")
    require_below(
        float(np.abs(mat + mat.conj().T).max()), EIG_INPUT_RTOL * scale, ParameterError,
        "exp_normal needs an anti-Hermitian matrix: max|K + K^dag|",
    )
    # K = i H with H Hermitian
    w, v = np.linalg.eigh(-1j * mat)
    return _exp_i_eig(w, v)


def _exp_i_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(iH) from the eigenpairs (w, v) of a Hermitian H, checked by the
    exp(K)exp(-K) round trip with K = iH.

    exp(-iH) is taken as exp(iH)^dag, so the round trip is the unitarity
    residual.  For a real symmetric H (real ``v``) the products stay real.
    """
    if np.isrealobj(v):
        out = (v * np.cos(w)) @ v.T + 1j * ((v * np.sin(w)) @ v.T)
    else:
        out = (v * np.exp(1j * w)) @ v.conj().T
    require_below(unitarity_residual(out), EXP_ROUNDTRIP_ATOL, SimulationError, "exp(K)exp(-K)")
    return out


def parity_sectors(dim: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The even (s = 0) and odd (s = 1) photon-number sectors of ``dim`` levels.

    Sector s holds the levels n = s, s+2, ... and is linked only by the
    pair band <n|a^2|n+2> = sqrt(n+1) sqrt(n+2) between consecutive
    levels, so every generator built from n, a^2 and a^dag^2 is a
    tridiagonal matrix on each sector and zero between them.  Returns
    ``(levels, band)`` for s = 0 and s = 1.
    """
    sectors = []
    for s in (0, 1):
        n = np.arange(s, dim, 2)
        sectors.append((n, np.sqrt(n[:-1] + 1.0) * np.sqrt(n[:-1] + 2.0)))
    return tuple(sectors)


def sector_tridiagonal(upper: np.ndarray, lower: np.ndarray | None = None, diag=0.0) -> np.ndarray:
    """One sector's block: ``diag``, and ``upper`` and ``lower`` (default ``upper``)
    on the pair band above and below it, written (not summed) into exact zeros."""
    lower = upper if lower is None else lower
    k = len(upper) + 1
    out = np.zeros((k, k), dtype=np.result_type(upper, lower, diag))
    flat = out.reshape(-1)
    flat[:: k + 1], flat[1 :: k + 1], flat[k :: k + 1] = diag, upper, lower
    return out


class Sectors(tuple):
    """A parity-keeping operator as its (even, odd) level blocks; zeros lie between."""


def join_sectors(dim: int, blocks, cols: int | None = None) -> np.ndarray:
    """Complex ``dim`` x ``dim`` matrix of the even and odd ``blocks`` as yielded, zeros
    between, or its first ``cols`` columns."""
    out = np.zeros((dim, cols or dim), dtype=complex)
    for s, block in enumerate(blocks):
        out[s::2, s::2] = block[:, : (out.shape[1] + 1 - s) // 2]
    return out


def exp_sectors(eigs, theta: float) -> Sectors:
    """exp(i theta H) of a parity-keeping H from each sector's (w, v), round-trip checked."""
    return Sectors(_exp_i_eig(_finite_phases(theta, w), v) for w, v in eigs)


FIXED_GENERATORS = ("gamma1", "gamma2")


@functools.lru_cache(maxsize=8)
def _generator_eig(dim: int, name: str) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    eigs = []
    # G1 is real, so solved real symmetric; G2 is solved on its own, not derived
    # from G1 by the U0 rotation the squeezing closure is meant to test
    for _, band in parity_sectors(dim):
        half = 0.5 * band if name == "gamma1" else 0.5j * band
        w, v = hermitian_eig(sector_tridiagonal(half, None if name == "gamma1" else -half))
        w.setflags(write=False)
        v.setflags(write=False)
        eigs.append((w, v))
    return tuple(eigs)


def exp_generator(space: FockSpace, name: str, theta: float) -> np.ndarray:
    """exp(i theta G) for G = G1 ("gamma1") or G2 ("gamma2") of ``su11_generators``.

    The generator's eigendecomposition is computed on each parity sector
    (and its hermiticity and reconstruction verified) once per
    (dim, generator) and cached as read-only arrays; every call still
    runs the round-trip guard on each sector.
    """
    if name not in FIXED_GENERATORS:
        raise ParameterError(f"unknown generator {name!r}; pick from {FIXED_GENERATORS}")
    return join_sectors(space.dim, exp_sectors(_generator_eig(space.dim, name), theta))


def commutator(A, B) -> np.ndarray:
    a, b = np.asarray(A, dtype=complex), np.asarray(B, dtype=complex)
    return a @ b - b @ a


def interior(matrix, n_keep: int) -> np.ndarray:
    """Restriction to the lowest ``n_keep`` levels (identities hold here)."""
    mat = np.asarray(matrix, dtype=complex)
    return mat[:n_keep, :n_keep]


def truncation_leak(matrix, space: FockSpace) -> float:
    """Largest weight any low-lying state places in the top 10% of levels.

    The columns for the lowest 10% of levels stand in for physically
    occupied states; their amplitude in the top 10% of rows measures how
    much the operation pushes population into the truncation edge.  Of
    ``Sectors`` the low columns are laid out as in the joined matrix.
    """
    dim = space.dim
    top_start = int(math.ceil(0.9 * dim))
    n_low = max(1, dim // 10)
    mat = join_sectors(dim, matrix, n_low) if isinstance(matrix, Sectors) else np.asarray(
        matrix, dtype=complex)
    weights = np.abs(mat[:, :n_low]) ** 2
    total = weights.sum(axis=0)
    total = np.where(total == 0.0, 1.0, total)
    return float((weights[top_start:, :].sum(axis=0) / total).max())


def warn_on_truncation_leak(matrix, space: FockSpace, context: str) -> float:
    leak = truncation_leak(matrix, space)
    if leak > LEAK_TOL:
        warnings.warn(
            f"{context}: low-lying states put {leak:.2e} of their weight in the "
            f"top 10% of {space.dim} levels (threshold {LEAK_TOL:.0e}); "
            "results near the truncation edge are unreliable",
            TruncationLeakWarning,
            stacklevel=2,
        )
    return leak
