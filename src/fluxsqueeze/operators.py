"""Truncated Fock-space numerics: ladder operators, squeezing-algebra
generators, Hermitian eigensolves, and matrix exponentials.

All matrices are dense complex arrays. Operator algebra identities hold
exactly only on an interior subspace; the truncation edge (top one or two
levels) is excluded wherever an identity is asserted.

Units: energies in GHz, times in ns. The phase accumulated by ``evolve``
is the plain product energy*time with no additional 2*pi factor.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidDimensionError,
    ParameterError,
    SimulationError,
    TruncationLeakWarning,
)

# Absolute tolerance for the Operator hermiticity flag (operator units).
HERMITICITY_ATOL = 1e-12
# Hermiticity (eigensolve) and anti-Hermiticity (exponential) tolerance
# for inputs, scaled by the largest matrix element.
EIG_INPUT_RTOL = 1e-10
# Unitarity and eigen-reconstruction residual bounds.
UNITARITY_ATOL = 1e-9
RECONSTRUCTION_RTOL = 1e-9
# exp(K)exp(-K) round-trip residual bound.
EXP_ROUNDTRIP_ATOL = 1e-9
# Hyperbolic-argument cap for the closed-form 2x2 exponential.  Beyond
# this the non-unitary representation grows without bound and results
# stop being physically interpretable.
HYPERBOLIC_CAP = 10.0
# A low-lying state may place at most this much weight in the top 10%
# of Fock levels before a truncation-leak warning fires.
LEAK_TOL = 1e-6


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


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix tied to a FockSpace.

    The matrix is copied and frozen at construction.  When ``hermitian``
    is asserted it is verified against ``HERMITICITY_ATOL``.
    """

    matrix: np.ndarray
    space: FockSpace
    hermitian: bool = field(default=False)

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (self.space.dim, self.space.dim):
            raise ParameterError(
                f"operator shape {mat.shape} does not match space dim {self.space.dim}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        if self.hermitian:
            residual = float(np.abs(mat - mat.conj().T).max())
            if residual > HERMITICITY_ATOL:
                raise ParameterError(
                    f"hermiticity flag asserted but max|M - M^dag| = {residual:.3e}"
                )

    @property
    def dim(self) -> int:
        return self.space.dim

    def dag(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.space, hermitian=self.hermitian)

    def _check_space(self, other: "Operator"):
        if other.space.dim != self.space.dim:
            raise ParameterError(
                f"operator dimensions differ: {self.space.dim} vs {other.space.dim}"
            )

    def __add__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(
            self.matrix + other.matrix,
            self.space,
            hermitian=self.hermitian and other.hermitian,
        )

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(
            self.matrix - other.matrix,
            self.space,
            hermitian=self.hermitian and other.hermitian,
        )

    def __mul__(self, scalar: complex) -> "Operator":
        keep = self.hermitian and np.imag(scalar) == 0.0
        return Operator(self.matrix * scalar, self.space, hermitian=keep)

    __rmul__ = __mul__

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_space(other)
        return Operator(self.matrix @ other.matrix, self.space)


def as_hermitian(matrix: np.ndarray, space: FockSpace) -> Operator:
    """Symmetrize roundoff away and return a flagged Hermitian operator."""
    sym = 0.5 * (matrix + matrix.conj().T)
    return Operator(sym, space, hermitian=True)


def annihilation(space: FockSpace) -> Operator:
    """Ladder-down operator, <m|a|n> = sqrt(n) delta_{m,n-1}."""
    return Operator(np.diag(np.sqrt(np.arange(1, space.dim)), 1), space)


def creation(space: FockSpace) -> Operator:
    return annihilation(space).dag()


def number(space: FockSpace) -> Operator:
    """a^dag a; exactly diagonal 0..dim-1 in the retained basis."""
    return Operator(np.diag(np.arange(space.dim, dtype=float)), space, hermitian=True)


def phase_charge_operators(
    space: FockSpace, m: float, omega: float
) -> tuple[Operator, Operator]:
    """Quadrature pair for an oscillator of mass ``m`` and frequency ``omega``:

        phi = sqrt(1/(2 m omega)) (a + a^dag)
        n   = i sqrt(m omega / 2) (a^dag - a)

    Both come back Hermitian; [phi, n] = i holds on the interior subspace.
    """
    if m <= 0 or omega <= 0:
        raise ParameterError(f"need m > 0 and omega > 0, got m={m}, omega={omega}")
    a = annihilation(space).matrix
    ad = a.conj().T
    phi = np.sqrt(1.0 / (2.0 * m * omega)) * (a + ad)
    n = 1j * np.sqrt(m * omega / 2.0) * (ad - a)
    return (
        Operator(phi, space, hermitian=True),
        Operator(n, space, hermitian=True),
    )


@dataclass(frozen=True)
class SU11Generators:
    """The squeezing-algebra triple.

    The Fock representation holds Hermitian Operators satisfying, on the
    interior subspace,

        [G1, G2] = -2i G3,  [G2, G3] = 2i G1,  [G3, G1] = 2i G2.

    The compact 2x2 representation holds plain matrices obeying the same
    relations exactly but non-Hermitian (the group admits no finite
    unitary irrep).
    """

    gamma1: "Operator | np.ndarray"
    gamma2: "Operator | np.ndarray"
    gamma3: "Operator | np.ndarray"
    space: FockSpace | None = None

    @property
    def rep(self) -> str:
        return "fock" if self.space is not None else "2x2"


def su11_generators(space: FockSpace) -> SU11Generators:
    """Fock-representation generators G1=(a^2+ad^2)/2, G2=i(a^2-ad^2)/2, G3=n+1/2."""
    a = annihilation(space).matrix
    ad = a.conj().T
    a2 = a @ a
    ad2 = ad @ ad
    g1 = 0.5 * (a2 + ad2)
    g2 = 0.5j * (a2 - ad2)
    g3 = np.diag(np.arange(space.dim) + 0.5).astype(complex)
    return SU11Generators(
        Operator(g1, space, hermitian=True),
        Operator(g2, space, hermitian=True),
        Operator(g3, space, hermitian=True),
        space=space,
    )


TAU_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
TAU_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
TAU_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def su11_generators_2x2() -> SU11Generators:
    """Exact non-Hermitian 2x2 representation: G1 = i tau_y, G2 = -i tau_x, G3 = tau_z."""
    return SU11Generators(1j * TAU_Y, -1j * TAU_X, TAU_Z.copy(), space=None)


def _as_matrix(op) -> np.ndarray:
    return op.matrix if isinstance(op, Operator) else np.asarray(op, dtype=complex)


def hermitian_eig(op) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator.

    Returns sorted-ascending eigenvalues and the unitary eigenvector
    matrix (columns).  The input must be Hermitian within
    ``EIG_INPUT_RTOL`` of its largest element; the reconstruction
    V diag(E) V^dag is verified against the input.  A float64 array is
    solved as a real symmetric matrix; other input is made complex.
    """
    mat = op if isinstance(op, np.ndarray) and op.dtype == np.float64 else _as_matrix(op)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    herm_res = float(np.abs(mat - mat.conj().T).max())
    if herm_res > EIG_INPUT_RTOL * scale:
        raise ParameterError(
            f"matrix is not Hermitian: max|M - M^dag| = {herm_res:.3e} (scale {scale:.3e})"
        )
    w, v = np.linalg.eigh(mat)
    recon = (v * w) @ v.conj().T
    res = float(np.abs(recon - mat).max())
    if res > RECONSTRUCTION_RTOL * scale:
        raise SimulationError(f"eigen-reconstruction residual {res:.3e} exceeds bound")
    return w, v


def hermitian_matrix_function(op, fn) -> np.ndarray:
    """f(M) for Hermitian M via eigendecomposition (exact within truncation)."""
    w, v = hermitian_eig(op)
    return (v * fn(w)) @ v.conj().T


def evolve(H, t: float) -> np.ndarray:
    """Unitary propagator U = exp(-i H t) of a Hermitian generator.

    Works for any dimension including the 2x2 representation; goes
    through the eigendecomposition, never a series expansion.
    """
    w, v = hermitian_eig(H)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    _check_unitary(u)
    return u


def _check_unitary(u: np.ndarray, atol: float = UNITARITY_ATOL):
    res = float(np.abs(u @ u.conj().T - np.eye(u.shape[0])).max())
    if res > atol:
        raise SimulationError(f"unitarity residual {res:.3e} exceeds {atol:.1e}")


def exp_2x2(K: np.ndarray) -> np.ndarray:
    """Closed-form exponential of a 2x2 complex matrix.

    Cayley-Hamilton for the traceless part B: B^2 = -det(B) I, hence
    exp(B) = cosh(mu) I + sinh(mu)/mu B with mu = sqrt(-det B).  This
    reproduces the single-generator hyperbolic/trigonometric formulas
    of the compact representation without any series truncation.

    Hyperbolic arguments are capped at ``HYPERBOLIC_CAP``; beyond it the
    non-unitary representation has grown by e^10 and we refuse to guess.
    """
    K = np.asarray(K, dtype=complex)
    if K.shape != (2, 2):
        raise ParameterError(f"exp_2x2 needs a 2x2 matrix, got {K.shape}")
    half_tr = 0.5 * (K[0, 0] + K[1, 1])
    B = K - half_tr * np.eye(2)
    mu = np.sqrt(complex(-(B[0, 0] * B[1, 1] - B[0, 1] * B[1, 0])))
    if abs(mu.real) > HYPERBOLIC_CAP:
        raise ParameterError(
            f"hyperbolic argument |{mu.real:.2f}| exceeds cap {HYPERBOLIC_CAP}; "
            "matrix elements would exceed cosh(10)"
        )
    if abs(mu) < 1e-300:
        body = np.eye(2, dtype=complex) + B
    else:
        body = np.cosh(mu) * np.eye(2) + (np.sinh(mu) / mu) * B
    return np.exp(half_tr) * body


def exp_normal(K) -> np.ndarray:
    """exp(K) for an anti-Hermitian matrix (or any 2x2 matrix, via the closed form).

    Every squeezing gate is the exponential of ``i`` times a Hermitian
    generator, so a larger input must satisfy K^dag = -K within
    ``EIG_INPUT_RTOL`` of its largest element; it then goes through the
    eigendecomposition of the Hermitian matrix -iK.  Any other matrix,
    normal or not, is rejected with ``ParameterError``.
    """
    mat = _as_matrix(K)
    if mat.shape == (2, 2):
        return exp_2x2(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    anti_res = float(np.abs(mat + mat.conj().T).max())
    if anti_res > EIG_INPUT_RTOL * scale:
        raise ParameterError(
            f"exp_normal needs an anti-Hermitian matrix beyond 2x2: "
            f"max|K + K^dag| = {anti_res:.3e} (scale {scale:.3e})"
        )
    # K = i H with H Hermitian
    w, v = np.linalg.eigh(-1j * mat)
    return _exp_i_eig(w, v)


def _exp_i_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(iH) from the eigenpairs (w, v) of a Hermitian H, checked by the
    exp(K)exp(-K) round trip with K = iH.

    For a real symmetric H (real ``v``) the products stay real and exp(-iH)
    is the conjugate of exp(iH).
    """
    if np.isrealobj(v):
        out = (v * np.cos(w)) @ v.T + 1j * ((v * np.sin(w)) @ v.T)
        inv = out.conj()
    else:
        out = (v * np.exp(1j * w)) @ v.conj().T
        inv = (v * np.exp(-1j * w)) @ v.conj().T
    res = float(np.abs(out @ inv - np.eye(v.shape[0])).max())
    if res > EXP_ROUNDTRIP_ATOL:
        raise SimulationError(f"exp(K)exp(-K) residual {res:.3e} exceeds bound")
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


def exp_sectors(eigs, theta: float) -> np.ndarray:
    """exp(i theta H) of a parity-conserving H from its sector eigenpairs.

    ``eigs`` holds (w, v) of H restricted to the even and then the odd
    levels; each sector is exponentiated (and round-trip checked) on its
    own and written into ``out[s::2, s::2]``, the entries between the
    sectors staying exact zeros.
    """
    dim = sum(len(w) for w, _ in eigs)
    out = np.zeros((dim, dim), dtype=complex)
    for s, (w, v) in enumerate(eigs):
        out[s::2, s::2] = _exp_i_eig(theta * w, v)
    return out


FIXED_GENERATORS = ("gamma1", "gamma2")


@functools.lru_cache(maxsize=8)
def _generator_eig(dim: int, name: str) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    eigs = []
    for _, band in parity_sectors(dim):
        if name == "gamma1":
            # G1 = (a^2 + a^dag^2)/2 is real: solved real symmetric
            block = 0.5 * (np.diag(band, 1) + np.diag(band, -1))
        else:
            # G2 = i(a^2 - a^dag^2)/2, solved on its own rather than derived
            # from G1 by the U0 rotation the squeezing closure is meant to test
            block = 0.5j * (np.diag(band, 1) - np.diag(band, -1))
        w, v = hermitian_eig(block)
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
    return exp_sectors(_generator_eig(space.dim, name), theta)


def commutator(A, B) -> np.ndarray:
    a, b = _as_matrix(A), _as_matrix(B)
    return a @ b - b @ a


def interior(matrix, n_keep: int) -> np.ndarray:
    """Restriction to the lowest ``n_keep`` levels (identities hold here)."""
    mat = _as_matrix(matrix)
    return mat[:n_keep, :n_keep]


def truncation_leak(matrix, space: FockSpace) -> float:
    """Largest weight any low-lying state places in the top 10% of levels.

    The columns for the lowest 10% of levels stand in for physically
    occupied states; their amplitude in the top 10% of rows measures how
    much the operation pushes population into the truncation edge.
    """
    mat = _as_matrix(matrix)
    dim = space.dim
    top_start = int(math.ceil(0.9 * dim))
    n_low = max(1, dim // 10)
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
