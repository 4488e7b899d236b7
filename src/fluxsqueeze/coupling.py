"""Spin side of the hybrid system: the product-space Hamiltonian and the
squeezing transformation that amplifies the coupling.

The closed forms (constants, loop field, bare coupling, effective
parameters, the gain sweep) and the unit convention live in ``physics``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import GeometryError, ParameterError, TruncationLeakError
from .operators import (
    UNITARY_TOL, FockSpace, TAU_X, TAU_Z, annihilation, exp_normal, join_sectors, parity_sectors,
    require_below, sector_tridiagonal, unitarity_residual,
)
from .physics import (
    _EDGE_AND_Z, MU_0, CircuitParams, CouplingGeometry, NVParams, _b0_terms, _circuit_value,
    _geometry_value, _or_inf,
)
# read as coupling.* by perfbench/worker.py (fock_record) and perfbench/tracing.py (TIMED)
from .physics import ZERO_FIELD_SPLITTING_GHZ, amplification_sweep, bare_coupling  # noqa: F401
from .physics import default_geometry, effective_params  # noqa: F401


def b0_profile(geom: CouplingGeometry, z: np.ndarray) -> np.ndarray:
    """Vectorized field profile along the symmetry line (for diagnostics);
    a profile that is not finite and positive raises ``GeometryError``."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0) or np.any(z >= geom.edge_length):
        raise GeometryError("profile positions must lie strictly inside (0, l)")
    with np.errstate(all="ignore"):
        b0 = MU_0 / (4.0 * math.pi) * _or_inf(_b0_terms, z, geom.edge_length, np.sqrt)
    if not np.all((b0 > 0) & (b0 < math.inf)):
        # a NaN fails both; an infinite value the largest, a zero the smallest
        for value in (np.min(b0), np.max(b0)):
            _geometry_value(float(value), "loop field profile", _EDGE_AND_Z)
    return b0


def total_hamiltonian(
    p: CircuitParams, nv: NVParams, g: float, space: FockSpace
) -> np.ndarray:
    """Hybrid Hamiltonian omega0 n + (omega_nv/2) tau_z + g (a + a^dag) tau_x.

    Built on the product space oscillator (x) spin with the spin as the
    fast index, total dimension 2*dim.  The flux is at the interaction
    working point, so the oscillator term carries omega0.  The diagonal
    and the two spin-flip bands are written into one zeroed array, which
    is exactly Hermitian by construction; a g sqrt(dim - 1) that is not finite is refused.
    """
    dim = space.dim
    _circuit_value(g * math.sqrt(dim - 1), "g x sqrt(dim - 1)", "g")
    mat = np.zeros((2 * dim, 2 * dim), dtype=complex)
    diag = mat.reshape(-1)[:: 2 * dim + 1]
    level = p.omega0 * np.arange(dim, dtype=float)
    half = 0.5 * nv.omega_nv
    diag[0::2] = level + half
    diag[1::2] = level - half
    # spin flips <n-1, s| H |n, 1-s> = g sqrt(n), three (s = 0) or one
    # (s = 1) column right of the diagonal, and their mirror images
    band = g * np.sqrt(np.arange(1, dim))
    m = 2 * np.arange(dim - 1)
    for row, col in ((m, m + 3), (m + 1, m + 2)):
        mat[row, col] = band
        mat[col, row] = band
    return mat


def squeeze_on_product(space: FockSpace, eta2: float) -> np.ndarray:
    """exp[eta2 (a^2 - a^dag^2)] acting on the oscillator factor only, for an
    eta2 whose product with the largest pair band entry is finite."""
    peak = math.sqrt(space.dim - 2) * math.sqrt(space.dim - 1)
    _circuit_value(eta2 * peak, "eta2 x max pair band", "eta2")
    # a^2 - a^dag^2 from the pair band of each parity sector: each entry is the single
    # nonzero term of the ladder products, the same bits as eta2 (a @ a - a^dag @ a^dag)
    blocks = (sector_tridiagonal(band, -band) for _, band in parity_sectors(space.dim))
    gen = eta2 * join_sectors(space.dim, blocks)
    # kept off the cached operators.exp_generator route: its result differs
    # at roundoff, which moves the selftest's printed conjugation_equivalence
    osc = exp_normal(gen)
    out = np.zeros((2 * space.dim, 2 * space.dim), dtype=complex)
    out[0::2, 0::2] = osc
    out[1::2, 1::2] = osc
    return out


def _gram_residual(S: np.ndarray) -> float:
    """max|S S^dag - 1|, taken on the oscillator factor F when S = F (x) 1.

    S is in that form when both off-spin blocks are exact zeros and its two
    spin blocks are equal; S S^dag is then (F F^dag) (x) 1, whose residual
    the dim-sized product gives.  Any other S is checked in full.
    """
    factor = S[0::2, 0::2]
    if not (S[0::2, 1::2].any() or S[1::2, 0::2].any()) and np.array_equal(
        factor, S[1::2, 1::2]
    ):
        S = factor
    return unitarity_residual(S)


def conjugate_hamiltonian(S: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Numerical similarity transform S H S^dag.

    S must be unitary on the working subspace to ``operators.UNITARY_TOL``,
    and S H S^dag Hermitian to that bound scaled by its largest element;
    squeezing pushed past the truncation breaks both and is rejected
    with ``TruncationLeakError``.  For ``squeeze_on_product``'s S = F (x) 1
    the unitarity check runs on F.  The 2*dim products share one S^dag
    copy and one work buffer.
    """
    S = np.asarray(S, dtype=complex)
    if S.shape != H.shape:
        raise ParameterError(f"shape mismatch: S {S.shape} vs H {H.shape}")
    require_below(
        _gram_residual(S), UNITARY_TOL, TruncationLeakError,
        "transform is not unitary, the squeeze leaked through the truncation edge: "
        "max|S S^dag - 1|",
    )
    s_dag = S.conj().T
    work = np.matmul(S, H)
    out = work @ s_dag
    out_dag = np.conjugate(out.T, out=s_dag)
    require_below(
        float(np.abs(np.subtract(out, out_dag, out=work)).max()),
        UNITARY_TOL * max(1.0, float(np.abs(out).max())), TruncationLeakError,
        "conjugated Hamiltonian lost hermiticity: max|H - H^dag|",
    )
    out += out_dag
    out *= 0.5
    return out


@functools.lru_cache(maxsize=4)
def _design(n_interior: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The basis operators' names and their read-only columns on the interior: real,
    as every entry is, so that a cached column holds half the bytes of a complex one."""
    # every entry of these Kronecker products is a single product, so building
    # them on the kept levels gives the interior block of the full-size ones
    a = annihilation(FockSpace(n_interior)).real
    ad = a.T
    eye_f = np.eye(n_interior)
    eye_s = np.eye(2)
    factors = {"const": (eye_f, eye_s), "number": (ad @ a, eye_s), "pair": (a @ a + ad @ ad, eye_s),
               "spin_z": (eye_f, 0.5 * TAU_Z.real), "coupling": (a + ad, TAU_X.real)}
    design = np.empty((4 * n_interior**2, len(factors)))
    for col, (osc, spin) in enumerate(factors.values()):
        design[:, col] = np.kron(osc, spin).ravel()
    design.setflags(write=False)
    return tuple(factors), design


def project_coupling_coefficients(
    H: np.ndarray, space: FockSpace, n_interior: int
) -> dict[str, float]:
    """Least-squares coefficients of H on the interior product subspace
    against the operator basis {1, n, a^2 + a^dag^2, tau_z/2, (a+a^dag) tau_x}.

    The interior keeps the lowest ``n_interior`` oscillator levels (both
    spin branches), away from the truncation edge where the conjugated
    matrix elements are corrupted.
    """
    mat = np.asarray(H)
    dim = space.dim
    if not 2 <= n_interior <= dim:
        raise ParameterError(f"n_interior={n_interior} outside 2..{dim}")
    kept = 2 * n_interior
    target = mat[:kept, :kept].ravel()
    names, design = _design(n_interior)
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    out = {name: float(c.real) for name, c in zip(names, coeffs)}
    residual = float(np.abs(design @ coeffs - target).max())
    out["residual"] = residual
    return out
