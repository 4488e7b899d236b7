"""Spin side of the hybrid system: the product-space Hamiltonian, the
squeezing transformation that amplifies the coupling, and the gain sweep.

The closed forms (constants, loop field, bare coupling, effective
parameters) live in ``physics`` and are re-exported here; the unit
convention is the one stated there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ParameterError, TruncationLeakError
from .operators import FockSpace, TAU_X, TAU_Z, annihilation, exp_normal
from .physics import (  # noqa: F401 (re-exported)
    E_CHARGE, G_E, H_PLANCK, INTERACTION_FLUX, MU_0, MU_B, MU_B_GHZ_PER_T, PHI_0,
    ZERO_FIELD_SPLITTING_GHZ, CircuitParams, CouplingGeometry, EffectiveParams, NVParams, _b0_terms,
    bare_coupling, bare_coupling_si, biot_savart_b0, default_geometry, effective_josephson,
    effective_params, inductance_from_inductive_energy, inductance_mismatch,
    inductive_energy_from_inductance, reduced_params,
)


def b0_profile(geom: CouplingGeometry, z: np.ndarray) -> np.ndarray:
    """Vectorized field profile along the symmetry line (for diagnostics)."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0) or np.any(z >= geom.edge_length):
        raise GeometryError("profile positions must lie strictly inside (0, l)")
    return MU_0 / (4.0 * math.pi) * _b0_terms(z, geom.edge_length, np.sqrt, np.divide)


def total_hamiltonian(
    p: CircuitParams, nv: NVParams, g: float, space: FockSpace
) -> np.ndarray:
    """Hybrid Hamiltonian omega0 n + (omega_nv/2) tau_z + g (a + a^dag) tau_x.

    Built on the product space oscillator (x) spin with the spin as the
    fast index, total dimension 2*dim.  The flux is at the interaction
    working point, so the oscillator term carries omega0.  The diagonal
    and the two spin-flip bands are written into one zeroed array, which
    is exactly Hermitian by construction.
    """
    dim = space.dim
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
    """exp[eta2 (a^2 - a^dag^2)] acting on the oscillator factor only."""
    # a^2 - a^dag^2 from its pair band <n|a^2|n+2> = sqrt(n+1) sqrt(n+2):
    # each entry is the single nonzero term of the ladder products, so the
    # generator is the same bits as eta2 (a @ a - a^dag @ a^dag)
    n = np.arange(space.dim - 2)
    band = np.sqrt(n + 1.0) * np.sqrt(n + 2.0)
    pair = np.zeros((space.dim, space.dim), dtype=complex)
    np.fill_diagonal(pair[:, 2:], band)
    np.fill_diagonal(pair[2:, :], -band)
    gen = eta2 * pair
    # kept off the cached operators.exp_generator route: its result differs
    # at roundoff, which moves the selftest's printed conjugation_equivalence
    osc = exp_normal(gen)
    out = np.zeros((2 * space.dim, 2 * space.dim), dtype=complex)
    out[0::2, 0::2] = osc
    out[1::2, 1::2] = osc
    return out


UNITARY_TOL = 1e-8


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
    gram = S @ S.conj().T
    gram.reshape(-1)[:: S.shape[0] + 1] -= 1.0
    return float(np.abs(gram).max())


def conjugate_hamiltonian(S: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Numerical similarity transform S H S^dag.

    S must be unitary on the working subspace to ``UNITARY_TOL``;
    squeezing pushed past the truncation breaks that and is rejected.
    For ``squeeze_on_product``'s S = F (x) 1 the check runs on F.  The
    2*dim products share one S^dag copy and one work buffer.
    """
    S = np.asarray(S, dtype=complex)
    if S.shape != H.shape:
        raise ParameterError(f"shape mismatch: S {S.shape} vs H {H.shape}")
    unit_res = _gram_residual(S)
    if not unit_res <= UNITARY_TOL:
        raise TruncationLeakError(
            f"transform is not unitary (residual {unit_res:.3e}); the squeeze "
            "leaked through the truncation edge"
        )
    s_dag = S.conj().T
    work = np.matmul(S, H)
    out = work @ s_dag
    out_dag = np.conjugate(out.T, out=s_dag)
    herm_res = float(np.abs(np.subtract(out, out_dag, out=work)).max())
    if not herm_res <= UNITARY_TOL * max(1.0, float(np.abs(out).max())):
        raise TruncationLeakError(
            f"conjugated Hamiltonian lost hermiticity (residual {herm_res:.3e})"
        )
    out += out_dag
    out *= 0.5
    return out


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
    # every entry of these Kronecker products is a single product, so building
    # them on the kept levels gives the interior block of the full-size ones
    a = annihilation(FockSpace(n_interior))
    ad = a.conj().T
    eye_f = np.eye(n_interior, dtype=complex)
    eye_s = np.eye(2, dtype=complex)
    factors = {
        "const": (eye_f, eye_s),
        "number": (ad @ a, eye_s),
        "pair": (a @ a + ad @ ad, eye_s),
        "spin_z": (eye_f, 0.5 * TAU_Z),
        "coupling": (a + ad, TAU_X),
    }
    kept = 2 * n_interior
    target = mat[:kept, :kept].ravel()
    design = np.empty((kept * kept, len(factors)), dtype=complex)
    for col, (osc, spin) in enumerate(factors.values()):
        design[:, col] = np.kron(osc, spin).ravel()
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    out = {name: float(c.real) for name, c in zip(factors, coeffs)}
    residual = float(np.abs(design @ coeffs - target).max())
    out["residual"] = residual
    return out


@dataclass(frozen=True)
class AmplificationRow:
    """One point of the gain sweep; unstable points carry NaNs and a flag."""

    ratio: float
    f_s: float
    eta1: float
    eta2: float
    gain: float
    g_eff: float
    status: str


def amplification_sweep(
    e_c: float,
    ratios: tuple[float, ...],
    t: float,
    fs_grid: np.ndarray,
    e_l: float = 58.6,
    geometry: CouplingGeometry | None = None,
    two_pi: bool = False,
) -> list[AmplificationRow]:
    """Gain table g_eff/g over flux for several E_L/E_J ratios.

    E_L is held fixed (the loop hardware) and E_J = E_L / ratio, so the
    bare coupling g is one number for the whole table.  eta2 = -eta1 * t
    with the plain GHz*ns phase; ``two_pi`` switches in the alternative
    angular convention eta2 = -2 pi eta1 t for sensitivity studies.
    Unstable points become flagged gap rows instead of failures.
    """
    phase = 2.0 * math.pi if two_pi else 1.0
    f_s_values = [float(f_s) for f_s in fs_grid]
    fs = np.array(f_s_values)
    rows: list[AmplificationRow] = []
    for ratio in ratios:
        if not ratio > 0:
            raise ParameterError(f"E_L/E_J ratio must be positive, got {ratio}")
        p0 = CircuitParams(e_c=e_c, e_j=e_l / ratio, e_l=e_l, f_s=INTERACTION_FLUX)
        geom = geometry if geometry is not None else default_geometry(p0)
        g = bare_coupling(p0, geom)
        # the whole grid at once, with the operations of stability() and
        # reduced_params() in their order, so every point has the scalar bits;
        # the points these formulas cannot take are rejected or flagged below
        with np.errstate(all="ignore"):
            ejf = effective_josephson(p0.e_j, fs)
            margin = p0.e_l + 0.5 * ejf
            stiffness = 2.0 * p0.e_l + ejf
            eta1 = 0.25 * (p0.e_c / (2.0 * stiffness)) * ejf
            # + 0.0 normalizes the negative zero at the sweet spot
            eta2 = -eta1 * t * phase + 0.0
        # boundary points (margin exactly 0) have no quadratic reduction
        # either, so they land in the gap branch with the unstable ones
        usable = (margin >= 0.0) & (stiffness > 0)
        for f_s, ok, eta1_i, eta2_i in zip(
            f_s_values, usable.tolist(), eta1.tolist(), eta2.tolist()
        ):
            if not math.isfinite(f_s):
                raise ParameterError(f"f_s must be finite, got {f_s}")
            if not ok:
                rows.append(
                    AmplificationRow(
                        ratio=ratio,
                        f_s=f_s,
                        eta1=math.nan,
                        eta2=math.nan,
                        gain=math.nan,
                        g_eff=math.nan,
                        status="unstable",
                    )
                )
                continue
            # math.exp per point: numpy's exp does not round as it does
            try:
                gain = math.exp(2.0 * eta2_i)
            except OverflowError:
                gain = math.inf
            if not (math.isfinite(eta2_i) and math.isfinite(g * gain)):
                raise ParameterError(
                    f"coupling gain exp(2 eta2) overflows float at ratio={ratio}, "
                    f"f_s={f_s} (eta2={eta2_i:.6g}); shorten the evolution "
                    f"time run.t (t={t} ns)"
                )
            rows.append(
                AmplificationRow(
                    ratio=ratio,
                    f_s=f_s,
                    eta1=eta1_i,
                    eta2=eta2_i,
                    gain=gain,
                    g_eff=g * gain,
                    status="ok",
                )
            )
    return rows
