"""Spin side of the hybrid system: transition frequency, loop field,
bare coupling, the product-space Hamiltonian, and the exponential
amplification delivered by the squeezing transformation.

Internal unit convention: every energy-like quantity is stored in GHz
(value = E/h / 1e9); geometry is SI (meters, henries, tesla/ampere).
The presentation "2 pi x ... kHz" seen in the literature is a display
concern handled by the CLI, never an internal factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import CircuitParams, reduced_params, stability
from .errors import GeometryError, ParameterError, StabilityError, TruncationLeakError
from .operators import (
    FockSpace,
    Operator,
    TAU_X,
    TAU_Z,
    annihilation,
    as_hermitian,
    exp_normal,
)

# CODATA 2018 constants, SI
H_PLANCK = 6.62607015e-34          # J s (exact)
E_CHARGE = 1.602176634e-19         # C (exact)
MU_B = 9.2740100783e-24            # J/T
G_E = 2.00231930436256             # electron g-factor magnitude
MU_0 = 1.25663706212e-6            # N/A^2
PHI_0 = H_PLANCK / (2.0 * E_CHARGE)  # Wb, superconducting flux quantum

# Bohr magneton expressed in the internal energy unit
MU_B_GHZ_PER_T = MU_B / H_PLANCK / 1e9

ZERO_FIELD_SPLITTING_GHZ = 2.87
# Flux working point at which the spin-oscillator interaction is evaluated.
INTERACTION_FLUX = 0.5


@dataclass(frozen=True)
class NVParams:
    """Two-level defect spin: zero-field splitting and Zeeman shift, GHz."""

    zeeman: float
    d: float = ZERO_FIELD_SPLITTING_GHZ

    @property
    def omega_nv(self) -> float:
        return self.d - self.zeeman


def nv_frequency(nv: NVParams) -> float:
    """Transition frequency of the spin's lowest two sublevels (GHz)."""
    return nv.omega_nv


@dataclass(frozen=True)
class CouplingGeometry:
    """Square-loop geometry: edge length, spin position, loop inductance (SI).

    The spin sits on the symmetry line at distance z_nv from one edge;
    the field formula diverges at the edges, so 0 < z_nv < l strictly.
    """

    edge_length: float
    z_nv: float
    inductance: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.edge_length, self.z_nv, self.inductance))):
            raise GeometryError(
                f"geometry must be finite, got edge_length={self.edge_length}, "
                f"z_nv={self.z_nv}, inductance={self.inductance}"
            )
        if not (0.0 < self.z_nv < self.edge_length):
            raise GeometryError(
                f"spin position z_nv={self.z_nv} must lie strictly inside "
                f"(0, {self.edge_length})"
            )
        if not self.inductance > 0:
            raise GeometryError(f"inductance must be positive, got {self.inductance}")


def _finite(value: float, what: str, geom_desc: str) -> float:
    if not math.isfinite(value):
        raise GeometryError(f"{what} is not finite ({value}) for {geom_desc}")
    return value


def inductive_energy_from_inductance(inductance_h: float) -> float:
    """E_L = Phi_0^2 / (8 pi^2 L), returned in GHz."""
    if not inductance_h > 0:
        raise GeometryError(f"inductance must be positive, got {inductance_h}")
    e_l_joule = PHI_0**2 / (8.0 * math.pi**2 * inductance_h)
    return _finite(e_l_joule / H_PLANCK / 1e9, "E_L", f"inductance={inductance_h}")


def inductance_from_inductive_energy(e_l_ghz: float) -> float:
    """Inverse of the E_L(L) relation, returned in henries."""
    if not e_l_ghz > 0:
        raise ParameterError(f"E_L must be positive, got {e_l_ghz}")
    return PHI_0**2 / (8.0 * math.pi**2 * e_l_ghz * 1e9 * H_PLANCK)


def inductance_mismatch(e_l_ghz: float, inductance_h: float) -> float:
    """Relative disagreement between a quoted E_L and a quoted L."""
    return abs(inductive_energy_from_inductance(inductance_h) - e_l_ghz) / e_l_ghz


def default_geometry(
    p: CircuitParams,
    edge_length: float = 10e-6,
    z_nv: float = 0.01e-6,
    inductance: float | None = None,
) -> CouplingGeometry:
    """Geometry with the documented default loop size.

    The 10 um edge is an assumption, not a measured value: with
    z_nv << l the near-edge field term dominates and the coupling is
    insensitive to l at the order-of-magnitude level.  When no
    inductance is given it is derived from the circuit's E_L so the two
    are consistent by construction.
    """
    if inductance is None:
        inductance = inductance_from_inductive_energy(p.e_l)
    return CouplingGeometry(edge_length=edge_length, z_nv=z_nv, inductance=inductance)


def _describe(geom: CouplingGeometry) -> str:
    return f"edge_length={geom.edge_length}, z_nv={geom.z_nv}, inductance={geom.inductance}"


def _b0_terms(z, l):
    near = (l**2 + 2.0 * z**2) / (l * z * np.sqrt((l / 2.0) ** 2 + z**2))
    far = (3.0 * l**2 - 4.0 * l * z + 2.0 * z**2) / (
        l * (l - z) * np.sqrt((l - z) ** 2 + (l / 2.0) ** 2)
    )
    return near + far


def biot_savart_b0(geom: CouplingGeometry) -> float:
    """On-axis field of the square loop per unit current, tesla/ampere.

    Two-term line-integral result for a point on the symmetry line at
    distance z_nv from one edge; exactly symmetric under z -> l - z.
    A geometry whose field overflows float raises ``GeometryError``.
    """
    try:
        with np.errstate(all="ignore"):
            b0 = float(MU_0 / (4.0 * math.pi) * _b0_terms(geom.z_nv, geom.edge_length))
    except (OverflowError, ZeroDivisionError):
        b0 = math.inf
    return _finite(b0, "loop field per unit current", _describe(geom))


def b0_profile(geom: CouplingGeometry, z: np.ndarray) -> np.ndarray:
    """Vectorized field profile along the symmetry line (for diagnostics)."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0) or np.any(z >= geom.edge_length):
        raise GeometryError("profile positions must lie strictly inside (0, l)")
    return MU_0 / (4.0 * math.pi) * _b0_terms(z, geom.edge_length)


def _beta_quarter_at_working_point(p: CircuitParams) -> float:
    working = replace(p, f_s=INTERACTION_FLUX)
    return reduced_params(working).beta ** 0.25


def bare_coupling(p: CircuitParams, geom: CouplingGeometry) -> float:
    """Spin-oscillator coupling g in GHz (internal-unit route).

    g = g_e mu_B Phi_0 B0(z_nv) beta^(1/4) / (2 sqrt(2) pi L), with beta
    evaluated at the interaction working point f_s = 1/2 regardless of
    the flux currently stored in ``p`` (the interferometer is parked
    there whenever the spin matters).  A coupling that overflows float
    raises ``GeometryError``.
    """
    b0 = biot_savart_b0(geom)
    beta_q = _beta_quarter_at_working_point(p)
    g = (
        G_E
        * MU_B_GHZ_PER_T
        * PHI_0
        * b0
        * beta_q
        / (2.0 * math.sqrt(2.0) * math.pi * geom.inductance)
    )
    return _finite(g, "spin-loop coupling", _describe(geom))


def bare_coupling_si(p: CircuitParams, geom: CouplingGeometry) -> float:
    """Same coupling computed end-to-end in SI (joules), converted last.

    Kept as an independent route so a cross-check catches unit-chain and
    2*pi bookkeeping defects; must agree with ``bare_coupling`` to
    better than 1e-10 relative.
    """
    b0 = biot_savart_b0(geom)
    beta_q = _beta_quarter_at_working_point(p)
    g_joule = (
        G_E * MU_B * PHI_0 * b0 * beta_q / (2.0 * math.sqrt(2.0) * math.pi * geom.inductance)
    )
    return _finite(g_joule / H_PLANCK / 1e9, "spin-loop coupling (SI route)", _describe(geom))


def total_hamiltonian(
    p: CircuitParams, nv: NVParams, g: float, space: FockSpace
) -> Operator:
    """Hybrid Hamiltonian omega0 n + (omega_nv/2) tau_z + g (a + a^dag) tau_x.

    Built on the product space oscillator (x) spin with the spin as the
    fast index, total dimension 2*dim.  The flux is at the interaction
    working point, so the oscillator term carries omega0.
    """
    dim = space.dim
    eye_f = np.eye(dim)
    eye_s = np.eye(2)
    n_diag = np.diag(np.arange(dim, dtype=float))
    a = annihilation(space).matrix
    x_pair = a + a.conj().T
    mat = (
        p.omega0 * np.kron(n_diag, eye_s)
        + 0.5 * nv.omega_nv * np.kron(eye_f, TAU_Z)
        + g * np.kron(x_pair, TAU_X)
    )
    return as_hermitian(mat, FockSpace(2 * dim))


@dataclass(frozen=True)
class EffectiveParams:
    """Squeezing-transformed circuit frequency, photon-pair strength, coupling."""

    omega_eff: float
    chi: float
    g_eff: float
    eta2: float


def effective_params(p: CircuitParams, g: float, eta2: float) -> EffectiveParams:
    """Closed forms of the squeezing transformation:

        omega_eff = omega0 cosh(4 eta2)
        chi       = omega0 sinh(4 eta2) / 2
        g_eff     = g exp(2 eta2)

    satisfying omega_eff^2 - 4 chi^2 = omega0^2.
    """
    w0 = p.omega0
    return EffectiveParams(
        omega_eff=w0 * math.cosh(4.0 * eta2),
        chi=0.5 * w0 * math.sinh(4.0 * eta2),
        g_eff=g * math.exp(2.0 * eta2),
        eta2=eta2,
    )


def squeeze_on_product(space: FockSpace, eta2: float) -> np.ndarray:
    """exp[eta2 (a^2 - a^dag^2)] acting on the oscillator factor only."""
    a = annihilation(space).matrix
    gen = eta2 * (a @ a - a.conj().T @ a.conj().T)
    # kept off the cached operators.exp_generator route: its result differs
    # at roundoff, which moves the selftest's printed conjugation_equivalence
    return np.kron(exp_normal(gen), np.eye(2, dtype=complex))


UNITARY_TOL = 1e-8


def conjugate_hamiltonian(S: np.ndarray, H: Operator) -> Operator:
    """Numerical similarity transform S H S^dag.

    S must be unitary on the working subspace to ``UNITARY_TOL``;
    squeezing pushed past the truncation breaks that and is rejected.
    """
    S = np.asarray(S, dtype=complex)
    if S.shape != H.matrix.shape:
        raise ParameterError(f"shape mismatch: S {S.shape} vs H {H.matrix.shape}")
    unit_res = float(np.abs(S @ S.conj().T - np.eye(S.shape[0])).max())
    if unit_res > UNITARY_TOL:
        raise TruncationLeakError(
            f"transform is not unitary (residual {unit_res:.3e}); the squeeze "
            "leaked through the truncation edge"
        )
    out = S @ H.matrix @ S.conj().T
    herm_res = float(np.abs(out - out.conj().T).max())
    if herm_res > UNITARY_TOL * max(1.0, float(np.abs(out).max())):
        raise TruncationLeakError(
            f"conjugated Hamiltonian lost hermiticity (residual {herm_res:.3e})"
        )
    return as_hermitian(out, H.space)


def project_coupling_coefficients(
    H: Operator | np.ndarray, space: FockSpace, n_interior: int
) -> dict[str, float]:
    """Least-squares coefficients of H on the interior product subspace
    against the operator basis {1, n, a^2 + a^dag^2, tau_z/2, (a+a^dag) tau_x}.

    The interior keeps the lowest ``n_interior`` oscillator levels (both
    spin branches), away from the truncation edge where the conjugated
    matrix elements are corrupted.
    """
    mat = H.matrix if isinstance(H, Operator) else np.asarray(H)
    dim = space.dim
    if not 2 <= n_interior <= dim:
        raise ParameterError(f"n_interior={n_interior} outside 2..{dim}")
    a = annihilation(space).matrix
    ad = a.conj().T
    eye_f = np.eye(dim, dtype=complex)
    eye_s = np.eye(2, dtype=complex)
    basis = {
        "const": np.kron(eye_f, eye_s),
        "number": np.kron(ad @ a, eye_s),
        "pair": np.kron(a @ a + ad @ ad, eye_s),
        "spin_z": np.kron(eye_f, 0.5 * TAU_Z),
        "coupling": np.kron(a + ad, TAU_X),
    }
    keep = np.zeros(dim, dtype=bool)
    keep[:n_interior] = True
    sel = np.repeat(keep, 2)
    target = mat[np.ix_(sel, sel)].ravel()
    design = np.stack([b[np.ix_(sel, sel)].ravel() for b in basis.values()], axis=1)
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    out = {name: float(c.real) for name, c in zip(basis, coeffs)}
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
    rows: list[AmplificationRow] = []
    for ratio in ratios:
        if not ratio > 0:
            raise ParameterError(f"E_L/E_J ratio must be positive, got {ratio}")
        p0 = CircuitParams(e_c=e_c, e_j=e_l / ratio, e_l=e_l, f_s=INTERACTION_FLUX)
        geom = geometry if geometry is not None else default_geometry(p0)
        g = bare_coupling(p0, geom)
        for f_s in fs_grid:
            p = replace(p0, f_s=float(f_s))
            # boundary points (margin exactly 0) have no quadratic reduction
            # either, so they land in the gap branch with the unstable ones
            try:
                usable = stability(p).stable
                r = reduced_params(p) if usable else None
            except StabilityError:
                r = None
            if r is None:
                rows.append(
                    AmplificationRow(
                        ratio=ratio,
                        f_s=float(f_s),
                        eta1=math.nan,
                        eta2=math.nan,
                        gain=math.nan,
                        g_eff=math.nan,
                        status="unstable",
                    )
                )
                continue
            # + 0.0 normalizes the negative zero at the sweet spot
            eta2 = -r.eta1 * t * phase + 0.0
            try:
                gain = math.exp(2.0 * eta2)
            except OverflowError:
                gain = math.inf
            if not (math.isfinite(eta2) and math.isfinite(g * gain)):
                raise ParameterError(
                    f"coupling gain exp(2 eta2) overflows float at ratio={ratio}, "
                    f"f_s={float(f_s)} (eta2={eta2:.6g}); shorten the evolution "
                    f"time run.t (t={t} ns)"
                )
            rows.append(
                AmplificationRow(
                    ratio=ratio,
                    f_s=float(f_s),
                    eta1=r.eta1,
                    eta2=eta2,
                    gain=gain,
                    g_eff=g * gain,
                    status="ok",
                )
            )
    return rows
