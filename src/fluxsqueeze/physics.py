"""Closed-form scalars of the circuit and the spin-loop coupling, and the
coupling-gain table g_eff/g = exp(2 eta2) over flux.

No numpy at import: this module imports only the standard library and
``errors``.  ``amplify``, ``coupling``, ``--help``, ``--version`` and
configuration errors need nothing more, and loading numpy would be most
of their run time.  The rest of the package imports these names from here.

Each input field (here and in ``config.RunConfig``) declares its config key
and checks, which ``_check_fields`` runs; derived values and rules that join
two inputs go through ``_circuit_value``.  Both errors name the keys.

Units: energies in GHz (E/h / 1e9), geometry in SI (meters, henries,
tesla/ampere); "2 pi x ... kHz" is a CLI display concern, never an
internal factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Iterable, NamedTuple

from .errors import GeometryError, ParameterError, StabilityError

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

_COS_HALF_TURNS = (1.0, 0.0, -1.0, 0.0)


def cos_pi(x: float) -> float:
    """cos(pi * x), exact at half-integer x.

    The flux sweet spot f_s = 1/2 must give E_J(f_s) = 0 exactly so that
    downstream quantities (eta1, the quartic coefficient, g_eff/g) collapse
    to their harmonic-point values bit-for-bit.  ``math.cos`` rounds as
    numpy's ``cos`` does.
    """
    x = float(x)
    if not math.isfinite(x):
        return math.nan
    doubled = 2.0 * (x % 2.0)
    nearest = round(doubled)
    if doubled == nearest:
        return _COS_HALF_TURNS[nearest % 4]
    return math.cos(math.pi * x)


def effective_josephson(e_j: float, f_s: float) -> float:
    """Flux-dependent Josephson energy of the symmetric interferometer (GHz)."""
    return _circuit_value(2.0 * e_j * cos_pi(f_s), "E_J(f_s)", "circuit.e_j")


def _or_inf(fn, *args) -> float:
    """``fn(*args)``, or inf where float arithmetic overflows or divides by zero instead."""
    try:
        return fn(*args)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _circuit_value(value: float, what: str, keys: str, positive: bool = False,
                   error: type = ParameterError) -> float:
    """``value`` if finite (and positive, if asked), else an ``error`` naming ``keys``."""
    if not (abs(value) < math.inf and (value > 0 or not positive)):
        need = "finite and positive" if positive else "finite"
        raise error(f"{keys}: {what} = {value:.6g} is not {need}")
    return value


def _each(test):
    """``test``, run on each element of a tuple (sweep.ratios); ``None`` means unset."""
    return lambda v: all(map(test, v)) if isinstance(v, tuple) else v is None or test(v)


# the checks of an input field: (what its value must be, test) pairs, run in order
FINITE = (("finite", _each(math.isfinite)),)
POSITIVE = FINITE + (("positive", _each(lambda x: x > 0)),)


def _field(key: str, checks: tuple, default=MISSING, **metadata):
    """A dataclass field that declares its config key and its checks."""
    return field(default=default, metadata={"key": key, "checks": checks, **metadata})


def _check_fields(obj, error: type = ParameterError):
    """Run the declared checks of each field of ``obj``, in field order; the
    first that fails raises ``error`` naming the field's key."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        for what, ok in f.metadata["checks"]:
            if not ok(value):
                raise error(f"{f.metadata['key']} must be {what}, got {value!r}")


@dataclass(frozen=True)
class CircuitParams:
    """Energy scales (GHz) and applied normalized flux of the circuit."""

    e_c: float = _field("circuit.e_c", POSITIVE)
    e_j: float = _field("circuit.e_j", POSITIVE)
    e_l: float = _field("circuit.e_l", POSITIVE)
    f_s: float = _field("circuit.f_s", FINITE)

    def __post_init__(self):
        _check_fields(self)
        for what, value in (("basis-oscillator omega0", self.omega0), ("mass", self.mass)):
            _circuit_value(value, what, "circuit.e_c and circuit.e_l", positive=True)

    @functools.cached_property
    def ej_flux(self) -> float:
        return effective_josephson(self.e_j, self.f_s)

    @functools.cached_property
    def stiffness(self) -> float:
        """2 E_L + E_J(f_s), the phi^2 coefficient of the quartic reduction (GHz)."""
        return _circuit_value(
            2.0 * self.e_l + self.ej_flux, "2 E_L + E_J(f_s)", "circuit.e_j and circuit.e_l"
        )

    @property
    def omega0(self) -> float:
        """Frequency of the flux-independent basis oscillator."""
        return 2.0 * math.sqrt(self.e_c * self.e_l)

    @property
    def mass(self) -> float:
        return 1.0 / (2.0 * self.e_c)


class StabilityResult(NamedTuple):
    stable: bool
    margin: float


def stability(p: CircuitParams) -> StabilityResult:
    """Stable iff E_L + E_J(f_s)/2 >= 0; the margin is that quantity in GHz."""
    margin = p.e_l + 0.5 * p.ej_flux
    return StabilityResult(margin >= 0.0, margin)


def _require_stable(p: CircuitParams):
    result = stability(p)
    if not result.stable:
        raise StabilityError(
            f"inverted potential at f_s={p.f_s}: E_L + E_J(f_s)/2 = {result.margin:.6g} GHz"
        )


@dataclass(frozen=True)
class ReducedParams:
    """Scalar parameters of the mean-field quadratic reduction.

    omega1 + eta1 = sqrt(2 E_c (2 E_L + E_J(f_s))) by construction, and
    beta is the fourth power of the zero-point phase width of the reduced
    oscillator.
    """

    omega0: float
    omega1: float
    eta1: float
    beta: float


def reduced_params(p: CircuitParams) -> ReducedParams:
    """Closed-form omega1, eta1, beta for the current flux.

        beta  = E_c / (2 (2 E_L + E_J(f_s)))
        eta1  = beta E_J(f_s) / 4
        omega1 = sqrt(2 E_c (2 E_L + E_J(f_s))) - eta1
    """
    stiffness = p.stiffness
    if not stiffness > 0:
        raise StabilityError(
            f"2 E_L + E_J(f_s) = {stiffness:.6g} GHz <= 0 at f_s={p.f_s}; "
            "the quadratic reduction does not exist"
        )
    keys = "circuit.e_c, circuit.e_j, circuit.e_l and circuit.f_s"
    beta = _circuit_value(p.e_c / (2.0 * stiffness), "beta", keys)
    eta1 = _circuit_value(0.25 * beta * p.ej_flux, "eta1", keys)
    omega1 = _circuit_value(math.sqrt(2.0 * p.e_c * stiffness) - eta1, "omega1", keys)
    return ReducedParams(omega0=p.omega0, omega1=omega1, eta1=eta1, beta=beta)


@dataclass(frozen=True)
class NVParams:
    """Two-level defect spin: zero-field splitting and Zeeman shift, GHz."""

    zeeman: float = _field("zeeman", FINITE)
    d: float = _field("d", FINITE, ZERO_FIELD_SPLITTING_GHZ)

    def __post_init__(self):
        _check_fields(self)

    @property
    def omega_nv(self) -> float:
        """Transition frequency of the spin's lowest two sublevels (GHz)."""
        return self.d - self.zeeman


_EDGE_AND_Z = "geometry.edge_length and geometry.z_nv"
_GEOMETRY_KEYS = "geometry.edge_length, geometry.z_nv and geometry.inductance"
_geometry_value = functools.partial(_circuit_value, positive=True, error=GeometryError)


@dataclass(frozen=True)
class CouplingGeometry:
    """Square-loop geometry: edge length, spin position, loop inductance (SI).

    The spin sits on the symmetry line at distance z_nv from one edge;
    the field formula diverges at the edges, so 0 < z_nv < l strictly.
    """

    edge_length: float = _field("geometry.edge_length", POSITIVE)
    z_nv: float = _field("geometry.z_nv", POSITIVE)
    inductance: float = _field("geometry.inductance", POSITIVE)

    def __post_init__(self):
        _check_fields(self, GeometryError)
        # for finite floats, l - z > 0 exactly when z < l
        _geometry_value(self.edge_length - self.z_nv, "edge_length - z_nv", _EDGE_AND_Z)


def inductive_energy_from_inductance(inductance_h: float) -> float:
    """E_L = Phi_0^2 / (8 pi^2 L), returned in GHz."""
    _geometry_value(inductance_h, "loop inductance", "geometry.inductance")
    e_l_joule = PHI_0**2 / (8.0 * math.pi**2 * inductance_h)
    return _geometry_value(e_l_joule / H_PLANCK / 1e9, "E_L", "geometry.inductance")


def inductance_from_inductive_energy(e_l_ghz: float) -> float:
    """Inverse of the E_L(L) relation, returned in henries."""
    den = 8.0 * math.pi**2 * e_l_ghz * 1e9 * H_PLANCK
    inductance = PHI_0**2 / den if den > 0 else math.inf
    return _circuit_value(inductance, "loop inductance", "circuit.e_l", positive=True)


def inductance_mismatch(e_l_ghz: float, inductance_h: float) -> float:
    """Relative disagreement between a quoted E_L and a quoted L; one past
    float range raises ``GeometryError`` (0, full agreement, is valid)."""
    mismatch = abs(inductive_energy_from_inductance(inductance_h) - e_l_ghz) / e_l_ghz
    return _circuit_value(mismatch, "relative E_L mismatch", "circuit.e_l and geometry.inductance",
                          error=GeometryError)


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


def _b0_terms(z, l, sqrt=math.sqrt):
    """The two edge terms of the loop field at z; ``coupling.b0_profile``
    passes an array of z with numpy's ``sqrt``."""
    near = (l**2 + 2.0 * z**2) / (l * z * sqrt((l / 2.0) ** 2 + z**2))
    far = (3.0 * l**2 - 4.0 * l * z + 2.0 * z**2) / (
        l * (l - z) * sqrt((l - z) ** 2 + (l / 2.0) ** 2)
    )
    return near + far


def biot_savart_b0(geom: CouplingGeometry) -> float:
    """On-axis field of the square loop per unit current, tesla/ampere.

    Two-term line-integral result for a point on the symmetry line at
    distance z_nv from one edge; exactly symmetric under z -> l - z.
    A geometry whose field overflows float raises ``GeometryError``.
    """
    b0 = MU_0 / (4.0 * math.pi) * _or_inf(_b0_terms, geom.z_nv, geom.edge_length)
    return _geometry_value(b0, "loop field per unit current", _EDGE_AND_Z)


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
    return _geometry_value(g, "spin-loop coupling", _GEOMETRY_KEYS)


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
    g_si = g_joule / H_PLANCK / 1e9
    return _geometry_value(g_si, "spin-loop coupling (SI route)", _GEOMETRY_KEYS)


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

    satisfying omega_eff^2 - 4 chi^2 = omega0^2.  An omega_eff or g_eff (and
    so chi) that is not finite raises ``ParameterError`` naming its inputs.
    """
    w0 = p.omega0
    return EffectiveParams(
        omega_eff=_circuit_value(w0 * _or_inf(math.cosh, 4.0 * eta2), "omega_eff",
                                 "circuit.e_c, circuit.e_l and eta2"),
        chi=0.5 * w0 * math.sinh(4.0 * eta2),
        g_eff=_circuit_value(g * _or_inf(math.exp, 2.0 * eta2), "g_eff", "g and eta2"),
        eta2=eta2,
    )


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
    fs_grid: Iterable[float],
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
    # cos(pi f_s) is shared by every ratio; E_J(f_s) = 2 E_J cos(pi f_s)
    # is then formed as effective_josephson forms it
    cosines = [cos_pi(f_s) for f_s in f_s_values]
    rows: list[AmplificationRow] = []
    for ratio in ratios:
        if not ratio > 0:
            raise ParameterError(f"E_L/E_J ratio must be positive, got {ratio}")
        # the factors that do not depend on f_s are formed once, as the
        # first step of each product; a bad one names the keys amplify reads
        e_j = e_l / ratio
        two_e_j = _circuit_value(2.0 * e_j, f"2 E_J = 2 E_L / {ratio}",
                                 "circuit.e_l and sweep.ratios", positive=True)
        two_e_l = _circuit_value(2.0 * e_l, "2 E_L", "circuit.e_l")
        p0 = CircuitParams(e_c=e_c, e_j=e_j, e_l=e_l, f_s=INTERACTION_FLUX)
        geom = geometry if geometry is not None else default_geometry(p0)
        g = bare_coupling(p0, geom)
        # the operations of stability() and reduced_params() in their
        # order, on floats, without a CircuitParams per point
        for f_s, cosine in zip(f_s_values, cosines):
            if not math.isfinite(f_s):
                replace(p0, f_s=f_s)  # raises the declared circuit.f_s check
            ejf = two_e_j * cosine
            margin = e_l + 0.5 * ejf
            stiffness = two_e_l + ejf
            # boundary points (margin exactly 0) have no quadratic reduction
            # either, so they land in the gap branch with the unstable ones
            if not (margin >= 0.0 and stiffness > 0):
                nan = math.nan
                rows.append(AmplificationRow(ratio, f_s, nan, nan, nan, nan, "unstable"))
                continue
            eta1 = 0.25 * (p0.e_c / (2.0 * stiffness)) * ejf
            # + 0.0 normalizes the negative zero at the sweet spot
            eta2 = -eta1 * t * phase + 0.0
            gain = _or_inf(math.exp, 2.0 * eta2)
            if not (math.isfinite(eta2) and math.isfinite(g * gain)):
                raise ParameterError(
                    f"coupling gain exp(2 eta2) overflows float at ratio={ratio}, "
                    f"f_s={f_s} (eta2={eta2:.6g}); shorten the evolution "
                    f"time run.t (t={t} ns)"
                )
            rows.append(AmplificationRow(ratio, f_s, eta1, eta2, gain, g * gain, "ok"))
    return rows
