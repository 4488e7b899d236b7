"""Flux-tunable circuit simulator: spectra, gate-composed squeezing,
and spin-oscillator coupling amplification on a truncated Fock space."""

__version__ = "0.1.0"

# first: sets OpenBLAS's idle policy before any module below loads numpy
from . import _parallel  # noqa: F401
from .circuit import (
    CircuitParams,
    ReducedParams,
    Spectrum,
    anharmonicity,
    converged_spectrum,
    cos_pi,
    effective_josephson,
    full_hamiltonian,
    harmonic_hamiltonian,
    quartic_hamiltonian,
    reduced_params,
    spectrum,
    stability,
)
from .coupling import (
    AmplificationRow,
    CouplingGeometry,
    EffectiveParams,
    NVParams,
    amplification_sweep,
    bare_coupling,
    bare_coupling_si,
    biot_savart_b0,
    conjugate_hamiltonian,
    default_geometry,
    effective_params,
    total_hamiltonian,
)
from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    GeometryError,
    InvalidDimensionError,
    ParameterError,
    SimulationError,
    StabilityError,
    TruncationLeakError,
    TruncationLeakWarning,
    WrongRegimeError,
)
from .gates import (
    GateSchedule,
    SqueezeResult,
    analytic_us,
    gate_distance,
    gate_u0,
    gate_u1,
    make_schedule,
    squeeze_operator,
    squeeze_target,
    trotter_squeeze,
)
from .operators import (
    FockSpace,
    SU11Generators,
    annihilation,
    evolve,
    exp_normal,
    hermitian_eig,
    make_fock_space,
    phase_charge_operators,
    su11_generators,
    su11_generators_2x2,
)

__all__ = [name for name in dir() if not name.startswith("_")]
