"""Flux-tunable circuit simulator: spectra, gate-composed squeezing,
and spin-oscillator coupling amplification on a truncated Fock space.

The names below are loaded on first access (PEP 562), so that importing
the package loads no numpy; see ``physics``."""

import importlib

__version__ = "0.1.0"

# first: sets OpenBLAS's idle policy before any module loads numpy
from . import _parallel  # noqa: F401

# defining module -> the names the package exports from it
_EXPORTS = {
    "physics": (
        "AmplificationRow", "CircuitParams", "CouplingGeometry", "EffectiveParams", "NVParams",
        "ReducedParams", "amplification_sweep", "bare_coupling", "bare_coupling_si",
        "biot_savart_b0", "cos_pi", "default_geometry", "effective_josephson",
        "effective_params", "reduced_params", "stability",
    ),
    "circuit": (
        "Spectrum", "anharmonicity", "converged_spectrum", "full_hamiltonian",
        "harmonic_hamiltonian", "quartic_hamiltonian", "spectrum",
    ),
    "coupling": ("conjugate_hamiltonian", "total_hamiltonian"),
    "errors": (
        "ConvergenceError", "DegenerateSpectrumError", "GeometryError", "InvalidDimensionError",
        "ParameterError", "SimulationError", "StabilityError", "TruncationLeakError",
        "TruncationLeakWarning", "WrongRegimeError",
    ),
    "gates": (
        "GateSchedule", "SqueezeResult", "analytic_us", "gate_distance", "gate_u0", "gate_u1",
        "make_schedule", "squeeze_operator", "trotter_squeeze",
    ),
    "operators": (
        "FockSpace", "SU11Generators", "annihilation", "exp_normal", "hermitian_eig",
        "make_fock_space", "phase_charge_operators", "su11_generators", "su11_generators_2x2",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("circuit", "coupling", "errors", "gates", "operators")

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
