"""Exception hierarchy shared by all modules.

Each class carries the CLI's process exit code and the label that starts
its one stderr line, so keep the classification stable:
configuration/validation problems, physical instability,
truncation/convergence trouble.
"""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""

    exit_code, label = 1, "error"


class ParameterError(SimulationError):
    """Invalid scalar input, configuration value, or operator metadata."""

    exit_code, label = 2, "configuration error"


class InvalidDimensionError(ParameterError):
    """Fock-space truncation below the minimum of two levels."""


class GeometryError(ParameterError):
    """Loop geometry outside the domain of the field formula."""


class StabilityError(SimulationError):
    """Effective quadratic potential is inverted for these parameters."""

    exit_code, label = 3, "stability error"


class WrongRegimeError(StabilityError):
    """Operating point outside the modelled regime: no squeezing
    interaction, or a squeeze past the 2x2 hyperbolic cap."""


class ConvergenceError(SimulationError):
    """Truncated results change too much when the basis is enlarged."""

    exit_code, label = 4, "convergence error"


class DegenerateSpectrumError(SimulationError):
    """Level spacing vanished where a finite gap is required."""

    exit_code, label = 4, "degenerate spectrum"


class TruncationLeakError(SimulationError):
    """An operator pushed too much weight into the truncation edge."""

    exit_code, label = 4, "convergence error"


class TruncationLeakWarning(UserWarning):
    """Soft version of TruncationLeakError for recoverable situations."""
