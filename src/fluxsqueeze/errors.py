"""Exception hierarchy shared by all modules.

The CLI maps these onto distinct process exit codes, so keep the
classification stable: configuration/validation problems, physical
instability, truncation/convergence trouble.
"""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(SimulationError):
    """Invalid scalar input, configuration value, or operator metadata."""


class InvalidDimensionError(ParameterError):
    """Fock-space truncation below the minimum of two levels."""


class GeometryError(ParameterError):
    """Loop geometry outside the domain of the field formula."""


class StabilityError(SimulationError):
    """Effective quadratic potential is inverted for these parameters."""


class WrongRegimeError(StabilityError):
    """Operating point outside the modelled regime: no squeezing
    interaction, or a squeeze past the 2x2 hyperbolic cap."""


class ConvergenceError(SimulationError):
    """Truncated results change too much when the basis is enlarged."""


class DegenerateSpectrumError(SimulationError):
    """Level spacing vanished where a finite gap is required."""


class TruncationLeakError(SimulationError):
    """An operator pushed too much weight into the truncation edge."""


class TruncationLeakWarning(UserWarning):
    """Soft version of TruncationLeakError for recoverable situations."""
