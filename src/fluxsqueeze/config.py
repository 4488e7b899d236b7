"""Run configuration: flat key-value files with dotted section prefixes.

Grammar (one assignment per line):

    # comment
    circuit.e_c = 0.12
    sweep.ratios = 1.005, 1.01, 1.05, 1.1
    numerics.two_pi = false

Each key is declared once, as a ``RunConfig`` field, and ``KNOWN_KEYS``
indexes those fields by key.  Unknown keys are rejected (fail-closed),
values are coerced to the declared type, and command-line flags override
file values.  ``physics._check_fields`` runs each field's checks, work
budgets included; ``RunConfig.__post_init__`` adds those that join keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ParameterError
from .physics import (
    FINITE, POSITIVE, CircuitParams, CouplingGeometry, _check_fields, _circuit_value, _field,
    default_geometry,
)


def parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(part) for part in items)


def _optional(parse):
    """``parse``, with ``none`` and the empty string read as unset."""
    return lambda text: None if text.strip().lower() in ("", "none") else parse(text)


def _at_least(n: int) -> tuple:
    return ((f">= {n}", lambda x: x >= n),)

DEFAULT_DIM = 60  # Fock truncation; the convergence ladder doubles from here
CONVERGENCE_TOL = 1e-6  # GHz; a doubling must move the lowest levels by less than this

# Most points a run's grid may hold, checked before any work: sweep.fs_steps
# times the number of sweep.ratios (amplify keeps one row per flux point and
# ratio), and run.t_steps.  At peak, measured with tracemalloc on CPython
# 3.11 at 2^16 and 2^18 points, one amplify row costs about 1.16 kB (its
# AmplificationRow, cell strings and CSV line, and its share of the float
# grid list) and one trotter time about 2.8 kB (the numpy grids, the row's
# cell strings and its CSV line), so a grid at this size stays under about
# 0.75 GB.
MAX_GRID_POINTS = 2**18

# Most bytes the dense matrices of a run's first two truncation rungs, at
# numerics.dim and twice it, may take; checked before any work.  At peak,
# measured with tracemalloc at dims 120 to 480, a spectrum or selftest run
# holds about 42 complex dim x dim matrices (16 dim^2 bytes each), or 8.4
# per rung; the estimate counts 9 per rung and admits dims up to 1221.
MAX_MATRIX_BYTES = 2**30


def matrix_bytes(dim: int) -> int:
    """Estimated peak bytes of the first two rungs at ``dim``; allocates nothing."""
    return 9 * 16 * (dim**2 + (2 * dim) ** 2)


def _key(key, default, parse, checks, flag=None, text=None):
    """The RunConfig field of config key ``key``: its default, the parser of its
    text (a flag's value too), its checks, and its CLI flag and help, if any."""
    return _field(key, checks, default, row=(parse, flag, text))


_WITHIN_GRID = ((f"within the grid budget of {MAX_GRID_POINTS} points",
                 lambda n: n <= MAX_GRID_POINTS),)
_WITHIN_MATRICES = ((f"within the matrix budget of {MAX_MATRIX_BYTES} bytes",
                     lambda dim: matrix_bytes(dim) <= MAX_MATRIX_BYTES),)


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one CLI invocation.  Each field declares one
    config key; the field order is the order of the flags in ``--help``."""

    e_c: float = _key("circuit.e_c", 0.12, float, POSITIVE)
    e_j: float = _key("circuit.e_j", 58.0, float, POSITIVE)
    e_l: float = _key("circuit.e_l", 58.6, float, POSITIVE)
    f_s: float = _key("circuit.f_s", 0.9, float, FINITE)
    edge_length: float = _key("geometry.edge_length", 10e-6, float, POSITIVE)
    z_nv: float = _key("geometry.z_nv", 0.01e-6, float, POSITIVE)
    inductance: float | None = _key("geometry.inductance", None, _optional(float), FINITE)
    fs_min: float = _key("sweep.fs_min", 0.5, float, FINITE, "--fs-min", "sweep start flux")
    fs_max: float = _key("sweep.fs_max", 1.0, float, FINITE, "--fs-max", "sweep end flux")
    fs_steps: int = _key("sweep.fs_steps", 101, int, _at_least(2),
                         "--fs-steps", "sweep point count")
    ratios: tuple[float, ...] = _key("sweep.ratios", (1.005, 1.01, 1.05, 1.1), _parse_floats,
                                     POSITIVE, "--ratios", "comma list of E_L/E_J ratios")
    t: float | None = _key("run.t", None, _optional(float),
                           FINITE + (("non-negative", lambda t: t is None or t >= 0),),
                           "--t", "evolution time in ns (trotter: sweep max)")
    t_steps: int = _key("run.t_steps", 151, int, _at_least(2) + _WITHIN_GRID)
    m_steps: int = _key("run.m", 100, int, _at_least(1), "--M", "interleaving step count")
    dim: int = _key("numerics.dim", DEFAULT_DIM, int, _at_least(2) + _WITHIN_MATRICES,
                    "--dim", "Fock truncation dimension")
    two_pi: bool = _key("numerics.two_pi", False, parse_bool, (), "--two-pi",
                        "use the angular 2*pi*GHz*ns phase convention in the gain sweep")
    convention: str = _key("numerics.convention", "matched", str,
                           (("'matched' or 'swapped'", lambda c: c in ("matched", "swapped")),))
    convergence_tol: float = _key("numerics.convergence_tol", CONVERGENCE_TOL, float,
                                  (("finite and > 0", lambda x: math.isfinite(x) and x > 0),))
    trotter_threshold: float = _key("trotter.threshold", 0.02, float, FINITE)
    out_path: str | None = _key("output.path", None, _optional(str), (),
                                "--out", "output path (default: stdout)")

    def __post_init__(self):
        _check_fields(self)
        if self.fs_steps * len(self.ratios) > MAX_GRID_POINTS:
            raise ParameterError(
                f"sweep.fs_steps = {self.fs_steps} at {len(self.ratios)} sweep.ratios "
                f"exceeds the grid budget of {MAX_GRID_POINTS} points"
            )
        # for finite floats b - a > 0 exactly when a < b; an infinite width NaNs the grid
        _circuit_value(self.fs_max - self.fs_min, "fs_max - fs_min",
                       "sweep.fs_min and sweep.fs_max", positive=True)

    def circuit(self, f_s: float | None = None) -> CircuitParams:
        """The configured circuit, at flux ``f_s`` when one is given."""
        return CircuitParams(self.e_c, self.e_j, self.e_l, self.f_s if f_s is None else f_s)

    def geometry(self) -> CouplingGeometry:
        """The configured loop; its inductance is derived from E_L when unset."""
        return default_geometry(self.circuit(), self.edge_length, self.z_nv, self.inductance)


# config key -> (RunConfig attribute, parser, CLI flag or None, flag help, checks)
KNOWN_KEYS = {f.metadata["key"]: (f.name, *f.metadata["row"], f.metadata["checks"])
              for f in fields(RunConfig)}


def parse_value(key: str, text: str, source: str) -> tuple[str, object]:
    """The RunConfig attribute and value of one ``key = text`` setting;
    ``source`` (a file and line, or a flag) starts any error message."""
    if key not in KNOWN_KEYS:
        raise ParameterError(f"{source}: unknown config key {key!r}")
    attr, parse = KNOWN_KEYS[key][:2]
    try:
        return attr, parse(text.strip())
    except ValueError as exc:
        raise ParameterError(f"{source}: bad value for {key}: {exc}") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse the flat key-value grammar into RunConfig attribute values."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        attr, value = parse_value(key.strip(), rhs, f"{source}:{lineno}")
        values[attr] = value
    return values


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def build_config(file_values: dict | None = None, flag_values: dict | None = None) -> RunConfig:
    """Merge file values and flag overrides (flags win) into a RunConfig;
    a flag set to ``None`` unsets what the file gave."""
    merged = {**(file_values or {}), **(flag_values or {})}
    valid = {f.name for f in fields(RunConfig)}
    unknown = set(merged) - valid
    if unknown:
        raise ParameterError(f"unknown config attributes: {sorted(unknown)}")
    return RunConfig(**merged)
