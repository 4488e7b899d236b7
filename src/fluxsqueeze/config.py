"""Run configuration: flat key-value files with dotted section prefixes.

Grammar (one assignment per line):

    # comment
    circuit.e_c = 0.12
    sweep.ratios = 1.005, 1.01, 1.05, 1.1
    numerics.two_pi = false

Unknown keys are rejected (fail-closed), values are coerced to the
declared type, and command-line flags override file values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ParameterError
from .physics import CircuitParams, CouplingGeometry, default_geometry


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


def _all_finite(value) -> bool:
    """``None`` means unset; a tuple (sweep.ratios) is tested element-wise."""
    items = value if isinstance(value, tuple) else (value,)
    return all(x is None or math.isfinite(x) for x in items)


def _at_least(n: int) -> tuple:
    return ((f">= {n}", lambda x: x >= n),)


# the checks of a key: (what its value must be, test) pairs, run in order
FINITE = (("finite", _all_finite),)
POSITIVE = FINITE + (("positive", lambda x: x > 0),)

# config key -> (RunConfig attribute, parser, CLI flag or None, flag help,
# checks); a flag's value goes through the same parser as the key's file value
KNOWN_KEYS = {
    "circuit.e_c": ("e_c", float, None, None, POSITIVE),
    "circuit.e_j": ("e_j", float, None, None, POSITIVE),
    "circuit.e_l": ("e_l", float, None, None, POSITIVE),
    "circuit.f_s": ("f_s", float, None, None, FINITE),
    "geometry.edge_length": ("edge_length", float, None, None, POSITIVE),
    "geometry.z_nv": ("z_nv", float, None, None, POSITIVE),
    "geometry.inductance": ("inductance", _optional(float), None, None, FINITE),
    "sweep.fs_min": ("fs_min", float, "--fs-min", "sweep start flux", FINITE),
    "sweep.fs_max": ("fs_max", float, "--fs-max", "sweep end flux", FINITE),
    "sweep.fs_steps": ("fs_steps", int, "--fs-steps", "sweep point count", _at_least(2)),
    "sweep.ratios": ("ratios", _parse_floats, "--ratios", "comma list of E_L/E_J ratios", FINITE),
    "run.t": (
        "t", _optional(float), "--t", "evolution time in ns (trotter: sweep max)",
        FINITE + (("non-negative", lambda t: t is None or t >= 0),),
    ),
    "run.t_steps": ("t_steps", int, None, None, _at_least(2)),
    "run.m": ("m_steps", int, "--M", "interleaving step count", _at_least(1)),
    "numerics.dim": ("dim", int, "--dim", "Fock truncation dimension", _at_least(2)),
    "numerics.two_pi": (
        "two_pi", parse_bool, "--two-pi",
        "use the angular 2*pi*GHz*ns phase convention in the gain sweep", (),
    ),
    "numerics.convention": (
        "convention", str, None, None,
        (("'matched' or 'swapped'", lambda c: c in ("matched", "swapped")),),
    ),
    "numerics.convergence_tol": (
        "convergence_tol", float, None, None,
        (("finite and > 0", lambda x: math.isfinite(x) and x > 0),),
    ),
    "trotter.threshold": ("trotter_threshold", float, None, None, FINITE),
    "output.path": ("out_path", _optional(str), "--out", "output path (default: stdout)", ()),
}


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


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one CLI invocation."""

    e_c: float = 0.12
    e_j: float = 58.0
    e_l: float = 58.6
    f_s: float = 0.9
    edge_length: float = 10e-6
    z_nv: float = 0.01e-6
    inductance: float | None = None
    fs_min: float = 0.5
    fs_max: float = 1.0
    fs_steps: int = 101
    ratios: tuple[float, ...] = (1.005, 1.01, 1.05, 1.1)
    t: float | None = None
    t_steps: int = 151
    m_steps: int = 100
    dim: int = DEFAULT_DIM
    two_pi: bool = False
    convention: str = "matched"
    convergence_tol: float = CONVERGENCE_TOL
    trotter_threshold: float = 0.02
    out_path: str | None = None

    def __post_init__(self):
        for key, (attr, *_, checks) in KNOWN_KEYS.items():
            value = getattr(self, attr)
            for what, ok in checks:
                if not ok(value):
                    raise ParameterError(f"{key} must be {what}, got {value!r}")
        if self.fs_steps * len(self.ratios) > MAX_GRID_POINTS:
            raise ParameterError(
                f"sweep.fs_steps = {self.fs_steps} at {len(self.ratios)} sweep.ratios "
                f"exceeds the grid budget of {MAX_GRID_POINTS} points"
            )
        if self.t_steps > MAX_GRID_POINTS:
            raise ParameterError(
                f"run.t_steps = {self.t_steps} exceeds the grid budget of "
                f"{MAX_GRID_POINTS} points"
            )
        if not self.fs_min < self.fs_max:
            raise ParameterError(
                f"sweep range is empty: fs_min={self.fs_min} >= fs_max={self.fs_max}"
            )
        if matrix_bytes(self.dim) > MAX_MATRIX_BYTES:
            raise ParameterError(
                f"numerics.dim = {self.dim} exceeds the budget of {MAX_MATRIX_BYTES} bytes "
                "for the dense matrices of its first two truncation rungs"
            )

    def circuit(self, f_s: float | None = None) -> CircuitParams:
        """The configured circuit, at flux ``f_s`` when one is given."""
        return CircuitParams(self.e_c, self.e_j, self.e_l, self.f_s if f_s is None else f_s)

    def geometry(self) -> CouplingGeometry:
        """The configured loop; its inductance is derived from E_L when unset."""
        return default_geometry(self.circuit(), self.edge_length, self.z_nv, self.inductance)


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
