"""Seeded workload inputs and the checks applied to every artifact.

Standard library only: both the orchestrator (``run.py``) and the
in-process worker (``worker.py``) import this module, and the
orchestrator must not load numpy or the package it measures.

Iteration 0 of every CLI workload runs the commands at their default
flags, whose artifacts must match the reference digests below. Later
iterations perturb only values that leave the amount of work unchanged
(flux-grid endpoints, evolution times, the spin height); their artifacts
are checked by invariants instead.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("spectrum_sweep", "cli_light", "fock_squeeze")

# sha256 prefixes of the artifacts each command writes at default flags.
REFERENCE_DIGESTS = {
    "spectrum": "2da70ae751fe6c3e",
    "trotter": "f74dc6f19ddfa615",
    "amplify": "863a73112660e18d",
    "coupling": "c1292db1bf0ae343",
    "selftest": "3e1879d881bf28e2",
}

LIGHT_COMMANDS = ("trotter", "amplify", "coupling", "selftest")

# Warm processes per run. On a shared 2-vCPU machine the steady speed of
# one process differed from the next by up to 40%, so a run takes its warm
# samples from several; where start and warm-up are cheap, from more.
# Each is a multiple of run.PARTS.
WARM_PROCESSES = {"spectrum_sweep": 3, "cli_light": 9, "fock_squeeze": 3}

# fock_squeeze sizes: (f_s, t) pairs per dim, each squeezed with both
# backends, and the dims of the coupling conjugation chain.
FOCK_DIMS = (60, 120, 240)
FOCK_PAIRS_PER_DIM = 8
CHAIN_DIMS = (96, 192)
CHAIN_PER_DIM = 2

# Thresholds the package itself uses: the analytic closure bound of the
# selftest and the conjugation-equivalence bound of
# selftest._conjugation_equivalence.
CLOSURE_TOL = 1e-10
COEFF_RTOL = 1e-6
TRACEBACK = "Traceback (most recent call last)"


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def cli_inputs(workload: str, seed: int, index: int) -> list[tuple[str, list[str]]]:
    """(command, extra argv) pairs run by one iteration of a CLI workload."""
    if workload == "spectrum_sweep":
        commands = ("spectrum",)
    elif workload == "cli_light":
        commands = LIGHT_COMMANDS
    else:
        raise ValueError(f"{workload!r} is not a CLI workload")
    if index == 0:
        return [(c, []) for c in commands]
    rng = _rng(seed, index)
    argv = {
        # every point of [0.5, 1] is stable and accepted at dim 60
        "spectrum": [
            "--fs-min", f"{rng.uniform(0.5, 0.55):.6f}",
            "--fs-max", f"{rng.uniform(0.95, 1.0):.6f}",
        ],
        # 151 steps either way; t <= 15 stays below the 2x2 hyperbolic cap
        "trotter": ["--t", f"{rng.uniform(13.5, 15.0):.6f}"],
        "amplify": ["--t", f"{rng.uniform(0.8, 1.2):.6f}"],
        "coupling": ["--set", f"geometry.z_nv={rng.uniform(0.8e-8, 1.2e-8):.6e}"],
        "selftest": [],
    }
    return [(c, argv[c]) for c in commands]


def fock_inputs(seed: int, index: int) -> dict:
    """Squeeze pairs and conjugation strengths of one fock_squeeze iteration.

    f_s in (0.6, 0.9) keeps eta1 < 0 (the squeezing regime) with the
    oscillator stable; t in (0.5, 1.5) ns gives eta2 up to about 0.36.
    The conjugation chain keeps eta2 <= 0.2, the strength selftest uses:
    beyond it the interior projection at dim // 3 levels reaches levels
    the truncated squeeze has corrupted, and the coefficients stop
    matching the closed forms whatever the dimension.
    """
    rng = _rng(seed, index)
    squeeze = [
        [dim, round(rng.uniform(0.6, 0.9), 6), round(rng.uniform(0.5, 1.5), 6)]
        for dim in FOCK_DIMS
        for _ in range(FOCK_PAIRS_PER_DIM)
    ]
    chain = [
        [dim, round(rng.uniform(0.05, 0.2), 6)]
        for dim in CHAIN_DIMS
        for _ in range(CHAIN_PER_DIM)
    ]
    return {"squeeze": squeeze, "chain": chain}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _floats(cells: list[str]) -> list[float] | None:
    try:
        values = [float(c) for c in cells]
    except ValueError:
        return None
    return values if all(math.isfinite(v) for v in values) else None


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _flag(argv: list[str], name: str, default: float) -> float:
    return float(argv[argv.index(name) + 1]) if name in argv else default


def _csv_rows(text: str, n_cols: int) -> tuple[list[list[str]], list[str]]:
    lines = text.split("\n")
    problems = []
    if not lines or not lines[0].startswith("# "):
        problems.append("missing comment line")
    if text and not text.endswith("\n"):
        problems.append("missing final newline")
    rows = [line.split(",") for line in lines[2:] if line]
    if len(lines) < 2 or len(lines[1].split(",")) != n_cols:
        problems.append("bad header")
    if any(len(r) != n_cols for r in rows):
        problems.append(f"row without {n_cols} columns")
    return rows, problems


def _grid_matches(values: list[float], grid: list[float]) -> bool:
    return len(values) == len(grid) and all(abs(a - b) <= 1e-9 for a, b in zip(values, grid))


def _check_spectrum(argv: list[str], text: str) -> list[str]:
    rows, problems = _csv_rows(text, 10)
    if problems:
        return problems
    grid = _linspace(_flag(argv, "--fs-min", 0.5), _flag(argv, "--fs-max", 1.0), 101)
    flux = []
    for row in rows:
        values = _floats(row[:9])
        if values is None or row[9] != "ok":
            return [f"spectrum row {row[0]}: non-finite cell or status {row[9]!r}"]
        full, quartic = values[1:4], values[4:7]
        if not (full[0] < full[1] < full[2] and quartic[0] < quartic[1] < quartic[2]):
            return [f"spectrum row {row[0]}: levels not ascending"]
        flux.append(values[0])
    return [] if _grid_matches(flux, grid) else ["spectrum flux column is not the requested grid"]


def _check_trotter(argv: list[str], text: str) -> list[str]:
    rows, problems = _csv_rows(text, 19)
    if problems:
        return problems
    times = []
    for row in rows:
        values = _floats(row[:18])
        if values is None or row[18] not in ("ok", "exceeds"):
            return [f"trotter row {row[0]}: non-finite cell or status {row[18]!r}"]
        # the threshold is 0.02; a printed value at it may have rounded across
        if abs(values[17] - 0.02) > 1e-9 and (values[17] <= 0.02) != (row[18] == "ok"):
            return [f"trotter row {row[0]}: status disagrees with max_dev"]
        times.append(values[0])
    grid = _linspace(0.0, _flag(argv, "--t", 15.0), 151)
    return [] if _grid_matches(times, grid) else ["trotter time column is not the requested grid"]


def _check_amplify(argv: list[str], text: str) -> list[str]:
    rows, problems = _csv_rows(text, 7)
    if problems:
        return problems
    if len(rows) != 4 * 101:
        return [f"amplify has {len(rows)} rows, expected {4 * 101}"]
    for row in rows:
        if row[6] == "unstable":
            continue
        values = _floats(row[:6])
        if values is None or row[6] != "ok":
            return [f"amplify row {row[:2]}: non-finite cell or status {row[6]!r}"]
        eta2, gain = values[3], values[4]
        if not (gain > 0 and abs(gain - math.exp(2.0 * eta2)) <= 1e-9 * gain):
            return [f"amplify row {row[:2]}: gain is not exp(2 eta2)"]
    return []


def _check_coupling(argv: list[str], text: str) -> list[str]:
    try:
        coupling = json.loads(text)["coupling"]
    except (ValueError, KeyError, TypeError):
        return ["coupling report is not JSON with a coupling section"]
    g = coupling.get("g_ghz")
    if not (isinstance(g, float) and math.isfinite(g) and g > 0):
        return [f"coupling g_ghz={g!r} is not a positive finite number"]
    if abs(coupling.get("g_khz", math.nan) - g * 1e6) > 1e-9 * g * 1e6:
        return ["coupling g_khz is not g_ghz * 1e6"]
    return []


def _check_selftest(argv: list[str], text: str) -> list[str]:
    try:
        report = json.loads(text)
    except ValueError:
        return ["selftest report is not JSON"]
    if report.get("passed") is not True:
        failed = [c.get("name") for c in report.get("checks", []) if not c.get("passed")]
        return [f"selftest did not pass: {failed}"]
    return []


_CHECKS = {
    "spectrum": _check_spectrum,
    "trotter": _check_trotter,
    "amplify": _check_amplify,
    "coupling": _check_coupling,
    "selftest": _check_selftest,
}


def check_cli(command: str, argv: list[str], exit_code: int, text: str, stderr: str = "") -> list[str]:
    """Problems with one CLI artifact; an empty list means it is correct."""
    if exit_code != 0:
        return [f"{command} exited with {exit_code}"]
    if TRACEBACK in stderr:
        return [f"{command} printed a traceback"]
    if not argv and digest(text)[:16] != REFERENCE_DIGESTS[command]:
        return [f"{command} digest {digest(text)[:16]} != {REFERENCE_DIGESTS[command]}"]
    return _CHECKS[command](argv, text)


def check_fock(inputs: dict, record: dict) -> list[str]:
    """Problems with one fock_squeeze record; an empty list means it is correct."""
    problems = []
    squeeze = record.get("squeeze", [])
    chain = record.get("chain", [])
    if len(squeeze) != 2 * len(inputs["squeeze"]) or len(chain) != len(inputs["chain"]):
        return ["fock record does not cover its inputs"]
    for row in squeeze:
        res = row["residual"]
        if not math.isfinite(res):
            problems.append(f"{row['backend']} residual at dim {row['dim']} is not finite")
        # the trotter residual is the documented product-formula error: not gated
        elif row["backend"] == "analytic" and res > CLOSURE_TOL:
            problems.append(f"analytic closure residual {res:.3e} at dim {row['dim']}")
    for row in chain:
        for name in ("number", "pair", "coupling"):
            got, want = row[name], row["expected"][name]
            if not abs(got - want) <= COEFF_RTOL * abs(want):
                problems.append(f"chain dim {row['dim']} eta2 {row['eta2']}: {name} {got!r} != {want!r}")
    return problems
