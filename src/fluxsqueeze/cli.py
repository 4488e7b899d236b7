"""Command-line driver: reproducible sweeps serialized as CSV/JSON.

One subcommand per entry of ``COMMANDS``; each option is the flag of a
``config.RunConfig`` field and parses as that key does in a config file.
``parse_argv`` reads argv in one pass over ``COMMANDS`` and the key
index ``config.KNOWN_KEYS``: the token after a flag is its value,
whatever it starts with (``--t -1e-3``), as is the text after ``--flag=``.  Options must be spelled in full.  Each
error class carries its exit code and stderr label (``errors``), so any
argv error is one ``configuration error`` line with exit 2; a failing
invariant battery exits 5.

Output is deterministic: fixed row order, floats at 12 significant
digits in scientific notation, and a leading comment line naming units
and the active phase convention.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from ._parallel import _one_blas_thread
from .config import KNOWN_KEYS, RunConfig, build_config, load_config, parse_bool, parse_value
from .errors import ParameterError, SimulationError
from .physics import (
    INTERACTION_FLUX, MU_0, amplification_sweep, bare_coupling, bare_coupling_si, biot_savart_b0,
    inductance_mismatch, inductive_energy_from_inductance, reduced_params, stability,
)

# the commands that compute arrays import numpy and those modules
# themselves: the others, --help, --version and configuration errors then
# run without loading numpy, which would be most of their run time

# name -> (help, whether it runs OpenBLAS on one thread: at two, a small
# product can wait a scheduler tick for the sleeping worker; see ``_parallel``)
COMMANDS = {
    "spectrum": ("lowest levels and anharmonicity over a flux sweep (CSV)", True),
    "trotter": ("interleaved-product fidelity vs evolution time (CSV)", True),
    "amplify": ("coupling gain over flux for several E_L/E_J ratios (CSV)", False),
    "coupling": ("bare coupling report with unit cross-checks (JSON)", False),
    "selftest": ("invariant battery (JSON, nonzero exit on failure)", True),
}

EXIT_OK = 0
EXIT_UNEXPECTED = SimulationError.exit_code
EXIT_INVARIANT = 5


def fmt(x: float) -> str:
    """12 significant digits, scientific, locale-independent."""
    return f"{x:.11e}"


def _convention_label(two_pi: bool) -> str:
    return "2pi*GHz*ns" if two_pi else "GHz*ns"


def _csv(comment: str, header: list[str], rows: list[list[str]]) -> str:
    lines = [f"# {comment}"]
    lines.append(",".join(header))
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """The n >= 2 points of ``numpy.linspace(lo, hi, n)``, bit for bit,
    without numpy: point i is ``i * step + lo`` and the last point is ``hi``."""
    div = n - 1
    delta = hi - lo
    step = delta / div
    if step == 0:
        # numpy's branch for equal endpoints and for a step that underflows
        points = [i / div * delta + lo for i in range(n)]
    else:
        points = [i * step + lo for i in range(n)]
    points[-1] = hi
    return points


def cmd_spectrum(cfg: RunConfig) -> str:
    """Contiguous chunks of flux points run on every CPU (``map_points``), a
    chunk's stable points as one stack (``converged_spectra``), rows in grid
    order; a chunk that raises is solved again point by point, in order."""
    from ._parallel import map_points
    from .circuit import (
        anharmonicity, converged_spectra, full_hamiltonian, quartic_hamiltonian, stack_points,
    )

    def row(f_s: float, solved) -> list[str]:
        if solved is None:
            return [fmt(f_s)] + [""] * 8 + ["unstable"]
        (full, _), (quartic, _) = solved
        return (
            [fmt(f_s)]
            + [fmt(e) for _, e in full.levels]
            + [fmt(e) for _, e in quartic.levels]
            + [fmt(anharmonicity(full)), fmt(anharmonicity(quartic)), "ok"]
        )

    def rows(chunk: list[float]) -> list[list[str]]:
        ps = [cfg.circuit(f_s) for f_s in chunk]
        stable = [p for p in ps if stability(p).stable]
        solved = iter(zip(*(
            converged_spectra(stable, cfg.dim, builder, tol=cfg.convergence_tol)
            for builder in (full_hamiltonian, quartic_hamiltonian)
        )))
        return [row(f_s, next(solved) if stability(p).stable else None)
                for f_s, p in zip(chunk, ps)]

    def chunk_rows(chunk: list[float]) -> list[list[str]]:
        try:
            return rows(chunk)
        except Exception:
            if len(chunk) == 1:
                raise
            return [row for f_s in chunk for row in rows([f_s])]

    grid = linspace(cfg.fs_min, cfg.fs_max, cfg.fs_steps)
    size = stack_points(cfg.dim)
    chunks = map_points(chunk_rows, [grid[i : i + size] for i in range(0, len(grid), size)])
    header = ["f_s"] + [f"e{i}_{kind}_ghz" for kind in ("full", "quartic") for i in range(3)]
    header += ["alpha_full", "alpha_quartic", "status"]
    comment = (
        "circuit level sweep; energies in GHz, flux dimensionless; "
        f"phase convention {_convention_label(cfg.two_pi)}; dim={cfg.dim}"
    )
    return _csv(comment, header, [row for chunk in chunks for row in chunk])


def cmd_trotter(cfg: RunConfig) -> str:
    import numpy as np

    from .gates import analytic_us, gate_distance, trotter_squeeze

    p = cfg.circuit()
    t_max = cfg.t if cfg.t is not None else 15.0
    ts = np.array(linspace(0.0, t_max, cfg.t_steps))
    labels = ("00", "01", "10", "11")
    header = ["t_ns"]
    for tag in ("us", "up"):
        for lab in labels:
            header += [f"{tag}_{lab}_re", f"{tag}_{lab}_im"]
    header += ["max_dev", "status"]
    us_grid = analytic_us(p, ts, "2x2")
    up_grid = trotter_squeeze(p, ts, cfg.m_steps, "2x2", convention=cfg.convention)
    devs = gate_distance(up_grid, us_grid)
    # per time: us then up, entries 00, 01, 10, 11, each as (re, im)
    entries = np.concatenate([us_grid.reshape(-1, 4), up_grid.reshape(-1, 4)], axis=1).view(float)
    rows = []
    for t, values, dev in zip(ts.tolist(), entries.tolist(), devs.tolist()):
        cells = [fmt(t)] + [fmt(v) for v in values]
        cells += [fmt(dev), "ok" if dev <= cfg.trotter_threshold else "exceeds"]
        rows.append(cells)
    comment = (
        "interleaved product vs direct squeezing propagator, 2x2 representation; "
        f"times in ns; phase convention {_convention_label(cfg.two_pi)}; "
        f"M={cfg.m_steps}; f_s={cfg.f_s}; step convention {cfg.convention}; "
        f"agreement threshold {cfg.trotter_threshold}"
    )
    return _csv(comment, header, rows)


def cmd_amplify(cfg: RunConfig) -> str:
    t = cfg.t if cfg.t is not None else 1.0
    rows_data = amplification_sweep(
        e_c=cfg.e_c,
        ratios=cfg.ratios,
        t=t,
        fs_grid=linspace(cfg.fs_min, cfg.fs_max, cfg.fs_steps),
        e_l=cfg.e_l,
        geometry=cfg.geometry(),
        two_pi=cfg.two_pi,
    )
    header = ["ratio_el_over_ej", "f_s", "eta1_ghz", "eta2", "gain", "g_eff_ghz", "status"]
    rows = []
    for row in rows_data:
        cells = (row.eta1, row.eta2, row.gain, row.g_eff)
        cells = [fmt(v) for v in cells] if row.status == "ok" else [""] * 4
        rows.append([fmt(row.ratio), fmt(row.f_s), *cells, row.status])
    comment = (
        "coupling amplification sweep; energies in GHz, times in ns, gain "
        f"dimensionless; phase convention {_convention_label(cfg.two_pi)}; "
        f"t={fmt(t)} ns; E_L fixed, E_J = E_L/ratio"
    )
    return _csv(comment, header, rows)


def cmd_coupling(cfg: RunConfig) -> str:
    geom = cfg.geometry()
    p = cfg.circuit(INTERACTION_FLUX)
    b0 = biot_savart_b0(geom)
    g_internal = bare_coupling(p, geom)
    g_si = bare_coupling_si(p, geom)
    beta = reduced_params(p).beta
    report = {
        "tool": {"name": "fluxsqueeze", "version": __version__},
        "inputs": {
            "e_c_ghz": cfg.e_c,
            "e_j_ghz": cfg.e_j,
            "e_l_ghz": cfg.e_l,
            "interaction_flux": INTERACTION_FLUX,
            "edge_length_m": geom.edge_length,
            "z_nv_m": geom.z_nv,
            "inductance_h": geom.inductance,
            "inductance_source": "explicit" if cfg.inductance is not None else "derived_from_e_l",
        },
        "assumptions": {
            "edge_length": "default 10 um loop edge; the coupling is dominated by "
            "the near-edge field term and is insensitive to this "
            "value at the order-of-magnitude level",
        },
        "field": {
            "b0_tesla_per_ampere": b0,
            "near_edge_asymptote_tesla_per_ampere": MU_0 / (2.0 * math.pi * geom.z_nv),
        },
        "reduction": {"beta_at_interaction_flux": beta, "beta_quarter_root": beta**0.25},
        "coupling": {
            "g_ghz": g_internal,
            "g_khz": g_internal * 1e6,
            "angular_presentation": f"2*pi x {g_internal * 1e6:.3f} kHz",
            "g_ghz_si_route": g_si,
            "si_vs_internal_relative_difference": abs(g_si - g_internal) / g_internal,
        },
        "consistency": {
            "e_l_from_inductance_ghz": inductive_energy_from_inductance(geom.inductance),
            "e_l_vs_inductance_relative_mismatch": inductance_mismatch(
                cfg.e_l, geom.inductance
            ),
        },
    }
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def cmd_selftest(cfg: RunConfig) -> tuple[str, bool]:
    from .selftest import run_selftest

    checks, passed = run_selftest(cfg)
    report = {
        "tool": {"name": "fluxsqueeze", "version": __version__},
        "dim": cfg.dim,
        "passed": passed,
        "checks": [asdict(c) for c in checks],
    }
    return json.dumps(report, indent=2, allow_nan=False) + "\n", passed


# option -> the config key it sets (--config and --set name no single key)
OPTIONS = {"--config": None, "--set": None, **{r[2]: k for k, r in KNOWN_KEYS.items() if r[2]}}
HELP = ("-h", "--help")


def usage(command: str | None = None) -> str:
    """The help text: the commands, or every option of ``command``."""
    if command is None:
        head = "[-h | --version] COMMAND [OPTIONS]\n\ncommands:"
        rows = [(name, text) for name, (text, _) in COMMANDS.items()]
    else:
        head = f"{command} [OPTIONS]\n\n{COMMANDS[command][0]}\n\noptions:"
        rows = [("--config PATH", "flat key-value config file")] + [
            (flag if parse is parse_bool else f"{flag} VALUE", f"{text} ({key})")
            for key, (_, parse, flag, text, _) in KNOWN_KEYS.items()
            if flag
        ]
        rows.append(("--set KEY=VALUE", "override any config key (repeatable), e.g. "
                     "--set circuit.f_s=0.85"))
    width = max(len(label) for label, _ in rows) + 2
    lines = [f"usage: fluxsqueeze {head}"] + [f"  {label:<{width}}{text}" for label, text in rows]
    return "\n".join(lines) + "\n"


def parse_argv(argv: list[str]) -> tuple[str, str | None, dict] | str:
    """The command, the ``--config`` path and the parsed overrides of
    ``argv``, or the text that ``--help`` or ``--version`` prints.

    A flag's value follows ``=`` or is the next token, whatever it starts
    with; ``--two-pi`` takes none.  The overrides are the flags, then the
    ``--set`` items, each in argv order and parsed as its config key is in
    a file; a later setting wins.
    """
    command, *rest = argv or [None]
    if command in HELP:
        return usage()
    if command == "--version":
        return f"{__version__}\n"
    if command not in COMMANDS:
        got = f"unknown command {command!r}" if argv else "missing command"
        raise ParameterError(f"{got}; expected one of: {', '.join(COMMANDS)}")
    config_path, flags, items = None, [], []
    tokens = iter(rest)
    for token in tokens:
        if token in HELP:
            return usage(command)
        name, eq, value = token.partition("=")
        if name not in OPTIONS:
            raise ParameterError(f"unrecognized argument {name!r}; options are spelled in full")
        key = OPTIONS[name]
        if key and KNOWN_KEYS[key][1] is parse_bool:
            if eq:
                raise ParameterError(f"{name} takes no value, got {token!r}")
            value = "true"
        elif not eq and (value := next(tokens, None)) is None:
            raise ParameterError(f"{name} expects a value")
        if key:
            flags.append((key, value, name))
        elif name == "--config":
            config_path = value
        else:
            item_key, eq, text = value.partition("=")
            if not eq:
                raise ParameterError(f"--set expects KEY=VALUE, got {value!r}")
            items.append((item_key.strip(), text, "--set"))
    return command, config_path, dict(parse_value(*setting) for setting in flags + items)


def main(argv=None) -> int:
    try:
        parsed = parse_argv(sys.argv[1:] if argv is None else list(argv))
        if isinstance(parsed, str):
            sys.stdout.write(parsed)
            return EXIT_OK
        command, config_path, overrides = parsed
        cfg = build_config(load_config(config_path) if config_path else {}, overrides)
        _, pinned = COMMANDS[command]
        with _one_blas_thread() if pinned else contextlib.nullcontext():
            # looked up at call time, so that a wrapper set on this module runs
            result = globals()[f"cmd_{command}"](cfg)
        text, passed = result if isinstance(result, tuple) else (result, True)
        if cfg.out_path:
            try:
                with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ParameterError(f"cannot write output.path {cfg.out_path}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return EXIT_OK if passed else EXIT_INVARIANT
    except SimulationError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # last resort: one line, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
