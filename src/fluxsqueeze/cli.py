"""Command-line driver: reproducible sweeps serialized as CSV/JSON.

One subcommand per entry of ``COMMANDS``; each option is a row of
``config.KNOWN_KEYS`` and parses as that key does in a config file.
Each error class carries its exit code and stderr label (``errors``);
a failing invariant battery exits 5.  Options must be spelled in full;
prefixes are not accepted.

Output is deterministic: fixed row order, floats at 12 significant
digits in scientific notation, and a leading comment line naming units
and the active phase convention.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

from . import __version__
from ._parallel import _one_blas_thread
from .config import KNOWN_KEYS, RunConfig, build_config, load_config, parse_bool, parse_value
from .errors import ParameterError, SimulationError
from .physics import (
    MU_0, amplification_sweep, bare_coupling, bare_coupling_si, biot_savart_b0,
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
    """The sweep's flux points are independent and run on every CPU
    (``_parallel.map_points``); rows keep the grid order."""
    from ._parallel import map_points
    from .circuit import anharmonicity, converged_spectrum, full_hamiltonian, quartic_hamiltonian

    def row(f_s: float) -> list[str]:
        p = cfg.circuit(f_s)
        if not stability(p).stable:
            return [fmt(f_s)] + [""] * 8 + ["unstable"]
        full, _ = converged_spectrum(p, cfg.dim, full_hamiltonian, tol=cfg.convergence_tol)
        quartic, _ = converged_spectrum(p, cfg.dim, quartic_hamiltonian, tol=cfg.convergence_tol)
        return (
            [fmt(f_s)]
            + [fmt(e) for _, e in full.levels]
            + [fmt(e) for _, e in quartic.levels]
            + [fmt(anharmonicity(full)), fmt(anharmonicity(quartic)), "ok"]
        )

    header = [
        "f_s",
        "e0_full_ghz",
        "e1_full_ghz",
        "e2_full_ghz",
        "e0_quartic_ghz",
        "e1_quartic_ghz",
        "e2_quartic_ghz",
        "alpha_full",
        "alpha_quartic",
        "status",
    ]
    rows = map_points(row, linspace(cfg.fs_min, cfg.fs_max, cfg.fs_steps))
    comment = (
        "circuit level sweep; energies in GHz, flux dimensionless; "
        f"phase convention {_convention_label(cfg.two_pi)}; dim={cfg.dim}"
    )
    return _csv(comment, header, rows)


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
        if row.status != "ok":
            rows.append([fmt(row.ratio), fmt(row.f_s), "", "", "", "", row.status])
        else:
            rows.append(
                [
                    fmt(row.ratio),
                    fmt(row.f_s),
                    fmt(row.eta1),
                    fmt(row.eta2),
                    fmt(row.gain),
                    fmt(row.g_eff),
                    row.status,
                ]
            )
    comment = (
        "coupling amplification sweep; energies in GHz, times in ns, gain "
        f"dimensionless; phase convention {_convention_label(cfg.two_pi)}; "
        f"t={fmt(t)} ns; E_L fixed, E_J = E_L/ratio"
    )
    return _csv(comment, header, rows)


def cmd_coupling(cfg: RunConfig) -> str:
    geom = cfg.geometry()
    p = cfg.circuit(0.5)
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
            "interaction_flux": 0.5,
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
        "checks": [c.as_dict() for c in checks],
    }
    return json.dumps(report, indent=2, allow_nan=False) + "\n", passed


# built once per process: parse_args keeps no state in the parser, and
# the --set list default is copied by argparse before it is appended to
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxsqueeze",
        description="Flux-tunable circuit squeezing and coupling-amplification sweeps",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _) in COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext, allow_abbrev=False)
        cmd.add_argument("--config", help="flat key-value config file")
        # a flag's text is parsed later, by its key's parser
        for key, (_, parse, flag, flag_help, _) in KNOWN_KEYS.items():
            if flag:
                switch = {"action": "store_const", "const": "true"} if parse is parse_bool else {}
                cmd.add_argument(flag, dest=key, help=flag_help, **switch)
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable), e.g. --set circuit.f_s=0.85",
        )
    return parser


def _flag_overrides(args: argparse.Namespace) -> dict:
    """The flags, then each ``--set`` item in order, parsed as their
    config keys are in a file; a later setting wins."""
    settings = [
        (key, getattr(args, key), flag) for key, (_, _, flag, *_) in KNOWN_KEYS.items() if flag
    ]
    for item in args.set:
        key, eq, text = item.partition("=")
        if not eq:
            raise ParameterError(f"--set expects KEY=VALUE, got {item!r}")
        settings.append((key.strip(), text, "--set"))
    return dict(parse_value(*setting) for setting in settings if setting[1] is not None)


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Join ``--t -1e-3`` into ``--t=-1e-3`` after every flag that takes a value.

    argparse takes a separate token such as ``-1e-3`` (exponent notation)
    for an option and refuses it as a value; the ``=`` form always parses.
    """
    takes_value = {
        flag for _, parse, flag, *_ in KNOWN_KEYS.values() if flag and parse is not parse_bool
    }
    out: list[str] = []
    for token in argv:
        if out and out[-1] in takes_value and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={token}"
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        file_values = load_config(args.config) if args.config else {}
        cfg = build_config(file_values, _flag_overrides(args))
        _, pinned = COMMANDS[args.command]
        with _one_blas_thread() if pinned else contextlib.nullcontext():
            # looked up at call time, so that a wrapper set on this module runs
            result = globals()[f"cmd_{args.command}"](cfg)
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
