"""Command-line driver: reproducible sweeps serialized as CSV/JSON.

Subcommands
-----------
spectrum   three lowest circuit levels and anharmonicities over a flux sweep
trotter    2x2 matrix elements of the interleaved product vs the direct propagator
amplify    coupling-gain table over flux for several E_L/E_J ratios
coupling   JSON report of the bare spin-loop coupling with unit cross-checks
selftest   invariant battery; nonzero exit on any violation

Exit codes: 0 success, 1 unexpected error, 2 configuration/parameter,
3 stability, 4 convergence/truncation/degenerate spectrum, 5 invariant
failure.  Options must be spelled in full; prefixes are not accepted.

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
from .config import RunConfig, build_config, load_config, parse_config_text
from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    ParameterError,
    SimulationError,
    StabilityError,
    TruncationLeakError,
)
from .physics import (
    MU_0, CircuitParams, CouplingGeometry, bare_coupling, bare_coupling_si, biot_savart_b0,
    default_geometry, inductance_mismatch, inductive_energy_from_inductance, reduced_params,
    stability,
)

# numpy and the modules that compute arrays are imported by the commands
# that need them: `amplify`, `coupling`, --help, --version and
# configuration errors then run without loading numpy, which would be most
# of their run time.

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_STABILITY = 3
EXIT_CONVERGENCE = 4
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


def _circuit(cfg: RunConfig, f_s: float | None = None) -> CircuitParams:
    return CircuitParams(
        e_c=cfg.e_c, e_j=cfg.e_j, e_l=cfg.e_l, f_s=cfg.f_s if f_s is None else f_s
    )


def _geometry(cfg: RunConfig) -> CouplingGeometry:
    return default_geometry(_circuit(cfg), cfg.edge_length, cfg.z_nv, cfg.inductance)


def cmd_spectrum(cfg: RunConfig) -> str:
    """The sweep's flux points are independent and run on every CPU
    (``_parallel.map_points``); rows keep the grid order."""
    from ._parallel import map_points
    from .circuit import anharmonicity, converged_spectrum, full_hamiltonian, quartic_hamiltonian

    def row(f_s: float) -> list[str]:
        p = _circuit(cfg, f_s)
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

    p = _circuit(cfg)
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
    from .gain import amplification_sweep

    t = cfg.t if cfg.t is not None else 1.0
    rows_data = amplification_sweep(
        e_c=cfg.e_c,
        ratios=cfg.ratios,
        t=t,
        fs_grid=linspace(cfg.fs_min, cfg.fs_max, cfg.fs_steps),
        e_l=cfg.e_l,
        geometry=_geometry(cfg),
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
    geom = _geometry(cfg)
    p = _circuit(cfg, f_s=0.5)
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
    for name, helptext in (
        ("spectrum", "lowest levels and anharmonicity over a flux sweep (CSV)"),
        ("trotter", "interleaved-product fidelity vs evolution time (CSV)"),
        ("amplify", "coupling gain over flux for several E_L/E_J ratios (CSV)"),
        ("coupling", "bare coupling report with unit cross-checks (JSON)"),
        ("selftest", "invariant battery (JSON, nonzero exit on failure)"),
    ):
        cmd = sub.add_parser(name, help=helptext, allow_abbrev=False)
        cmd.add_argument("--config", help="flat key-value config file")
        cmd.add_argument("--out", help="output path (default: stdout)")
        cmd.add_argument("--dim", type=int, help="Fock truncation dimension")
        cmd.add_argument(
            "--two-pi",
            action="store_const",
            const=True,
            help="use the angular 2*pi*GHz*ns phase convention in the gain sweep",
        )
        cmd.add_argument("--fs-min", type=float, help="sweep start flux")
        cmd.add_argument("--fs-max", type=float, help="sweep end flux")
        cmd.add_argument("--fs-steps", type=int, help="sweep point count")
        cmd.add_argument("--ratios", help="comma list of E_L/E_J ratios")
        cmd.add_argument("--t", type=float, help="evolution time in ns (trotter: sweep max)")
        cmd.add_argument("--M", type=int, dest="m_steps", help="interleaving step count")
        cmd.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable), e.g. --set circuit.f_s=0.85",
        )
    return parser


def _flag_overrides(args: argparse.Namespace) -> dict:
    flags = {
        "dim": args.dim,
        "two_pi": args.two_pi,
        "fs_min": args.fs_min,
        "fs_max": args.fs_max,
        "fs_steps": args.fs_steps,
        "t": args.t,
        "m_steps": args.m_steps,
        "out_path": args.out,
    }
    if args.ratios is not None:
        try:
            flags["ratios"] = tuple(float(r) for r in args.ratios.split(",") if r.strip())
        except ValueError as exc:
            raise ParameterError(f"--ratios expects comma-separated numbers: {exc}") from exc
    extra_lines = []
    for item in args.set:
        if "=" not in item:
            raise ParameterError(f"--set expects KEY=VALUE, got {item!r}")
        extra_lines.append(item)
    if extra_lines:
        for attr, value in parse_config_text("\n".join(extra_lines), source="--set").items():
            flags[attr] = value
    return flags


# float options whose value may be negative
_SIGNED_FLOAT_OPTIONS = ("--fs-min", "--fs-max", "--t")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Join ``--t -1e-3`` into ``--t=-1e-3`` for the signed float options.

    argparse takes a separate token such as ``-1e-3`` (exponent notation)
    for an option and refuses it as a value; the ``=`` form always parses.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _SIGNED_FLOAT_OPTIONS and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] = f"{out[-1]}={token}"
                continue
        out.append(token)
    return out


# the commands whose arrays go through OpenBLAS run it on one thread: at
# two, a small product can wait a scheduler tick for the sleeping worker
# (see ``_parallel``)
_ONE_BLAS_THREAD = ("spectrum", "trotter", "selftest")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_signed_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        file_values = load_config(args.config) if args.config else {}
        cfg = build_config(file_values, _flag_overrides(args))
        pinned = args.command in _ONE_BLAS_THREAD
        with _one_blas_thread() if pinned else contextlib.nullcontext():
            if args.command == "selftest":
                text, passed = cmd_selftest(cfg)
                exit_code = EXIT_OK if passed else EXIT_INVARIANT
            else:
                runner = {
                    "spectrum": cmd_spectrum,
                    "trotter": cmd_trotter,
                    "amplify": cmd_amplify,
                    "coupling": cmd_coupling,
                }[args.command]
                text = runner(cfg)
                exit_code = EXIT_OK
        if cfg.out_path:
            with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return exit_code
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        print(f"stability error: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except (ConvergenceError, TruncationLeakError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except DegenerateSpectrumError as exc:
        print(f"degenerate spectrum: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED
    except Exception as exc:  # last resort: one line, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
