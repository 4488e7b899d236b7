"""Spans and counters recorded from outside the package.

``Tracer.install`` wraps each listed public function and rebinds the
wrapper under every name a ``fluxsqueeze`` module holds for it, so calls
through ``from .x import f`` aliases are seen as well as calls through
the defining module. A function or class that a later version removes is
skipped, and its metrics read zero.

Spans stay in memory as (label, start, end, parent, iteration, error,
info) and are written out once at the end. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import re
import statistics
import sys
import time

TIMED = {
    "cli": ("cmd_spectrum", "cmd_trotter", "cmd_amplify", "cmd_coupling", "cmd_selftest"),
    "circuit": ("converged_spectrum", "check_convergence", "full_hamiltonian", "quartic_hamiltonian"),
    "operators": ("hermitian_eig", "hermitian_matrix_function", "exp_normal", "truncation_leak"),
    "gates": ("squeeze_operator", "trotter_squeeze", "gate_u1", "analytic_us"),
    "coupling": (
        "amplification_sweep",
        "squeeze_on_product",
        "conjugate_hamiltonian",
        "project_coupling_coefficients",
    ),
    "selftest": ("run_selftest",),
}
LABELS = tuple(f"{module}.{name}" for module, names in TIMED.items() for name in names)
EIGENSOLVERS = ("eigh", "eigvalsh")
COUNTS = (
    "cli.self_s",
    "circuit.doublings",
    "circuit.accepted_dim.mean",
    "operators.Operator.constructions",
    "operators.truncation_leak.warnings",
    *(f"numpy.{solver}.{kind}" for solver in EIGENSOLVERS for kind in ("calls", "dim3_sum")),
)
IMPORTS = ("import.scipy_s", "import.numpy_s", "import.fluxsqueeze_s", "import.total_s")
OVERHEAD = "trace.overhead_s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {}
    for label in LABELS:
        units.update({f"{label}.calls": "count", f"{label}.s": "s", f"{label}.self_s": "s"})
    for name in COUNTS:
        units[name] = "s" if name.endswith("_s") else "levels" if "dim.mean" in name else "count"
    units.update({name: "s" for name in IMPORTS})
    units[OVERHEAD] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [label, start, end, parent, iteration, error, info]
        self._stack: list[int] = []
        self._iteration = -1
        self._first = 0
        self._counts = {"constructions": 0}
        self._counts.update({s: [0, 0] for s in EIGENSOLVERS})
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------
    def install(self):
        import numpy

        for module, names in TIMED.items():
            mod = sys.modules.get(f"fluxsqueeze.{module}")
            for name in names:
                original = getattr(mod, name, None)
                if callable(original):
                    self._rebind(original, self._span(f"{module}.{name}", original))
        for solver in EIGENSOLVERS:
            original = getattr(numpy.linalg, solver)
            self._set(numpy.linalg, solver, self._solver(solver, original))
        operator = getattr(sys.modules.get("fluxsqueeze.operators"), "Operator", None)
        post_init = getattr(operator, "__post_init__", None)
        if post_init is not None:
            self._set(operator, "__post_init__", self._constructor(post_init))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        for name, mod in list(sys.modules.items()):
            if name == "fluxsqueeze" or name.startswith("fluxsqueeze."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def _span(self, label, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [label, time.perf_counter(), 0.0, stack[-1] if stack else -1, self._iteration, None, None]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if label == "circuit.converged_spectrum":
                span[6] = out[1]  # the accepted truncation, which cmd_spectrum drops
            return out

        return traced

    def _solver(self, solver, fn):
        counts = self._counts[solver]

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            shape = getattr(a, "shape", None) or (len(a), len(a))
            counts[0] += 1
            counts[1] += math.prod(shape[:-2]) * shape[-1] ** 3
            return fn(a, *args, **kwargs)

        return counted

    def _constructor(self, fn):
        counts = self._counts

        @functools.wraps(fn)
        def counted(obj):
            counts["constructions"] += 1
            return fn(obj)

        return counted

    # -- per-iteration metrics ---------------------------------------------
    def begin(self, iteration: int):
        self._iteration = iteration
        self._first = len(self.spans)
        self._counts["constructions"] = 0
        for solver in EIGENSOLVERS:
            self._counts[solver][:] = [0, 0]

    def end(self, leak_warnings: int) -> dict[str, float]:
        """Per-layer metrics of the iteration since the last ``begin``."""
        spans = self.spans[self._first:]
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= self._first:
                child[span[3] - self._first] += span[2] - span[1]
        out = {}
        for label in LABELS:
            out.update({f"{label}.calls": 0, f"{label}.s": 0.0, f"{label}.self_s": 0.0})
        for i, (label, start, end, parent, *_rest) in enumerate(spans):
            out[f"{label}.calls"] += 1
            out[f"{label}.self_s"] += (end - start) - child[i]
            # a span nested in one of its own label adds no cumulative time
            while parent >= self._first and self.spans[parent][0] != label:
                parent = self.spans[parent][3]
            if parent < self._first:
                out[f"{label}.s"] += end - start
        accepted = [s[6] for s in spans if s[0] == "circuit.converged_spectrum" and s[6] is not None]
        out["cli.self_s"] = sum(out[f"{label}.self_s"] for label in LABELS if label.startswith("cli."))
        out["circuit.doublings"] = sum(
            1 for s in spans if s[0] == "circuit.check_convergence" and s[5] == "ConvergenceError"
        )
        out["circuit.accepted_dim.mean"] = statistics.fmean(accepted) if accepted else 0.0
        out["operators.Operator.constructions"] = self._counts["constructions"]
        out["operators.truncation_leak.warnings"] = leak_warnings
        for solver in EIGENSOLVERS:
            out[f"numpy.{solver}.calls"], out[f"numpy.{solver}.dim3_sum"] = self._counts[solver]
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["label", "start", "end", "parent", "iteration", "error", "info"],
                       "spans": self.spans}, fh)


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( +)(\S+)\s*$")


def import_times(stderr: str) -> dict[str, float]:
    """Import seconds of scipy, numpy and fluxsqueeze from ``python -X
    importtime`` output.

    Each module's self time goes to the outermost numpy or scipy import
    that encloses it, else to fluxsqueeze when that encloses it: what
    scipy pulls in (numpy submodules included) counts as scipy, what
    the package imports directly (stdlib included) as fluxsqueeze.
    ``import.total_s`` is the sum of the three, all of `import fluxsqueeze.cli`.
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            depth = (len(m.group(3)) - 1) // 2
            entries.append((depth, m.group(4).split(".")[0], int(m.group(1)) * 1e-6))
    groups = {"scipy": 0.0, "numpy": 0.0, "fluxsqueeze": 0.0}
    enclosing: list[str | None] = []
    # children print before their parent: walk backwards to see parents first
    for depth, package, self_s in reversed(entries):
        del enclosing[depth:]
        outer = enclosing[-1] if enclosing else None
        group = outer if outer in ("numpy", "scipy") or package not in groups else package
        if group is not None:
            groups[group] += self_s
        enclosing.append(group)
    return {
        "import.scipy_s": groups["scipy"],
        "import.numpy_s": groups["numpy"],
        "import.fluxsqueeze_s": groups["fluxsqueeze"],
        "import.total_s": sum(groups.values()),
    }
