"""Child-process side of the benchmark.

    worker.py fock --seed S --index I --out PATH
        one fock_squeeze iteration in this fresh process; writes its record
    worker.py warm --workload W --seed S --seconds X --trace 0|1 --dir D
        imports the package, runs one warm-up iteration (index 0), then
        repeats iterations F, F+1, ... (--first F, default 1) for X seconds and writes
        D/warm.json. With --trace 1 each iteration runs twice, untraced and
        then traced, for 2X seconds in all, and the per-layer metrics and
        D/spans.json are written as well.

The package is found through PYTHONPATH, which run.py points at src/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import time
import traceback
import warnings

import workloads

# circuit and coupling parameters of the fock_squeeze driver: the package
# defaults, at the selftest's detuned flux for the conjugation chain
E_C, E_J, E_L, CHAIN_FLUX = 0.12, 58.0, 58.6, 0.9


def fock_record(inputs: dict) -> dict:
    """Squeeze with both backends, then run the coupling conjugation chain."""
    from fluxsqueeze import circuit, coupling, gates, operators

    record = {"squeeze": [], "chain": []}
    for dim, f_s, t in inputs["squeeze"]:
        space = operators.make_fock_space(dim)
        p = circuit.CircuitParams(e_c=E_C, e_j=E_J, e_l=E_L, f_s=f_s)
        for backend in ("analytic", "trotter"):
            res = gates.squeeze_operator(p, t, rep="fock", space=space, backend=backend)
            record["squeeze"].append(
                {"dim": dim, "f_s": f_s, "t": t, "backend": backend,
                 "eta2": res.eta2, "residual": res.residual}
            )
    p = circuit.CircuitParams(e_c=E_C, e_j=E_J, e_l=E_L, f_s=CHAIN_FLUX)
    g = coupling.bare_coupling(p, coupling.default_geometry(p))
    # spin on resonance with the oscillator, as in the selftest
    nv = coupling.NVParams(zeeman=coupling.ZERO_FIELD_SPLITTING_GHZ - p.omega0)
    for dim, eta2 in inputs["chain"]:
        space = operators.make_fock_space(dim)
        h_tot = coupling.total_hamiltonian(p, nv, g, space)
        s = coupling.squeeze_on_product(space, eta2)
        h_eff = coupling.conjugate_hamiltonian(s, h_tot)
        coeffs = coupling.project_coupling_coefficients(h_eff, space, n_interior=dim // 3)
        eff = coupling.effective_params(p, g, eta2)
        record["chain"].append(
            {
                "dim": dim,
                "eta2": eta2,
                "number": coeffs["number"],
                "pair": coeffs["pair"],
                "coupling": coeffs["coupling"],
                "expected": {"number": eff.omega_eff, "pair": eff.chi, "coupling": eff.g_eff},
            }
        )
    return record


class Iteration:
    """One workload iteration run in-process: timed work, then checks."""

    def __init__(self, workload: str, seed: int, out_dir: str):
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        if workload == "fock_squeeze":
            import fluxsqueeze  # noqa: F401
        else:
            import fluxsqueeze.cli

            self.main = fluxsqueeze.cli.main

    def __call__(self, index: int) -> dict:
        """Seconds of work, operations run, problems found, artifact digests."""
        if self.workload == "fock_squeeze":
            return self._fock(index)
        elapsed, problems, failed, digests = 0.0, [], 0, {}
        commands = workloads.cli_inputs(self.workload, self.seed, index)
        for command, argv in commands:
            path = os.path.join(self.out_dir, f"warm-{command}.out")
            start = time.perf_counter()
            try:
                code = self.main([command, *argv, "--out", path])
            except (Exception, SystemExit):
                traceback.print_exc()
                code = "an exception"
            elapsed += time.perf_counter() - start
            text = ""
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                os.remove(path)
            found = workloads.check_cli(command, argv, code, text)
            problems += found
            failed += bool(found)
            digests[command] = workloads.digest(text)
        return {"index": index, "s": elapsed, "ops": len(commands), "failed": failed,
                "problems": problems, "digests": digests}

    def _fock(self, index: int) -> dict:
        inputs = workloads.fock_inputs(self.seed, index)
        sample = {"index": index, "ops": 1, "problems": [], "digests": {}}
        start = time.perf_counter()
        try:
            text = json.dumps(fock_record(inputs))
        except Exception:
            traceback.print_exc()
            text = None
        sample["s"] = time.perf_counter() - start
        if text is None:
            sample["problems"].append("fock_squeeze raised")
        else:
            sample["problems"] = workloads.check_fock(inputs, json.loads(text))
            sample["digests"]["fock"] = workloads.digest(text)
        sample["failed"] = int(bool(sample["problems"]))
        return sample


def timed_loop(run, seconds: float, indices) -> list[dict]:
    """Run iterations while the next one, expected to last as long as the
    previous, would end less than half of it past ``seconds``."""
    samples: list[dict] = []
    began, last = time.perf_counter(), 0.0
    for index in indices:
        if samples and time.perf_counter() - began + last / 2 >= seconds:
            break
        tick = time.perf_counter()
        samples.append(run(index))
        last = time.perf_counter() - tick
    return samples


def warm(args) -> dict:
    run = Iteration(args.workload, args.seed, args.dir)
    result = {"warmup": run(0)}
    if not args.trace:
        result["plain"] = timed_loop(run, args.seconds, itertools.count(args.first))
        return result
    from fluxsqueeze.errors import TruncationLeakWarning

    import tracing

    tracer = tracing.Tracer()

    def pair(index):
        """The iteration untraced, then traced: same inputs, same bytes out."""
        plain = run(index)
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                tracer.begin(index)
                traced = run(index)
        finally:
            tracer.uninstall()
        leaks = sum(1 for w in log if issubclass(w.category, TruncationLeakWarning))
        traced["layers"] = tracer.end(leaks)
        if traced["digests"] != plain["digests"]:
            traced["problems"].append(f"iteration {index}: artifacts changed under tracing")
            traced["failed"] = traced["ops"]
        return plain, traced

    pairs = timed_loop(pair, 2 * args.seconds, itertools.count(args.first))
    result["plain"] = [plain for plain, _ in pairs]
    result["traced"] = [traced for _, traced in pairs]
    layers = [traced.pop("layers") for traced in result["traced"]]
    result["layers"] = {k: statistics.median(it[k] for it in layers) for k in layers[0]}
    result["layers"][tracing.OVERHEAD] = statistics.median(
        t["s"] for t in result["traced"]
    ) - statistics.median(p["s"] for p in result["plain"])
    tracer.dump(os.path.join(args.dir, "spans.json"))
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    fock = sub.add_parser("fock")
    fock.add_argument("--seed", type=int, required=True)
    fock.add_argument("--index", type=int, required=True)
    fock.add_argument("--out", required=True)
    loop = sub.add_parser("warm")
    loop.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    loop.add_argument("--seed", type=int, required=True)
    loop.add_argument("--seconds", type=float, required=True)
    loop.add_argument("--first", type=int, default=1, help="index of the first timed iteration")
    loop.add_argument("--trace", type=int, choices=(0, 1), default=0)
    loop.add_argument("--dir", required=True)
    args = parser.parse_args()
    if args.mode == "fock":
        record = fock_record(workloads.fock_inputs(args.seed, args.index))
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(record))
        return 0
    result = warm(args)
    with open(os.path.join(args.dir, "warm.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
