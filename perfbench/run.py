"""fluxsqueeze benchmark: end-to-end wall time of the CLI and the library,
and a traced run that times each module from outside the package.

Run from the root of a source checkout (the package is taken from src/):

    python3 perfbench/run.py --workload spectrum_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (inputs come from --seed; see workloads.py):
    spectrum_sweep  `fluxsqueeze spectrum` at default flags (101 flux points, dim 60)
    cli_light       `trotter`, `amplify`, `coupling`, `selftest`, a fresh process each
    fock_squeeze    library driver: fock-space squeeze_operator with both backends
                    at dims 60/120/240 and the coupling conjugation chain at 96/192

--trace 0 measures, after set-up:
    setup_s      median wall time of `import fluxsqueeze.cli` in a fresh interpreter
    wall_s       median wall time of one iteration in fresh processes, as a user runs it
    warm_s       median time of the same work repeated in one process after a warm-up
    peak_rss_mb  median over iterations of the largest peak RSS of their processes
    pass_rate    share of attempted operations that passed every check (1 - error_rate)
Half of --seconds runs fresh processes, half the warm loop, in alternating parts;
each part also takes set-up samples and starts its own warm processes.

--trace 1 reports per-layer metrics instead: `python -X importtime` import costs,
then warm iterations run untraced and traced in turn for --seconds, giving calls,
cumulative and self seconds per wrapped function (medians per iteration),
counters, and the tracing overhead (traced minus untraced warm time).

Every operation is checked: exit status, no traceback on stderr, reference
digests for default-flag artifacts, invariants otherwise. The last line of
stdout is one JSON object; a record with the environment is written to
.perfbench/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
import worker
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# set-up samples and warm processes are spread over this many parts of a run
PARTS = 3
SETUP_SAMPLES_PER_PART = 2
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 120.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "warm_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}

PROBE = """
import json, sys
import numpy, fluxsqueeze.cli
try:
    import scipy
    scipy_version = scipy.__version__
except ImportError:
    scipy_version = None
try:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
except TypeError:  # numpy before 1.26 prints its config only
    blas = {}
print(json.dumps({"fluxsqueeze": fluxsqueeze.cli.__file__, "python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy_version,
                  "blas": blas.get("name"), "blas_version": blas.get("version")}))
"""


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


class Bench:
    def __init__(self, root: str, seed: int, seconds: float):
        self.root, self.seed, self.seconds = root, seed, seconds
        self.results = os.path.join(root, ".perfbench", "results")
        self.tmp = os.path.join(root, ".perfbench", f"tmp-{os.getpid()}")
        os.makedirs(self.results, exist_ok=True)
        os.makedirs(self.tmp, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        # compiled bytecode is reused, as in any installed copy
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    # -- processes -----------------------------------------------------------
    def spawn(self, argv: list[str], stdout: bool = False) -> dict:
        """Run one child to completion: exit code, wall seconds, peak RSS, output."""
        out_path, err_path = os.path.join(self.tmp, "stdout"), os.path.join(self.tmp, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out if stdout else subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 reaps this child alone and reports its own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        # tell Popen the child is reaped
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            errors = fh.read()
        return {"code": proc.returncode, "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": text, "stderr": errors}

    def count(self, problems: list[str], ops: int = 1, failed: int | None = None) -> bool:
        """Record ``ops`` attempted operations, ``failed`` of them (default:
        all when there are problems)."""
        self.attempted += ops
        self.failed += (ops if problems else 0) if failed is None else failed
        self.problems += problems
        return not problems

    def probe(self) -> dict:
        """Versions and BLAS, and proof that the package comes from src/."""
        child = self.spawn(["-c", PROBE], stdout=True)
        if child["code"] != 0:
            raise SetupError(f"cannot import fluxsqueeze.cli from src/:\n{child['stderr']}")
        info = json.loads(child["stdout"].strip().splitlines()[-1])
        src = os.path.realpath(self.env["PYTHONPATH"]) + os.sep
        if not os.path.realpath(info.pop("fluxsqueeze")).startswith(src):
            raise SetupError("fluxsqueeze was imported from outside src/")
        info.update(
            nproc=len(os.sched_getaffinity(0)),
            OPENBLAS_NUM_THREADS=os.environ.get("OPENBLAS_NUM_THREADS"),
            OMP_NUM_THREADS=os.environ.get("OMP_NUM_THREADS"),
        )
        return info

    def setup_samples(self, count: int) -> list[float]:
        walls = []
        for _ in range(count):
            child = self.spawn(["-c", "import fluxsqueeze.cli"])
            if self.count(self._process_problems("import", child)):
                walls.append(child["wall"])
        return walls

    @staticmethod
    def _process_problems(name: str, child: dict) -> list[str]:
        if child["code"] != 0:
            return [f"{name} exited with {child['code']}"]
        if workloads.TRACEBACK in child["stderr"]:
            return [f"{name} printed a traceback"]
        return []

    # -- fresh-process iterations -----------------------------------------------
    def cold_iteration(self, workload: str, index: int) -> dict:
        path = os.path.join(self.tmp, "artifact")
        if workload == "fock_squeeze":
            argv = [os.path.join(BENCH_DIR, "worker.py"), "fock",
                    "--seed", str(self.seed), "--index", str(index), "--out", path]
            child = self.spawn(argv)
            problems = self._process_problems("fock_squeeze", child)
            if not problems:
                with open(path, encoding="utf-8") as fh:
                    problems = workloads.check_fock(workloads.fock_inputs(self.seed, index), json.load(fh))
            self.count(problems)
            return {"wall": child["wall"], "rss_mb": child["rss_mb"]}
        wall, rss = 0.0, 0.0
        for command, argv in workloads.cli_inputs(workload, self.seed, index):
            if os.path.exists(path):
                os.remove(path)
            child = self.spawn(["-m", "fluxsqueeze.cli", command, *argv, "--out", path])
            wall += child["wall"]
            rss = max(rss, child["rss_mb"])
            text = ""
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
            self.count(workloads.check_cli(command, argv, child["code"], text, child["stderr"]))
        return {"wall": wall, "rss_mb": rss}

    # -- in-process iterations ----------------------------------------------------
    def warm(self, workload: str, seconds: float, trace: int, first: int = 1) -> dict:
        argv = [os.path.join(BENCH_DIR, "worker.py"), "warm", "--workload", workload,
                "--seed", str(self.seed), "--seconds", repr(seconds), "--trace", str(trace),
                "--first", str(first), "--dir", self.tmp]
        child = self.spawn(argv)
        path = os.path.join(self.tmp, "warm.json")
        problems = self._process_problems("warm worker", child)
        if problems or not os.path.exists(path):
            self.count(problems or ["warm worker wrote no result"])
            sys.stderr.write(child["stderr"])
            return {}
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        for sample in [result["warmup"], *result["plain"], *result.get("traced", [])]:
            self.count(sample["problems"], sample["ops"], sample["failed"])
        spans = os.path.join(self.tmp, "spans.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(self.results, f"{workload}-seed{self.seed}-spans.json"))
        return result

    def import_samples(self) -> dict[str, float]:
        samples = []
        for _ in range(IMPORT_SAMPLES):
            child = self.spawn(["-X", "importtime", "-c", "import fluxsqueeze.cli"])
            if self.count(self._process_problems("import", child)):
                samples.append(tracing.import_times(child["stderr"]))
        return {k: statistics.median(s[k] for s in samples) for k in tracing.IMPORTS} if samples else {}

    # -- one run ------------------------------------------------------------------
    def run(self, workload: str, trace: int) -> tuple[dict, list[str]]:
        """Metric values and human-readable notes of one run."""
        if trace:
            layers = self.import_samples()
            layers.update(self.warm(workload, self.seconds / 2, trace=1).get("layers", {}))
            return layers, [f"spans written to .perfbench/results/{workload}-seed{self.seed}-spans.json"]
        # set-up, fresh-process and warm samples alternate, so that all see
        # the same drift of a shared machine
        setup, cold, warm = [], [], []
        share = self.seconds / (2 * PARTS)
        processes = workloads.WARM_PROCESSES[workload] // PARTS
        for part in range(PARTS):
            setup += self.setup_samples(SETUP_SAMPLES_PER_PART)
            run = functools.partial(self.cold_iteration, workload)
            cold += worker.timed_loop(run, share, itertools.count(len(cold)))
            for process in range(processes):
                first = 1 + 1000 * (part * processes + process)
                plain = self.warm(workload, share / processes, trace=0, first=first).get("plain", [])
                warm += [s["s"] for s in plain]
        walls = [s["wall"] for s in cold]
        failed = self.failed
        values = {
            "setup_s": _median(setup),
            "wall_s": _median(walls),
            "warm_s": _median(warm),
            "peak_rss_mb": _median([s["rss_mb"] for s in cold]),
            "pass_rate": (self.attempted - failed) / self.attempted,
        }
        self.samples = {"setup_s": setup, "wall_s": walls, "warm_s": warm}
        notes = [
            f"setup_s: {len(setup)} fresh imports",
            f"wall_s: {_spread(walls)}",
            f"warm_s: {_spread(warm)}",
            f"error_rate = {failed / self.attempted:.6g} ({failed} failed of {self.attempted} attempted)",
        ]
        return values, notes


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def _spread(values: list[float]) -> str:
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has ten samples beyond it"
    ranked = sorted(values)
    return f"n={n}; p{100 * (n - 10) // n}={ranked[n - 11]:.6g} s (ten samples beyond it)"


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int, env: dict) -> dict:
    bench = Bench(root, seed, seconds)
    try:
        values, notes = bench.run(workload, trace)
    finally:
        bench.close()
    units = tracing.metric_units() if trace else END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if isinstance(value, float) and value.is_integer() and unit == "count":
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    failed = bench.failed
    result = {
        "correct": failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  trace={trace}")
    for name, metric in metrics.items():
        print(f"   {name} = {metric['value']} {metric['unit']}")
    for line in notes + [f"problem: {p}" for p in bench.problems[:20]]:
        print(f"   {line}")
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  env=env, problems=bench.problems, samples=bench.samples)
    path = os.path.join(bench.results, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result


def main() -> int:
    load = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fluxsqueeze", "cli.py")):
        print("perfbench: run from the root of a fluxsqueeze checkout (no src/fluxsqueeze/cli.py here)",
              file=sys.stderr)
        return 2
    bench = Bench(root, args.seed, args.seconds)
    try:
        env = bench.probe()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        bench.close()
    env["loadavg_at_start"] = load
    print("env " + json.dumps(env))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(root, w, args.seed, args.seconds, args.trace, env) for w in names}
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
