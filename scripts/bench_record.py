#!/usr/bin/env python3
"""Summarize benchmark runs of a parent and a changed checkout as one
``BENCH_<n>.json``.

Run ``perfbench/run.py --trace 0`` in both checkouts, for each workload
under the same seeds, then

    PYTHONPATH=src python scripts/bench_record.py --parent DIR --change DIR \\
        --parent-rev REV --change-rev REV --out BENCH_<n>.json

This only reads the ``.perfbench/results/<workload>-seed<s>-trace0.json``
records the two runs left.  Runs are paired by workload and seed; for
each end-to-end metric of ``BENCHMARK.json`` the record holds both
sides' values, medians and quartiles, and how many pairs the change
wins (strictly better in the metric's direction).  The environment is
that of the change's records, plus the OpenBLAS kernel of the machine
this script runs on, which must be the one that ran the benchmark.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import sys

from fluxsqueeze._parallel import core_name

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>-?\d+)-trace0\.json$")
ENV_KEYS = ("nproc", "python", "numpy", "blas", "blas_version", "OPENBLAS_NUM_THREADS")


def load_runs(checkout: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> trace-0 record of one checkout."""
    runs: dict[str, dict[int, dict]] = {}
    for path in glob.glob(os.path.join(checkout, ".perfbench", "results", "*-trace0.json")):
        match = _RECORD.match(os.path.basename(path))
        if match:
            with open(path, encoding="utf-8") as fh:
                runs.setdefault(match["workload"], {})[int(match["seed"])] = json.load(fh)
    return runs


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def record(parent: dict, change: dict, metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric: both sides and the wins."""
    workloads = {}
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        if len(seeds) < 2:
            continue
        entry = {"seeds": seeds, "metrics": {}}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            before = [parent[workload][s]["metrics"][name]["value"] for s in seeds]
            after = [change[workload][s]["metrics"][name]["value"] for s in seeds]
            wins = sum((a < b) if lower else (a > b) for a, b in zip(after, before))
            entry["metrics"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": summary(before),
                "change": summary(after),
                "wins": wins,
                "pairs": len(seeds),
            }
        entry["correct"] = all(
            side[workload][s]["correct"] for side in (parent, change) for s in seeds
        )
        workloads[workload] = entry
    return workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout the bench ran in")
    parser.add_argument("--change", required=True, help="changed checkout the bench ran in")
    parser.add_argument("--parent-rev", required=True, help="parent revision, as recorded")
    parser.add_argument("--change-rev", required=True, help="change revision, as recorded")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = record(parent, change, metrics)
    if not workloads:
        print("bench_record: no workload has two seeds run in both checkouts", file=sys.stderr)
        return 2
    runs = [r for side in (parent, change) for seeds in side.values() for r in seeds.values()]
    env = {key: runs[-1]["env"].get(key) for key in ENV_KEYS}
    env["openblas_core"] = core_name()
    out = {
        "parent": args.parent_rev,
        "change": args.change_rev,
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "seconds": sorted({r["seconds"] for r in runs}),
        "env": env,
        "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for workload, entry in workloads.items():
        for name, m in entry["metrics"].items():
            print(
                f"{workload:15s} {name:12s} parent {m['parent']['median']:.6g} "
                f"change {m['change']['median']:.6g} wins {m['wins']}/{m['pairs']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
