"""Committed ``BENCH_*.json`` records and the script that writes them.

Every speed claim cites one of these files: parent and change runs of
each workload of ``BENCHMARK.json``, paired by seed, with medians,
quartiles and wins for every end-to-end metric.  The files are loaded
and their schema checked; the script is run on two synthetic checkouts.
"""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_a_bench_record_is_committed():
    assert RECORDS


def _check_side(side: dict, pairs: int):
    values = side["values"]
    assert len(values) == pairs
    assert all(isinstance(v, (int, float)) for v in values)
    assert side["median"] == statistics.median(values)
    assert min(values) <= side["q1"] <= side["median"] <= side["q3"] <= max(values)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_schema(path):
    record = json.loads(path.read_text())
    assert isinstance(record["parent"], str) and isinstance(record["change"], str)
    assert record["seconds"] and all(s > 0 for s in record["seconds"])
    assert set(record["env"]) == {*bench_record.ENV_KEYS, "openblas_core"}
    assert record["env"]["nproc"] >= 1
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(record["workloads"]) == sorted(names)
    for entry in record["workloads"].values():
        seeds = entry["seeds"]
        assert len(seeds) >= 2 and len(set(seeds)) == len(seeds)
        assert entry["correct"] is True
        assert sorted(entry["metrics"]) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
        for metric in BENCHMARK["end_to_end"]:
            got = entry["metrics"][metric["name"]]
            assert (got["unit"], got["better"]) == (metric["unit"], metric["better"])
            assert got["pairs"] == len(seeds)
            assert 0 <= got["wins"] <= got["pairs"]
            _check_side(got["parent"], len(seeds))
            _check_side(got["change"], len(seeds))


def _write_runs(checkout: Path, warm: dict[int, float]):
    results = checkout / ".perfbench" / "results"
    results.mkdir(parents=True)
    for seed, warm_s in warm.items():
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}
        metrics["warm_s"]["value"] = warm_s
        run = {"correct": True, "metrics": metrics, "seconds": 30.0,
               "env": {"nproc": 2, "numpy": "2.4.6"}}
        (results / f"spectrum_sweep-seed{seed}-trace0.json").write_text(json.dumps(run))
    # a traced run is not an end-to-end record and is ignored
    (results / "spectrum_sweep-seed0-trace1.json").write_text("{}")


def test_script_pairs_runs_by_seed(tmp_path):
    _write_runs(tmp_path / "parent", {0: 0.14, 1: 0.15, 2: 0.13})
    _write_runs(tmp_path / "change", {0: 0.08, 1: 0.16, 2: 0.09, 3: 0.01})
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--parent-rev", "a", "--change-rev", "b", "--out", str(out)]
    assert bench_record.main(argv) == 0
    entry = json.loads(out.read_text())["workloads"]["spectrum_sweep"]
    assert entry["seeds"] == [0, 1, 2]
    warm = entry["metrics"]["warm_s"]
    assert warm["change"]["values"] == [0.08, 0.16, 0.09]
    assert (warm["wins"], warm["pairs"]) == (2, 3)
    assert warm["parent"]["median"] == 0.14
    # equal values are no win, also where higher is better
    assert entry["metrics"]["pass_rate"]["wins"] == 0
