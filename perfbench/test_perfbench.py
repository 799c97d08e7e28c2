"""Smoke test of the benchmark harness on tiny versions of every workload.

Each tiny run goes through the real harness path (worker processes,
tracing, correctness checks) and must emit every metric BENCHMARK.json
names, with its unit, and no failed run.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "gnn-ccm": {"tickers": 6, "days": workloads.WINDOW + 30},
    "long-pearson": {"tickers": 4, "days": workloads.WINDOW + 60, "episodes": [[5, 10, 0.8]]},
}


def tiny(name):
    spec = copy.deepcopy(workloads.WORKLOADS[name])
    spec.update(TINY[name])
    if spec["ini"]["gnn"]["models"]:
        spec["ini"]["gnn"]["epochs"] = "2"
    return spec


def test_workloads_match_benchmark_json():
    listed = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert listed == {name: spec["why"] for name, spec in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    record, result = run.bench(f"smoke-{name}", tiny(name), 1, 0, True, setup_probes=0)
    assert result["correct"] and result["failed"] == 0, record["checks"]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert result["metrics"]["corrnet.windows"]["value"] == workloads.n_windows(tiny(name))
    assert record["counts"]["corrnet.windows"] == workloads.n_windows(tiny(name))


def test_untraced_run_emits_every_end_to_end_metric():
    record, result = run.bench("smoke-gnn-ccm", tiny("gnn-ccm"), 1, 0, False, setup_probes=1)
    assert result["correct"] and result["failed"] == 0, record["checks"]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    stamp = record["stamp"]
    for key in ("nproc", "python", "numpy", "scipy", "numpy_blas", "blas_threads", "git_sha"):
        assert key in stamp
    assert record["stats"]["run_s"]["n"] == result["attempted"]


def test_compare_classifies_by_the_pair_rule():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]
    faster = [v * 0.5 for v in parent]
    assert run.classify(parent, faster, "lower", 0.1) == "better"
    assert run.classify(parent, list(parent), "lower", 0.1) == "unchanged"
    assert run.classify(parent, [v * 1.5 for v in parent], "lower", 0.1) == "worse"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert run.classify(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved"
