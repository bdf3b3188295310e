"""Fast tests of the benchmark itself, on the tiny inputs of --smoke.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

# every workload's end-to-end metrics, under the names its report uses
NAMED = {
    "theorem_scan": {"scan_graphs_per_s": "1/s", "scan_graph_ms_p50": "ms",
                     "scan_graph_ms_p90": "ms"},
    "enumerate_all": {"enum_orderings_per_s": "1/s", "enum_call_ms_p50": "ms",
                      "enum_call_ms_p90": "ms"},
    "execute_validate": {"search_ops_per_s": "1/s", "validate_ops_per_s": "1/s"},
    "classify": {"classify_graphs_per_s": "1/s", "classify_graph_ms_p50": "ms",
                 "classify_graph_ms_p90": "ms", "inventory_graphs_per_s": "1/s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_ratio": "ratio"}


def bench_run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_reports_every_named_metric(workload, trace):
    proc = bench_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    report = json.loads(detail)
    named = {**COMMON, **NAMED[workload]} if not trace else {"failed_ratio": "ratio"}
    for name, unit in named.items():
        assert report["metrics"][name]["unit"] == unit
        assert report["metrics"][name]["samples"] >= 1
    assert report["metrics"]["failed_ratio"]["value"] == 0
    assert report["metadata"]["jobs"] == 1


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_wrong_expected_verdict_is_counted(workload):
    report = run.run_workload(workload, seed=3, seconds=0.01, trace=False,
                              smoke=True, wrong_first=True)
    assert not report["correct"]
    assert report["failed"] == 1
    assert report["metrics"]["failed_ratio"]["value"] == 1 / report["attempted"]


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench_run("classify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    spans = [["cli.scan", 0.0, 10.0, None, None, None],
             ["equivalence.theorem", 1.0, 7.0, 0, 0, None],
             ["searches.enumerate", 2.0, 5.0, 1, 0, 40],
             ["graphs.parse", 8.0, 9.0, 0, 0, None]]
    metrics = layer_metrics(spans)
    assert metrics["cli.scan_s"]["value"] == 10.0
    assert metrics["cli.overhead_s"]["value"] == 3.0
    assert metrics["equivalence.decide_s"]["value"] == 3.0
    assert metrics["searches.enumerate_s"]["value"] == 3.0
    assert metrics["searches.orderings"]["value"] == 40
    assert metrics["graphs.parse_s"]["value"] == 1.0
