"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_declared_workloads_match_run_py():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_emits_exactly_the_declared_metrics(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--n-train", "200")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        # The wrappers and counters must see the calls they exist for.
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert values["snn.backward_bptt.calls"] > 0
        assert (values["snn.im2col.calls"] > 0) == (workload == "train-conv-full")
        assert (values["pruning.fallbacks"] > 0) == (workload == "train-dense-prune")
    record = json.loads(lines[-2])["record"]
    assert set(record["env"]) == {"nproc", "threads", "numpy", "blas", "python",
                                  "git_commit"}
    assert record["env"]["threads"] <= record["env"]["nproc"]
    assert len(record["digest"]) == 1  # identical outputs, traced or not


def test_metric_map_covers_every_per_layer_metric():
    with open(os.path.join(BENCH_DIR, "metric_map.json")) as fh:
        mapping = json.load(fh)["per_layer"]
    assert list(mapping) == [m["name"] for m in BENCH["per_layer"]]
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    workloads = {w["name"] for w in BENCH["workloads"]}
    for entry in mapping.values():
        assert set(entry["moves"]) <= end_to_end
        assert entry["on"] and set(entry["on"]) <= workloads


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "analyze-dense", "--seed", "0", "--seconds", "1",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
