"""Smoke tests of the benchmark harness: ``pytest perf/test_trajectory.py``.

Every workload runs at ``--scale smoke`` (tiny inputs, one unit), so the
whole file takes seconds, not minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import verdict

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_harness(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perf" / "trajectory.py"), "--scale", "smoke"]
    command += ["--seconds", "0", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def last_json(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced") / "all.json"
    completed = run_harness("--out", str(out))
    last_json(completed)
    return json.loads(out.read_text())["workloads"]


def test_every_workload_reports_the_declared_end_to_end_metrics(untraced):
    assert list(untraced) == WORKLOADS
    names = [m["name"] for m in SPEC["end_to_end"]]
    for doc in untraced.values():
        assert list(doc["metrics"]) == names
        assert all(m["value"] > 0 for m in doc["metrics"].values())
        assert doc["failed"] == 0 and doc["attempted"] > 0, doc["failures"]


@pytest.mark.parametrize("workload", ["dense-ss", "campaign-cached", "fuzz-oracle"])
def test_traced_run_reports_every_layer_and_keeps_outputs(tmp_path, untraced, workload):
    out = tmp_path / "traced.json"
    completed = run_harness("--workload", workload, "--traced", "--out", str(out))
    result = last_json(completed)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["failed"] == 0
    doc = json.loads(out.read_text())
    # Every traced unit's output digest matched the untraced one.
    assert doc["digest"] == untraced[workload]["digest"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert None not in values.values()
    assert values["trace.overhead_ratio"] > 0
    if workload == "campaign-cached":
        assert values["result_cache.hit_ratio"] == pytest.approx(0.5)
        assert values["pool.task_busy_s"] > 0 and values["checkpoint.saves"] > 0
        # Worker profiles reach the parent.
        assert values["engine.reference_steps"] > 0
    if workload == "fuzz-oracle":
        assert values["fuzz.case_samples"] == 20 and values["oracle.check_s"] > 0


def copy_benchmark(target: Path) -> None:
    """``BENCHMARK.json`` and ``perf/`` alone, as the benchmark ships."""
    shutil.copy(ROOT / "BENCHMARK.json", target)
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(BENCH_DIR, target / "perf", ignore=ignore)


def test_planted_wrong_digest_counts_as_failed(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    digests_path = tmp_path / "perf" / "digests.json"
    digests = json.loads(digests_path.read_text())
    digests["smoke"]["dense-ss"] = "0" * 64
    digests_path.write_text(json.dumps(digests))
    result = last_json(run_harness("--workload", "dense-ss", cwd=tmp_path))
    assert result["failed"] > 0 and not result["correct"]


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    copy_benchmark(tmp_path)
    completed = run_harness("--workload", "dense-ss", cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def test_compare_verdicts():
    same = [1.0, 1.01, 0.99, 1.02, 0.98]
    assert verdict(same, same, "lower", 0.1)["verdict"] == "unchanged"
    slower = [v * 1.3 for v in same]
    assert verdict(same, slower, "lower", 0.1)["verdict"] == "regressed"
    assert verdict(same, slower, "higher", 0.1)["verdict"] == "improved"
    noisy = [0.5, 1.5, 1.0, 0.7, 1.3]
    assert verdict(same, noisy, "lower", 0.1)["verdict"] == "unresolved"
