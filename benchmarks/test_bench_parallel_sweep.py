"""Benchmark P1: parallel sweep speedup and determinism.

Runs the same seed sweep serially and through the fork-backed pool
(:mod:`repro.sim.parallel`) and asserts two things:

* **speedup** — with ``jobs=4`` the wall clock drops by at least 2.5×.
  Each task carries a fixed latency component (injected in the trace
  factory, which runs inside the worker), so the measurement exercises
  the pool's ability to overlap task wall-clock time and stays
  meaningful on single-core CI runners.
* **determinism** — the parallel :class:`SweepResult`, and the manifest
  of the same seeds run as campaign tasks, are bit-identical to the
  serial ones.
"""

import time
from functools import partial

import pytest

from repro.robustness.runner import CampaignRunner, RunManifest
from repro.sim.parallel import parallel_available
from repro.sim.sweeps import run_seed, sweep_seeds
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)

from bench_common import emit

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="fork start method unavailable"
)

SEEDS = list(range(1, 9))
#: Fixed per-task latency (seconds), injected where the worker runs.
TASK_LATENCY = 0.25


def _config():
    from repro.llc.partition import PartitionSpec
    from repro.sim.config import SystemConfig

    return SystemConfig(
        num_cores=2,
        partitions=[
            PartitionSpec(
                name="shared", sets=[0], way_range=(0, 4), cores=(0, 1)
            )
        ],
        llc_sets=4,
        llc_ways=4,
    )


def trace_factory(seed):
    time.sleep(TASK_LATENCY)  # executes inside the worker process
    workload = SyntheticWorkloadConfig(
        num_requests=40, address_range_size=1024, seed=seed
    )
    return generate_disjoint_workload(workload, [0, 1])


def test_parallel_sweep_speedup(benchmark):
    config = _config()

    started = time.perf_counter()
    serial = sweep_seeds(config, trace_factory, SEEDS, jobs=1)
    serial_elapsed = time.perf_counter() - started

    def parallel_run():
        started = time.perf_counter()
        result = sweep_seeds(config, trace_factory, SEEDS, jobs=4)
        return result, time.perf_counter() - started

    parallel, parallel_elapsed = benchmark.pedantic(
        parallel_run, iterations=1, rounds=1
    )
    speedup = serial_elapsed / parallel_elapsed
    emit(
        f"parallel sweep: serial {serial_elapsed:.2f}s, "
        f"jobs=4 {parallel_elapsed:.2f}s, speedup {speedup:.2f}x"
    )

    assert parallel == serial, "parallel result must be bit-identical"
    assert speedup >= 2.5, (
        f"jobs=4 over {len(SEEDS)} tasks must be at least 2.5x faster, "
        f"got {speedup:.2f}x"
    )


def test_parallel_campaign_manifest_is_deterministic(benchmark, tmp_path):
    config = _config()
    tasks = [
        (f"seed-{seed}", partial(run_seed, config, trace_factory, seed))
        for seed in SEEDS
    ]

    def both_runs():
        serial = CampaignRunner(manifest_path=tmp_path / "serial.json").run(
            tasks
        )
        parallel = CampaignRunner(
            manifest_path=tmp_path / "parallel.json", jobs=4
        ).run(tasks)
        return serial, parallel

    serial, parallel = benchmark.pedantic(both_runs, iterations=1, rounds=1)
    assert [o.status for o in parallel.outcomes] == ["done"] * len(SEEDS)
    assert [o.status for o in serial.outcomes] == ["done"] * len(SEEDS)
    assert [o.result.observed_wcl() for o in parallel.outcomes] == [
        o.result.observed_wcl() for o in serial.outcomes
    ]
    serial_manifest = RunManifest.load(tmp_path / "serial.json")
    parallel_manifest = RunManifest.load(tmp_path / "parallel.json")
    assert parallel_manifest.results() == serial_manifest.results()
    emit(
        "parallel campaign manifest matches serial for "
        f"{len(SEEDS)} seeds (status + payload per task)"
    )
