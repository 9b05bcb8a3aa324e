"""Parallel-vs-serial bit-identity across the sweep and campaign layers.

Every test here runs the same work twice — ``jobs=1`` and ``jobs>1`` —
and asserts the merged results are identical: the deterministic-merge
guarantee of :mod:`repro.sim.parallel` as seen by its real callers.
"""

import time
from functools import partial

import pytest

from sim_helpers import small_config

from repro.common.context import RetryPolicy
from repro.common.errors import SimulationError
from repro.experiments.compare import compare_notations
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.robustness.runner import CampaignRunner, RunManifest
from repro.sim.parallel import parallel_available
from repro.sim.sweeps import run_seed, sweep_seeds
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="fork start method unavailable"
)

CONFIG = small_config(num_cores=2)
SEEDS = [1, 2, 3, 4]


def trace_factory(seed):
    workload = SyntheticWorkloadConfig(
        num_requests=20, address_range_size=512, seed=seed
    )
    return generate_disjoint_workload(workload, [0, 1])


# ----------------------------------------------------------------------
# Plain sweeps
# ----------------------------------------------------------------------
def test_sweep_seeds_parallel_is_bit_identical():
    serial = sweep_seeds(CONFIG, trace_factory, SEEDS, jobs=1)
    parallel = sweep_seeds(CONFIG, trace_factory, SEEDS, jobs=3)
    assert parallel == serial


def test_sweep_seeds_parallel_propagates_check_failures():
    def check(report):
        assert report.makespan < 0, "impossible bound"

    with pytest.raises(AssertionError, match="seed 1"):
        sweep_seeds(CONFIG, trace_factory, SEEDS, check=check, jobs=3)


# ----------------------------------------------------------------------
# Experiment grids
# ----------------------------------------------------------------------
def test_fig7_parallel_is_bit_identical():
    kwargs = dict(address_ranges=(1024, 2048), num_requests=30)
    serial = run_fig7(jobs=1, **kwargs)
    parallel = run_fig7(jobs=3, **kwargs)
    assert parallel == serial
    assert [r.config for r in parallel.rows] == [r.config for r in serial.rows]


def test_fig8_parallel_is_bit_identical():
    kwargs = dict(address_ranges=(512, 1024), num_requests=40)
    serial = run_fig8("8a", jobs=1, **kwargs)
    parallel = run_fig8("8a", jobs=3, **kwargs)
    assert parallel == serial


def test_compare_notations_parallel_is_bit_identical():
    notations = ["SS(1,16,4)", "P(1,16)"]
    serial = compare_notations(notations, num_requests=30, jobs=1)
    parallel = compare_notations(notations, num_requests=30, jobs=2)
    assert parallel.rows == serial.rows


# ----------------------------------------------------------------------
# Robust campaign
# ----------------------------------------------------------------------
def seed_tasks(factory, seeds):
    """One ``run_seed`` campaign task per seed."""
    return [
        (f"seed-{seed}", partial(run_seed, CONFIG, factory, seed))
        for seed in seeds
    ]


def test_robust_sweep_parallel_matches_serial_including_manifest(tmp_path):
    serial_runner = CampaignRunner(manifest_path=tmp_path / "serial.json")
    parallel_runner = CampaignRunner(
        manifest_path=tmp_path / "parallel.json", jobs=3
    )
    serial = serial_runner.run(seed_tasks(trace_factory, SEEDS))
    parallel = parallel_runner.run(seed_tasks(trace_factory, SEEDS))
    assert [o.status for o in parallel.outcomes] == [
        o.status for o in serial.outcomes
    ]
    assert [o.result.observed_wcl() for o in parallel.outcomes] == [
        o.result.observed_wcl() for o in serial.outcomes
    ]
    assert [o.result.makespan for o in parallel.outcomes] == [
        o.result.makespan for o in serial.outcomes
    ]
    # The comparable manifest content (status + payload; not timings).
    assert (
        RunManifest.load(tmp_path / "parallel.json").results()
        == RunManifest.load(tmp_path / "serial.json").results()
    )


def test_parallel_campaign_quarantines_worker_exception(tmp_path):
    def selective_factory(seed):
        if seed == 2:
            raise SimulationError("seed 2 workload is broken")
        return trace_factory(seed)

    robust = CampaignRunner(jobs=3).run(seed_tasks(selective_factory, [1, 2, 3]))
    assert [o.name for o in robust.quarantined] == ["seed-2"]
    assert [o.status for o in robust.outcomes] == ["done", "quarantined", "done"]
    bad = robust.outcomes[1]
    assert bad.status == "quarantined"
    assert bad.error_type == "SimulationError"
    assert "seed 2 workload is broken" in bad.error


def test_parallel_campaign_kills_hung_task(tmp_path):
    def hang():
        while True:
            pass

    runner = CampaignRunner(
        manifest_path=tmp_path / "m.json", timeout=0.3, jobs=2
    )
    started = time.monotonic()
    result = runner.run([("hang", hang), ("fine", lambda: "ok")])
    assert time.monotonic() - started < 5.0
    hung, fine = result.outcomes
    assert hung.status == "quarantined"
    assert hung.error_type == "TaskTimeoutError"
    assert fine.status == "done"
    entry = RunManifest.load(tmp_path / "m.json").entry("hang")
    assert entry["status"] == "quarantined"
    assert entry["error_type"] == "TaskTimeoutError"


def test_parallel_campaign_retries_transient_failures(tmp_path):
    flag = tmp_path / "first-attempt"

    def flaky():
        if not flag.exists():
            flag.write_text("1")
            raise OSError("transient host hiccup")
        return "recovered"

    runner = CampaignRunner(
        manifest_path=tmp_path / "m.json",
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        jobs=2,
    )
    result = runner.run([("flaky", flaky)])
    assert result.outcomes[0].status == "done"
    assert result.outcomes[0].attempts == 2
    assert result.outcomes[0].result == "recovered"


def test_parallel_campaign_resume_skips_done_tasks(tmp_path):
    path = tmp_path / "m.json"
    runner = CampaignRunner(manifest_path=path, jobs=2)
    first = runner.run([("a", lambda: 1), ("b", lambda: 2)])
    assert [o.status for o in first.outcomes] == ["done", "done"]

    def must_not_run():
        raise AssertionError("resumed task was re-executed")

    resumed = CampaignRunner(manifest_path=path, jobs=2).run(
        [("a", must_not_run), ("b", must_not_run), ("c", lambda: 3)]
    )
    assert [o.status for o in resumed.outcomes] == ["skipped", "skipped", "done"]
    assert resumed.outcomes[2].result == 3


def test_parallel_campaign_outcome_order_is_canonical(tmp_path):
    # Task 0 finishes last; outcomes must still list it first.
    tasks = [
        ("slow", lambda: (time.sleep(0.2), "s")[1]),
        ("fast", lambda: "f"),
    ]
    result = CampaignRunner(jobs=2).run(tasks)
    assert [o.name for o in result.outcomes] == ["slow", "fast"]
    assert [o.result for o in result.outcomes] == ["s", "f"]
