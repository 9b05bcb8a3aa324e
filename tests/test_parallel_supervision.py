"""Worker supervision: liveness watchdog, RSS guards, restarts.

The pool must tell a *hung* worker (no heartbeats — deadlock, livelock,
stuck syscall) from a merely *slow* one (heartbeating, just busy), tear
the former down promptly, restart it within budget, and quarantine it
with a typed error when the budget runs out.  A restarted simulation
task resumes from its last checkpoint when the auto-checkpoint policy
is installed — that composition is exercised at the end.
"""

import random
import time
from functools import partial

import pytest

from repro.common.errors import (
    ConfigurationError,
    ResourceExceededError,
    TaskHungError,
    TaskTimeoutError,
)
from repro.obs.metrics import MetricsRegistry
from repro.common.context import run_context
from repro.robustness.checkpoint import (
    AutoCheckpointPolicy,
    default_checkpoint_path,
)
from repro.robustness.runner import CampaignRunner
from repro.sim import parallel
from repro.sim.parallel import TaskPool, parallel_available
from repro.sim.simulator import Simulator, simulate
from sim_helpers import small_config, write_trace_of

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="fork start method unavailable"
)


def _hang_forever(seconds=60):
    """Simulated deadlock: stop heartbeating, then block.

    Runs in a forked child, so flipping the module global only silences
    that child's heartbeat thread — the parent sees a worker gone quiet
    while the process is still alive.
    """
    parallel._HEARTBEATS_DISABLED = True
    time.sleep(seconds)
    return "never"


def _slow_but_alive():
    time.sleep(1.2)
    return "eventually"


# ----------------------------------------------------------------------
# Construction validation
# ----------------------------------------------------------------------
def test_pool_rejects_bad_supervision_parameters():
    with pytest.raises(ConfigurationError):
        TaskPool(jobs=2, hung_after=0)
    with pytest.raises(ConfigurationError):
        TaskPool(jobs=2, max_restarts=-1)
    with pytest.raises(ConfigurationError):
        TaskPool(jobs=2, rss_limit_bytes=0)


# ----------------------------------------------------------------------
# Liveness: hung vs slow
# ----------------------------------------------------------------------
def test_hung_worker_is_detected_and_torn_down():
    registry = MetricsRegistry()
    pool = TaskPool(
        jobs=2, hung_after=0.6, timeout=30.0, registry=registry
    )
    started = time.monotonic()
    results = pool.run([("stuck", _hang_forever), ("fine", lambda: 42)])
    elapsed = time.monotonic() - started

    by_name = {r.name: r for r in results}
    assert by_name["fine"].ok and by_name["fine"].value == 42
    stuck = by_name["stuck"]
    assert stuck.status == "hung"
    assert isinstance(stuck.error, TaskHungError)
    assert "no heartbeat" in str(stuck.error)
    # Detection must come from the watchdog (sub-second), not from the
    # 30s hard budget or the worker's 60s sleep.
    assert elapsed < 15.0

    rows = {row["name"]: row for row in registry.rows()}
    assert rows["pool.hung_workers"]["value"] == 1


def test_slow_but_heartbeating_worker_is_not_killed():
    # Slow past hung_after many times over, but the heartbeat thread
    # keeps beating — only the hard timeout may kill it, and it is
    # generous here.
    pool = TaskPool(jobs=1, hung_after=0.3, timeout=30.0)
    results = pool.run([("slow", _slow_but_alive)])
    assert results[0].ok
    assert results[0].value == "eventually"
    assert results[0].restarts == 0


def test_timeout_applies_to_heartbeating_worker_and_never_restarts():
    pool = TaskPool(jobs=1, hung_after=0.3, timeout=0.5, max_restarts=3)
    results = pool.run([("slow", lambda: time.sleep(30))])
    assert results[0].status == "timeout"
    assert isinstance(results[0].error, TaskTimeoutError)
    assert results[0].restarts == 0


def test_heartbeat_gap_histogram_is_populated():
    registry = MetricsRegistry()
    pool = TaskPool(jobs=1, hung_after=0.4, registry=registry)
    results = pool.run([("beat", _slow_but_alive)])
    assert results[0].ok
    rows = {row["name"]: row for row in registry.rows()}
    assert rows["pool.heartbeat_gap"]["count"] >= 1


# ----------------------------------------------------------------------
# Restarts
# ----------------------------------------------------------------------
def _hang_once_then_recover(flag):
    def task():
        if not flag.exists():
            flag.write_text("first attempt hung here\n")
            parallel._HEARTBEATS_DISABLED = True
            time.sleep(60)
        return "recovered"

    return task


def test_hung_worker_restarts_and_completes(tmp_path):
    registry = MetricsRegistry()
    flag = tmp_path / "hung-once"
    pool = TaskPool(
        jobs=1, hung_after=0.6, max_restarts=1, registry=registry
    )
    results = pool.run([("flaky", _hang_once_then_recover(flag))])
    assert results[0].ok
    assert results[0].value == "recovered"
    assert results[0].restarts == 1

    rows = {
        (row["name"], tuple(sorted(row["labels"].items()))): row
        for row in registry.rows()
    }
    key = ("pool.worker_restarts", (("kind", "hung"),))
    assert rows[key]["value"] == 1


def test_restart_budget_exhaustion_quarantines():
    pool = TaskPool(jobs=1, hung_after=0.5, max_restarts=1)
    results = pool.run([("stuck", _hang_forever)])
    assert results[0].status == "hung"
    assert results[0].restarts == 1
    assert "1 restart(s) used" in str(results[0].error)


# ----------------------------------------------------------------------
# Resource guards
# ----------------------------------------------------------------------
def _memory_hog():
    hoard = []
    for _ in range(64):
        hoard.append(bytearray(8 << 20))  # 8 MiB chunks, 512 MiB total
        time.sleep(0.01)
    return len(hoard)


def test_rss_guard_quarantines_memory_hog():
    registry = MetricsRegistry()
    pool = TaskPool(
        jobs=1,
        hung_after=5.0,
        rss_limit_bytes=128 << 20,
        registry=registry,
    )
    results = pool.run([("hog", _memory_hog)])
    assert results[0].status == "resource_exceeded"
    assert isinstance(results[0].error, ResourceExceededError)
    assert "memory" in str(results[0].error)

    rows = {row["name"]: row for row in registry.rows()}
    assert rows["pool.resource_exceeded"]["value"] == 1


def test_rss_guard_leaves_small_workers_alone():
    pool = TaskPool(jobs=2, rss_limit_bytes=512 << 20)
    results = pool.run([(f"t{i}", lambda i=i: i) for i in range(4)])
    assert [r.value for r in results] == [0, 1, 2, 3]
    assert all(r.ok for r in results)


# ----------------------------------------------------------------------
# Campaign integration: quarantine signatures and checkpoint restarts
# ----------------------------------------------------------------------
def test_campaign_quarantines_hung_task_with_typed_signature(tmp_path):
    from repro.robustness.runner import RunManifest

    # Supervision holds serially too: jobs=1 runs each task in a worker.
    # The stuck task gives up after 5 s, so a missed hang fails the test
    # instead of stalling it.
    for jobs in (1, 2):
        manifest_path = tmp_path / f"manifest-{jobs}.json"
        runner = CampaignRunner(
            manifest_path=manifest_path, jobs=jobs, hung_after=0.6
        )
        result = runner.run(
            [("stuck", partial(_hang_forever, 5)), ("fine", lambda: "ok")]
        )
        by_name = {o.name: o for o in result.outcomes}
        assert by_name["fine"].status == "done"
        assert by_name["stuck"].status == "quarantined"
        assert by_name["stuck"].error_type == "TaskHungError"

        # The quarantine signature is durable: a resumed campaign sees it.
        entry = RunManifest.load(manifest_path).entry("stuck")
        assert entry["status"] == "quarantined"
        assert entry["error_type"] == "TaskHungError"


def _checkpointed_then_hang(config, traces, flag, ckpt_path):
    def task():
        if not flag.exists():
            # First attempt: make real progress, checkpoint it, then
            # deadlock.  The checkpoint is all the parent can rely on.
            flag.write_text("hung after checkpointing\n")
            sim = Simulator(config, traces)
            sim.engine.run(stop_at_slot=23)
            sim.checkpoint(ckpt_path)
            parallel._HEARTBEATS_DISABLED = True
            time.sleep(60)
        # Restarted attempt: the inherited auto-checkpoint policy makes
        # simulate() resume from the file the first attempt left behind.
        resumed_from_checkpoint = ckpt_path.exists()
        report = simulate(config, traces)
        return resumed_from_checkpoint, report.latencies()

    return task


def test_restarted_task_resumes_from_last_checkpoint(tmp_path):
    rng = random.Random(21)
    config = small_config()
    traces = {
        0: write_trace_of([rng.randrange(32) for _ in range(300)]),
        1: write_trace_of([rng.randrange(32) for _ in range(300)]),
    }
    reference = simulate(config, traces)

    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    ckpt_path = default_checkpoint_path(ckpt_dir, config, traces)
    flag = tmp_path / "first-attempt"

    policy = AutoCheckpointPolicy(ckpt_dir, every_slots=16)
    with run_context(checkpoints=policy):
        pool = TaskPool(jobs=1, hung_after=0.6, max_restarts=1)
        results = pool.run(
            [
                (
                    "sim",
                    _checkpointed_then_hang(config, traces, flag, ckpt_path),
                )
            ]
        )

    assert results[0].ok
    assert results[0].restarts == 1
    resumed_from_checkpoint, latencies = results[0].value
    assert resumed_from_checkpoint, "restart should find the checkpoint"
    assert latencies == reference.latencies()
    # Clean completion removes the checkpoint file.
    assert not ckpt_path.exists()


def test_campaign_merges_restarted_results_correctly(tmp_path):
    # A campaign where one task hangs once and recovers must produce
    # the same merged results as one where nothing hung.
    flag = tmp_path / "hiccup"
    runner = CampaignRunner(jobs=2, hung_after=0.6, max_restarts=1)
    result = runner.run(
        [
            ("a", lambda: 1),
            ("b", _hang_once_then_recover(flag)),
            ("c", lambda: 3),
        ]
    )
    assert [o.name for o in result.outcomes] == ["a", "b", "c"]
    assert [o.status for o in result.outcomes] == ["done"] * 3
