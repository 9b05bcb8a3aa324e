"""Unit tests for the fork-backed task pool (repro.sim.parallel)."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.common.context import RetryPolicy
from repro.common.errors import ConfigurationError, TaskTimeoutError
from repro.sim.parallel import (
    TaskPool,
    _Pending,
    _Running,
    effective_jobs,
    parallel_available,
    run_parallel,
)

pytestmark = pytest.mark.skipif(
    not parallel_available(), reason="fork start method unavailable"
)


# ----------------------------------------------------------------------
# effective_jobs / construction
# ----------------------------------------------------------------------
def test_effective_jobs_normalisation():
    assert effective_jobs(None) == (os.cpu_count() or 1)
    assert effective_jobs(0) == (os.cpu_count() or 1)
    assert effective_jobs(1) == 1
    assert effective_jobs(7) == 7
    with pytest.raises(ConfigurationError):
        effective_jobs(-1)


def test_pool_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        TaskPool(jobs=0)
    with pytest.raises(ConfigurationError):
        TaskPool(jobs=2, timeout=0)
    with pytest.raises(ConfigurationError):
        TaskPool(jobs=2, retry=RetryPolicy(max_attempts=0))


def test_pool_rejects_duplicate_task_names():
    pool = TaskPool(jobs=2)
    with pytest.raises(ConfigurationError):
        pool.run([("same", lambda: 1), ("same", lambda: 2)])


# ----------------------------------------------------------------------
# Deterministic merge
# ----------------------------------------------------------------------
def test_results_come_back_in_submission_order():
    # Earlier tasks sleep *longer*, so completion order is the reverse
    # of submission order — the returned list must not care.
    delays = [0.15, 0.10, 0.05, 0.0]
    tasks = [
        (f"task-{i}", lambda i=i, d=d: (time.sleep(d), i * i)[1])
        for i, d in enumerate(delays)
    ]
    results = TaskPool(jobs=4).run(tasks)
    assert [r.name for r in results] == [f"task-{i}" for i in range(4)]
    assert [r.value for r in results] == [0, 1, 4, 9]
    assert all(r.ok and r.status == "done" for r in results)


def test_on_result_fires_in_completion_order_once_per_task():
    seen = []
    tasks = [
        ("slow", lambda: (time.sleep(0.2), "slow")[1]),
        ("fast", lambda: "fast"),
    ]
    results = TaskPool(jobs=2).run(tasks, on_result=seen.append)
    assert sorted(r.name for r in seen) == ["fast", "slow"]
    assert seen[0].name == "fast"  # completion order, not submission
    assert [r.name for r in results] == ["slow", "fast"]  # submission order


def test_run_parallel_returns_values_in_task_order():
    tasks = [(f"t{i}", lambda i=i: i + 10) for i in range(5)]
    assert run_parallel(tasks, jobs=3) == [10, 11, 12, 13, 14]


#: (jobs, task count, fork available) for each way run_parallel stays
#: in the calling process.
_INLINE_CASES = {
    "one-job": (1, 3, True),
    "one-task": (4, 1, True),
    "no-fork": (4, 3, False),
}


@pytest.mark.parametrize("case", sorted(_INLINE_CASES))
def test_run_parallel_falls_back_to_inline_in_task_order(case, monkeypatch):
    from repro.sim import parallel as parallel_mod

    jobs, count, fork = _INLINE_CASES[case]
    monkeypatch.setattr(parallel_mod, "parallel_available", lambda: fork)
    parent = os.getpid()
    tasks = [(f"t{i}", lambda i=i: (os.getpid(), i)) for i in range(count)]
    assert run_parallel(tasks, jobs=jobs) == [(parent, i) for i in range(count)]


@pytest.mark.parametrize("case", sorted(_INLINE_CASES))
def test_run_parallel_inline_raises_the_first_failure(case, monkeypatch):
    from repro.sim import parallel as parallel_mod

    jobs, count, fork = _INLINE_CASES[case]
    monkeypatch.setattr(parallel_mod, "parallel_available", lambda: fork)
    ran = []

    def fail(index):
        ran.append(index)
        raise ValueError(f"task {index} failed")

    tasks = [(f"t{i}", lambda i=i: fail(i)) for i in range(count)]
    with pytest.raises(ValueError, match="task 0 failed"):
        run_parallel(tasks, jobs=jobs)
    # Inline is fail-fast: nothing after the first failure ran.
    assert ran == [0]


def test_bounded_concurrency_still_completes_all_tasks():
    tasks = [(f"t{i}", lambda i=i: i) for i in range(9)]
    results = TaskPool(jobs=2).run(tasks)
    assert [r.value for r in results] == list(range(9))


# ----------------------------------------------------------------------
# Exception propagation
# ----------------------------------------------------------------------
def test_worker_exception_is_rehydrated_in_parent():
    def boom():
        raise ZeroDivisionError("synthetic failure for the pool test")

    results = TaskPool(jobs=2).run([("ok", lambda: 1), ("boom", boom)])
    assert results[0].ok
    assert results[1].status == "error"
    assert isinstance(results[1].error, ZeroDivisionError)
    assert "synthetic failure" in str(results[1].error)


def test_run_parallel_raises_first_failure_in_canonical_order():
    # Task 0 fails *slowly*, task 1 fails immediately: the parent must
    # still raise task 0's error (canonical order), matching what the
    # serial loop would have raised first.
    def slow_fail():
        time.sleep(0.15)
        raise ValueError("canonical-first")

    def fast_fail():
        raise KeyError("completed-first")

    with pytest.raises(ValueError, match="canonical-first"):
        run_parallel([("a", slow_fail), ("b", fast_fail)], jobs=2)


def test_unpicklable_result_reports_instead_of_hanging():
    def returns_closure():
        local = 3
        return lambda: local  # closures do not pickle

    results = TaskPool(jobs=1).run([("bad", returns_closure)])
    assert results[0].status == "error"
    assert "could not cross the process boundary" in str(results[0].error)


def test_worker_killed_by_os_reports_exit_code():
    def suicide():
        os.kill(os.getpid(), signal.SIGKILL)

    results = TaskPool(jobs=1).run([("killed", suicide)])
    assert results[0].status == "error"
    assert "exited without a result" in str(results[0].error)


def test_worker_that_reports_then_exits_between_the_checks_is_not_lost():
    # The result reaches the pipe just before the worker exits, both
    # after the parent looked: the outcome must be the result, not
    # "exited without a result".
    checks = []

    class ExitedWorker:
        exitcode = 0

        def is_alive(self):
            checks.append("alive")
            return False

    class ResultPipe:
        def poll(self):
            return "alive" in checks

        def recv(self):
            return ("ok", 42, (0, 0, ()))

    run = _Running(_Pending(0, "late", None), ExitedWorker(), ResultPipe(), 0.0, None)
    assert TaskPool._poll_worker(run) == ("ok", 42, (0, 0, ()))


# ----------------------------------------------------------------------
# Parent-enforced timeout
# ----------------------------------------------------------------------
def test_parent_kills_hung_worker_and_sibling_completes():
    def hang():
        while True:  # a busy loop SIGALRM could never interrupt remotely
            pass

    started = time.monotonic()
    results = TaskPool(jobs=2, timeout=0.3).run(
        [("hang", hang), ("fine", lambda: 42)]
    )
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, "the hung worker must be reclaimed promptly"
    hung, fine = results
    assert hung.status == "timeout"
    assert isinstance(hung.error, TaskTimeoutError)
    assert "was killed" in str(hung.error)
    assert fine.ok and fine.value == 42


def test_timeouts_are_never_retried():
    def hang():
        while True:
            pass

    results = TaskPool(
        jobs=1,
        timeout=0.2,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
    ).run([("hang", hang)])
    assert results[0].status == "timeout"
    assert results[0].attempts == 1


# ----------------------------------------------------------------------
# No worker outlives the pool
# ----------------------------------------------------------------------
def _spin_after_writing_pid(pid_file):
    def spin():
        pid_file.write_text(str(os.getpid()))
        while True:
            pass

    return spin


def _assert_worker_gone(pid_file):
    assert multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_timed_out_worker_leaves_no_process(tmp_path):
    pid_file = tmp_path / "pid"
    results = TaskPool(jobs=2, timeout=0.3).run(
        [("spin", _spin_after_writing_pid(pid_file)), ("fine", lambda: 1)]
    )
    assert [r.status for r in results] == ["timeout", "done"]
    _assert_worker_gone(pid_file)


def test_interrupted_run_leaves_no_process(tmp_path):
    pid_file = tmp_path / "pid"

    def after_spinner_started():
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not (
            pid_file.exists() and pid_file.read_text()
        ):
            time.sleep(0.01)
        return "fine"

    def interrupt(result):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        TaskPool(jobs=2).run(
            [
                ("spin", _spin_after_writing_pid(pid_file)),
                ("fine", after_spinner_started),
            ],
            on_result=interrupt,
        )
    _assert_worker_gone(pid_file)


# ----------------------------------------------------------------------
# Transient retry
# ----------------------------------------------------------------------
def test_transient_failure_is_retried_until_success(tmp_path):
    flag = tmp_path / "attempted-once"

    def flaky():
        # First attempt leaves a marker and fails; the retry (a fresh
        # fork) sees the marker on the shared filesystem and succeeds.
        if not flag.exists():
            flag.write_text("1")
            raise OSError("transient host hiccup")
        return "recovered"

    results = TaskPool(
        jobs=1,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
    ).run([("flaky", flaky)])
    assert results[0].ok
    assert results[0].value == "recovered"
    assert results[0].attempts == 2


def test_non_transient_failure_is_not_retried(tmp_path):
    counter = tmp_path / "attempts"

    def fails():
        attempts = int(counter.read_text()) if counter.exists() else 0
        counter.write_text(str(attempts + 1))
        raise ValueError("deterministic model error")

    results = TaskPool(
        jobs=1,
        retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
    ).run([("fails", fails)])
    assert results[0].status == "error"
    assert results[0].attempts == 1
    assert counter.read_text() == "1"


def test_retry_attempts_bound_is_respected(tmp_path):
    counter = tmp_path / "attempts"

    def always_transient():
        attempts = int(counter.read_text()) if counter.exists() else 0
        counter.write_text(str(attempts + 1))
        raise OSError("never recovers")

    results = TaskPool(
        jobs=1,
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
    ).run([("t", always_transient)])
    assert results[0].status == "error"
    assert results[0].attempts == 2
    assert counter.read_text() == "2"
