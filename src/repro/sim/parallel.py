"""Parallel task execution with a deterministic merge and timeouts.

The paper's evaluation is a grid of *independent* simulations —
configurations × address ranges × seeds — so the sweep and campaign
layers can fan the grid out across worker processes and merge the
results back **deterministically**: every result is keyed by its stable
task name and returned in canonical submission order, so a parallel run
is bit-identical to the serial one (same thunks, same inputs, no shared
mutable state between tasks).

Design notes
------------
* **Fork-backed process-per-task pool.**  Task thunks are closures over
  configs and trace factories, which do not survive pickling; with the
  ``fork`` start method a worker inherits the thunk through the forked
  address space, so arbitrary closures run unchanged.  Only the task's
  *result* (or its exception) crosses the process boundary, via a pipe,
  with the counts the worker's copy of the I/O fault plan added.
* **Parent-enforced timeouts.**  A hung task cannot be trusted to
  interrupt itself, so the *parent* tracks one deadline per in-flight
  task and kills the worker when it expires: a genuinely wedged
  simulation (busy loop, deadlock) is reclaimed, on any thread of the
  caller.  This is the only bound on a task — the campaign runner
  sends every timed campaign here, even at ``jobs=1``.  An expired
  worker is torn down exactly like the workers of an interrupted run:
  SIGKILL, join, close its pipe.
* **Bounded concurrency.**  At most ``jobs`` workers run at once;
  completed slots are refilled from the pending queue in submission
  order (failures :func:`is_transient` accepts re-enter the queue with
  a backoff deadline).
* **One serial-or-fork choice.**  :func:`run_parallel` is the
  fallback of every plain grid, which only builds its task list: it
  runs the tasks inline, in order, when ``jobs`` is 1, when there is
  one task, or when :func:`parallel_available` is ``False`` (no
  ``fork``, e.g. Windows); otherwise it uses the pool.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.context import RetryPolicy
from repro.common.errors import ConfigurationError, ReproError, TaskTimeoutError
from repro.common.validation import require

#: A pool task: a stable name plus a nullary callable producing the
#: task's result (the same shape the campaign runner uses).
PoolTask = Tuple[str, Callable[[], Any]]


def parallel_available() -> bool:
    """Whether the fork-backed pool can run on this platform."""
    return hasattr(os, "fork") and (
        "fork" in multiprocessing.get_all_start_methods()
    )


def is_transient(exc: BaseException) -> bool:
    """Whether a failed task is worth retrying: host-level flakiness
    (:class:`OSError`) is; model errors (:class:`ReproError`) are
    deterministic and never are."""
    return isinstance(exc, OSError) and not isinstance(exc, ReproError)


def effective_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/0 means one per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    require(jobs >= 1, f"jobs must be >= 1, got {jobs}", ConfigurationError)
    return jobs


@dataclass(frozen=True)
class PoolResult:
    """The outcome of one pool task, in the parent process."""

    index: int
    name: str
    #: ``"done"``, ``"error"`` (worker raised) or ``"timeout"`` (past
    #: its wall-clock budget, killed).
    status: str
    value: Any = None
    #: The worker's exception, re-hydrated in the parent (any non-"done"
    #: status).
    error: Optional[BaseException] = None
    attempts: int = 1
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the task produced a value."""
        return self.status == "done"


def _fault_plan():
    """The run context's I/O fault plan, or ``None``."""
    from repro.common.context import current_run_context
    from repro.robustness.iofault import IoFaultPlan

    hook = current_run_context().io_hook
    return hook if isinstance(hook, IoFaultPlan) else None


def _worker_main(thunk: Callable[[], Any], conn) -> None:
    """Run one task in a forked child; ship the outcome up the pipe.

    The outcome carries the faults and seam operations the child's copy
    of the run's I/O fault plan saw, for the parent's reported totals.
    """
    plan = _fault_plan()
    start = (plan.fired_count, plan.operations) if plan else (0, 0)
    try:
        outcome: Tuple[str, Any] = ("ok", thunk())
    except BaseException as exc:  # noqa: BLE001 - ships to the parent
        outcome = ("error", exc)
    io = (
        (plan.fired_count - start[0], plan.operations - start[1])
        if plan
        else (0, 0)
    )
    try:
        conn.send(outcome + (io,))
    except Exception as exc:
        # The value (or the exception) did not survive pickling; report
        # that instead of dying silently with an EOF in the parent.
        try:
            conn.send(
                (
                    "error",
                    RuntimeError(
                        f"task result could not cross the process "
                        f"boundary: {exc}"
                    ),
                    io,
                )
            )
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class _Pending:
    index: int
    name: str
    thunk: Callable[[], Any]
    attempts: int = 0
    ready_at: float = 0.0


@dataclass
class _Running:
    pending: _Pending
    process: multiprocessing.process.BaseProcess
    conn: Any
    started: float
    deadline: Optional[float]

    def kill(self) -> None:
        """Tear the worker down: SIGKILL, reap it, close its pipe."""
        self.process.kill()
        self.process.join()
        self.conn.close()


class TaskPool:
    """Runs named tasks in forked workers; merges results deterministically.

    Parameters
    ----------
    jobs:
        Maximum concurrent worker processes (>= 1).
    timeout:
        Per-task wall-clock budget in seconds, enforced by the parent —
        an expired worker is killed and its task reports status
        ``"timeout"`` with a :class:`TaskTimeoutError`.  ``None``
        disables it.
    retry:
        Bounded retry for worker failures :func:`is_transient` accepts:
        the task re-enters the queue after ``retry.delay(attempt)``
        seconds, at most ``retry.max_attempts`` total attempts (default:
        no retry).  Timeouts are never retried (a hung task will hang
        again).
    """

    def __init__(
        self,
        jobs: int,
        timeout: Optional[float] = None,
        retry: RetryPolicy = RetryPolicy(max_attempts=1),
    ) -> None:
        require(jobs >= 1, f"jobs must be >= 1, got {jobs}", ConfigurationError)
        if timeout is not None:
            require(
                timeout > 0,
                f"timeout must be positive, got {timeout}",
                ConfigurationError,
            )
        if not parallel_available():
            raise ConfigurationError(
                "parallel execution needs the 'fork' start method; "
                "use the serial path on this platform"
            )
        self.jobs = jobs
        self.timeout = timeout
        self.retry = retry
        self._context = multiprocessing.get_context("fork")

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[PoolTask],
        on_result: Optional[Callable[[PoolResult], None]] = None,
    ) -> List[PoolResult]:
        """Run every task; return results in submission order.

        ``on_result`` fires in *completion* order as workers finish
        (the campaign runner checkpoints its manifest there); the
        returned list is always in submission order, which is what
        makes parallel aggregation bit-identical to serial.
        """
        names = [name for name, _ in tasks]
        require(
            len(names) == len(set(names)),
            f"pool task names must be unique, got {names}",
            ConfigurationError,
        )
        pending: List[_Pending] = [
            _Pending(index=i, name=name, thunk=thunk)
            for i, (name, thunk) in enumerate(tasks)
        ]
        running: List[_Running] = []
        results: Dict[int, PoolResult] = {}
        try:
            while pending or running:
                now = time.monotonic()
                self._fill_slots(pending, running, now)
                self._wait(pending, running)
                now = time.monotonic()
                self._reap_finished(pending, running, results, now, on_result)
                self._expire(running, results, now, on_result)
        except BaseException:
            # KeyboardInterrupt (or a callback error): reclaim workers
            # before unwinding so no orphan keeps burning CPU.
            for run in running:
                run.kill()
            raise
        return [results[i] for i in range(len(tasks))]

    # ------------------------------------------------------------------
    def _fill_slots(
        self, pending: List[_Pending], running: List[_Running], now: float
    ) -> None:
        while pending and len(running) < self.jobs:
            ready = [p for p in pending if p.ready_at <= now]
            if not ready:
                break
            task = ready[0]
            pending.remove(task)
            task.attempts += 1
            parent_conn, child_conn = self._context.Pipe(duplex=False)
            process = self._context.Process(
                target=_worker_main, args=(task.thunk, child_conn), daemon=True
            )
            process.start()
            child_conn.close()
            running.append(
                _Running(
                    pending=task,
                    process=process,
                    conn=parent_conn,
                    started=now,
                    deadline=(now + self.timeout) if self.timeout else None,
                )
            )

    def _wait(self, pending: List[_Pending], running: List[_Running]) -> None:
        now = time.monotonic()
        wake_times = [run.deadline for run in running if run.deadline]
        wake_times.extend(p.ready_at for p in pending if p.ready_at > now)
        wait = max(0.0, min(wake_times) - now) if wake_times else None
        if running:
            multiprocessing.connection.wait(
                [run.conn for run in running], timeout=wait
            )
        elif wait:
            time.sleep(wait)

    @staticmethod
    def _poll_worker(run: _Running) -> Optional[Tuple[str, Any, Tuple[int, int]]]:
        """Return the worker's final outcome, or None while it runs."""
        try:
            if run.conn.poll():
                return run.conn.recv()
        except (EOFError, OSError):
            pass  # pipe closed without a final message
        else:
            if run.process.is_alive():
                return None
        # Worker died without reporting (killed by the OS, or its result
        # pipe broke): surface as a non-transient error rather than
        # hanging the campaign.
        return (
            "error",
            RuntimeError(
                f"worker for task {run.pending.name!r} exited without a "
                f"result (exit code {run.process.exitcode})"
            ),
            (0, 0),
        )

    def _reap_finished(
        self,
        pending: List[_Pending],
        running: List[_Running],
        results: Dict[int, PoolResult],
        now: float,
        on_result: Optional[Callable[[PoolResult], None]],
    ) -> None:
        for run in list(running):
            outcome = self._poll_worker(run)
            if outcome is None:
                continue
            status, payload, io = outcome
            running.remove(run)
            run.process.join()
            run.conn.close()
            plan = _fault_plan()
            if plan is not None:
                plan.add_worker_counts(*io)
            task = run.pending
            if status == "ok":
                result = PoolResult(
                    index=task.index,
                    name=task.name,
                    status="done",
                    value=payload,
                    attempts=task.attempts,
                    elapsed_seconds=now - run.started,
                )
            elif (
                is_transient(payload)
                and task.attempts < self.retry.max_attempts
            ):
                task.ready_at = now + self.retry.delay(task.attempts)
                pending.append(task)
                continue
            else:
                result = PoolResult(
                    index=task.index,
                    name=task.name,
                    status="error",
                    error=payload,
                    attempts=task.attempts,
                    elapsed_seconds=now - run.started,
                )
            results[task.index] = result
            if on_result is not None:
                on_result(result)

    def _expire(
        self,
        running: List[_Running],
        results: Dict[int, PoolResult],
        now: float,
        on_result: Optional[Callable[[PoolResult], None]],
    ) -> None:
        """Kill every worker past its deadline; report ``"timeout"``."""
        for run in list(running):
            if run.deadline is None or now < run.deadline:
                continue
            run.kill()
            running.remove(run)
            task = run.pending
            result = PoolResult(
                index=task.index,
                name=task.name,
                status="timeout",
                error=TaskTimeoutError(
                    f"task {task.name!r} exceeded its wall-clock budget "
                    f"of {self.timeout}s and its worker was killed"
                ),
                attempts=task.attempts,
                elapsed_seconds=now - run.started,
            )
            results[task.index] = result
            if on_result is not None:
                on_result(result)


def run_parallel(tasks: Sequence[PoolTask], jobs: int) -> List[Any]:
    """Run ``tasks`` with ``jobs`` workers; return values in task order.

    The strict runner behind every grid: the first failing task — in
    canonical submission order, regardless of which worker failed first
    — has its exception raised in the caller.  With one worker, one
    task or no ``fork`` the tasks run inline, stopping at that failure;
    otherwise they run on a :class:`TaskPool` and the failure's
    worker-side exception is re-raised in the parent.
    """
    if len(tasks) <= 1 or jobs <= 1 or not parallel_available():
        return [thunk() for _, thunk in tasks]
    results = TaskPool(jobs=jobs).run(tasks)
    for result in results:
        if not result.ok:
            raise result.error  # noqa: B904 - worker traceback is lost
    return [result.value for result in results]
