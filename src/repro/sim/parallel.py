"""Parallel task execution with a deterministic merge and supervision.

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
  *result* (or its exception) crosses the process boundary, via a pipe.
* **Parent-enforced timeouts.**  A hung task cannot be trusted to
  interrupt itself, so the *parent* tracks one deadline per in-flight
  task and kills the worker when it expires: a genuinely wedged
  simulation (busy loop, deadlock) is reclaimed, on any thread of the
  caller.  This is the only task timeout there is — the campaign
  runner sends every timed or supervised campaign here, even at
  ``jobs=1``.
* **Liveness supervision.**  With ``hung_after`` set, workers send
  heartbeats over the result pipe from a daemon thread and the parent
  runs a watchdog that distinguishes *hung* (no heartbeat for
  ``hung_after`` seconds — wedged interpreter, deadlock, stalled
  syscall) from merely *slow* (still heartbeating; allowed to run to
  its hard ``timeout``).  Workers beat every ``hung_after / 4``
  seconds.  A hung worker is torn down with an escalating SIGTERM →
  :attr:`TaskPool.KILL_GRACE` → SIGKILL sequence and, if
  ``max_restarts`` allows, its task is restarted — resuming from its
  last simulation checkpoint when the auto-checkpoint policy is
  installed (see :mod:`repro.robustness.checkpoint`), so the restart
  re-does only the slots since the last snapshot.
* **Resource guards.**  With ``rss_limit_bytes`` set, each child caps
  its own address space via ``RLIMIT_DATA`` (allocation beyond it
  raises ``MemoryError``) and the parent additionally polls
  ``/proc/<pid>/statm`` — no psutil dependency — killing workers whose
  resident set exceeds the ceiling.  Either path quarantines the task
  with a ``resource_exceeded`` status so a leaky configuration is
  diagnosable from the run manifest.
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
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.context import RetryPolicy
from repro.common.errors import (
    ConfigurationError,
    ReproError,
    ResourceExceededError,
    TaskHungError,
    TaskTimeoutError,
)
from repro.common.validation import require

#: A pool task: a stable name plus a nullary callable producing the
#: task's result (the same shape the campaign runner uses).
PoolTask = Tuple[str, Callable[[], Any]]

#: Test seam: a forked child that sets this True stops heartbeating
#: while its task keeps running, which is exactly what a wedged
#: interpreter looks like from the parent.  Never set in production.
_HEARTBEATS_DISABLED = False


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


def _process_rss_bytes(pid: int) -> Optional[int]:
    """Resident set size of ``pid`` from ``/proc``, or None off-Linux."""
    try:
        with open(f"/proc/{pid}/statm") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


@dataclass(frozen=True)
class PoolResult:
    """The outcome of one pool task, in the parent process."""

    index: int
    name: str
    #: ``"done"``, ``"error"`` (worker raised), ``"timeout"`` (slow past
    #: the hard budget, killed), ``"hung"`` (stopped heartbeating,
    #: killed, restarts exhausted) or ``"resource_exceeded"`` (RSS guard
    #: tripped, restarts exhausted).
    status: str
    value: Any = None
    #: The worker's exception, re-hydrated in the parent (any non-"done"
    #: status).
    error: Optional[BaseException] = None
    attempts: int = 1
    elapsed_seconds: float = 0.0
    #: Supervision restarts consumed by this task (hung / RSS kills).
    restarts: int = 0

    @property
    def ok(self) -> bool:
        """Whether the task produced a value."""
        return self.status == "done"


def _heartbeat_loop(conn, lock: threading.Lock, stop: threading.Event,
                    interval: float) -> None:
    """Daemon thread in the child: periodic liveness beats up the pipe."""
    while not stop.wait(interval):
        if _HEARTBEATS_DISABLED:
            continue
        try:
            with lock:
                if stop.is_set():
                    return
                conn.send(("hb", None))
        except Exception:
            # Parent gone or pipe closed: nothing left to prove alive to.
            return


def _worker_main(
    thunk: Callable[[], Any],
    conn,
    heartbeat_interval: Optional[float] = None,
    rss_limit_bytes: Optional[int] = None,
) -> None:
    """Run one task in a forked child; ship the outcome up the pipe."""
    if rss_limit_bytes is not None:
        try:
            import resource

            resource.setrlimit(
                resource.RLIMIT_DATA, (rss_limit_bytes, rss_limit_bytes)
            )
        except (ImportError, ValueError, OSError):  # pragma: no cover
            pass  # the parent-side /proc poll still guards this worker
    lock = threading.Lock()
    stop = threading.Event()
    if heartbeat_interval is not None:
        threading.Thread(
            target=_heartbeat_loop,
            args=(conn, lock, stop, heartbeat_interval),
            daemon=True,
        ).start()
    try:
        payload: Tuple[str, Any] = ("ok", thunk())
    except BaseException as exc:  # noqa: BLE001 - ships to the parent
        payload = ("error", exc)
    stop.set()
    try:
        with lock:
            conn.send(payload)
    except Exception as exc:
        # The value (or the exception) did not survive pickling; report
        # that instead of dying silently with an EOF in the parent.
        try:
            with lock:
                conn.send(
                    (
                        "error",
                        RuntimeError(
                            f"task result could not cross the process "
                            f"boundary: {exc}"
                        ),
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
    restarts: int = 0


@dataclass
class _Running:
    pending: _Pending
    process: multiprocessing.process.BaseProcess
    conn: Any
    started: float
    deadline: Optional[float]
    last_heartbeat: float = 0.0
    next_rss_poll: float = 0.0


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
        disables it.  A worker that is slow but still heartbeating runs
        until this hard budget; only silent workers are reclaimed early.
    retry:
        Bounded retry for worker failures :func:`is_transient` accepts:
        the task re-enters the queue after ``retry.delay(attempt)``
        seconds, at most ``retry.max_attempts`` total attempts (default:
        no retry).  Timeouts are never retried (a hung task will hang
        again).
    hung_after:
        Liveness watchdog: workers beat every ``hung_after / 4``
        seconds, so several beats must be missed before a worker is
        declared hung and torn down (SIGTERM, then :attr:`KILL_GRACE`
        seconds, then SIGKILL).  ``None`` disables heartbeats entirely.
    max_restarts:
        Times a hung or resource-killed task is restarted before being
        quarantined.  Restarted simulations resume from their last
        checkpoint when the auto-checkpoint policy is installed.
    rss_limit_bytes:
        Per-worker resident-memory ceiling, enforced both inside the
        child (``RLIMIT_DATA``) and by a parent-side ``/proc`` poll.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        ``pool.worker_restarts``, ``pool.hung_workers``,
        ``pool.resource_exceeded`` counters and the
        ``pool.heartbeat_gap`` histogram.
    """

    #: Seconds between parent-side /proc RSS polls.
    RSS_POLL_INTERVAL = 0.25
    #: Seconds between SIGTERM and SIGKILL during supervised teardown.
    KILL_GRACE = 2.0

    def __init__(
        self,
        jobs: int,
        timeout: Optional[float] = None,
        retry: RetryPolicy = RetryPolicy(max_attempts=1),
        hung_after: Optional[float] = None,
        max_restarts: int = 0,
        rss_limit_bytes: Optional[int] = None,
        registry=None,
    ) -> None:
        require(jobs >= 1, f"jobs must be >= 1, got {jobs}", ConfigurationError)
        if timeout is not None:
            require(
                timeout > 0,
                f"timeout must be positive, got {timeout}",
                ConfigurationError,
            )
        if hung_after is not None:
            require(
                hung_after > 0,
                f"hung_after must be positive, got {hung_after}",
                ConfigurationError,
            )
        require(
            max_restarts >= 0,
            f"max_restarts must be >= 0, got {max_restarts}",
            ConfigurationError,
        )
        if rss_limit_bytes is not None:
            require(
                rss_limit_bytes > 0,
                f"rss_limit_bytes must be positive, got {rss_limit_bytes}",
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
        self.hung_after = hung_after
        self.max_restarts = max_restarts
        self.rss_limit_bytes = rss_limit_bytes
        self.registry = registry
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
                self._supervise(pending, running, results, now, on_result)
        except BaseException:
            # KeyboardInterrupt (or a callback error): reclaim workers
            # before unwinding so no orphan keeps burning CPU.
            for run in running:
                run.process.kill()
                run.process.join()
                run.conn.close()
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
                target=_worker_main,
                args=(
                    task.thunk,
                    child_conn,
                    self.hung_after / 4 if self.hung_after else None,
                    self.rss_limit_bytes,
                ),
                daemon=True,
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
                    last_heartbeat=now,
                    next_rss_poll=now + self.RSS_POLL_INTERVAL,
                )
            )

    def _wait(self, pending: List[_Pending], running: List[_Running]) -> None:
        now = time.monotonic()
        wake_times = [run.deadline for run in running if run.deadline]
        if self.hung_after is not None:
            wake_times.extend(
                run.last_heartbeat + self.hung_after for run in running
            )
        if self.rss_limit_bytes is not None:
            wake_times.extend(run.next_rss_poll for run in running)
        wake_times.extend(p.ready_at for p in pending if p.ready_at > now)
        wait = max(0.0, min(wake_times) - now) if wake_times else None
        if running:
            multiprocessing.connection.wait(
                [run.conn for run in running], timeout=wait
            )
        elif wait:
            time.sleep(wait)

    def _poll_worker(
        self, run: _Running, now: float
    ) -> Optional[Tuple[str, Any]]:
        """Drain heartbeats; return the final outcome or None if running."""
        try:
            while run.conn.poll():
                message = run.conn.recv()
                if (
                    isinstance(message, tuple)
                    and len(message) == 2
                    and message[0] == "hb"
                ):
                    if self.registry is not None:
                        self.registry.histogram(
                            "pool.heartbeat_gap", 0.1
                        ).observe(now - run.last_heartbeat)
                    run.last_heartbeat = now
                    continue
                return message
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
            outcome = self._poll_worker(run, now)
            if outcome is None:
                continue
            status, payload = outcome
            running.remove(run)
            run.process.join()
            run.conn.close()
            task = run.pending
            if status == "ok":
                result = PoolResult(
                    index=task.index,
                    name=task.name,
                    status="done",
                    value=payload,
                    attempts=task.attempts,
                    elapsed_seconds=now - run.started,
                    restarts=task.restarts,
                )
            elif (
                isinstance(payload, MemoryError)
                and self.rss_limit_bytes is not None
            ):
                # The child's own RLIMIT_DATA tripped: same failure the
                # parent-side poll guards against, same quarantine.
                if self._maybe_restart(task, pending, now, "resource"):
                    continue
                result = self._supervised_result(
                    task, run, now, "resource_exceeded"
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
                    restarts=task.restarts,
                )
            results[task.index] = result
            if on_result is not None:
                on_result(result)

    # ------------------------------------------------------------------
    def _terminate(self, run: _Running) -> None:
        """Escalating teardown: SIGTERM, a grace period, then SIGKILL."""
        run.process.terminate()
        run.process.join(self.KILL_GRACE)
        if run.process.is_alive():
            run.process.kill()
        run.process.join()
        run.conn.close()

    def _maybe_restart(
        self, task: _Pending, pending: List[_Pending], now: float, kind: str
    ) -> bool:
        """Requeue a supervised-kill victim if its restart budget allows."""
        if task.restarts >= self.max_restarts:
            return False
        task.restarts += 1
        task.ready_at = now
        pending.append(task)
        if self.registry is not None:
            self.registry.counter("pool.worker_restarts", kind=kind).inc()
        return True

    def _supervised_result(
        self, task: _Pending, run: _Running, now: float, status: str
    ) -> PoolResult:
        if status == "hung":
            error: BaseException = TaskHungError(
                f"task {task.name!r} sent no heartbeat for "
                f"{self.hung_after}s and its worker was torn down "
                f"({task.restarts} restart(s) used)"
            )
            if self.registry is not None:
                self.registry.counter("pool.hung_workers").inc()
        elif status == "resource_exceeded":
            error = ResourceExceededError(
                f"task {task.name!r} exceeded the per-worker memory "
                f"ceiling of {self.rss_limit_bytes} bytes "
                f"({task.restarts} restart(s) used)"
            )
            if self.registry is not None:
                self.registry.counter("pool.resource_exceeded").inc()
        else:
            error = TaskTimeoutError(
                f"task {task.name!r} exceeded its wall-clock budget "
                f"of {self.timeout}s and its worker was killed"
            )
        return PoolResult(
            index=task.index,
            name=task.name,
            status=status,
            error=error,
            attempts=task.attempts,
            elapsed_seconds=now - run.started,
            restarts=task.restarts,
        )

    def _supervise(
        self,
        pending: List[_Pending],
        running: List[_Running],
        results: Dict[int, PoolResult],
        now: float,
        on_result: Optional[Callable[[PoolResult], None]],
    ) -> None:
        """Timeout, liveness and resource enforcement for live workers."""
        for run in list(running):
            task = run.pending
            verdict: Optional[Tuple[str, str]] = None
            if run.deadline is not None and now >= run.deadline:
                # Hard budget: applies even to heartbeating (slow)
                # workers, and is never restarted.
                verdict = ("timeout", "")
            elif (
                self.hung_after is not None
                and now - run.last_heartbeat >= self.hung_after
            ):
                verdict = ("hung", "hung")
            elif (
                self.rss_limit_bytes is not None and now >= run.next_rss_poll
            ):
                run.next_rss_poll = now + self.RSS_POLL_INTERVAL
                rss = _process_rss_bytes(run.process.pid)
                if rss is not None and rss > self.rss_limit_bytes:
                    verdict = ("resource_exceeded", "resource")
            if verdict is None:
                continue
            status, restart_kind = verdict
            self._terminate(run)
            running.remove(run)
            if restart_kind and self._maybe_restart(
                task, pending, now, restart_kind
            ):
                continue
            result = self._supervised_result(task, run, now, status)
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
