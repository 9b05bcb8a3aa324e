"""Crash-tolerant campaign runner: timeouts, retries, quarantine, resume.

A long reproduction campaign (``repro-llc all``, a many-seed sweep) must
not be torpedoed by one bad configuration or one hung simulation.  This
module wraps any sequence of named tasks with:

* a **per-task wall-clock timeout** (SIGALRM-based; a hung task raises
  :class:`~repro.common.errors.TaskTimeoutError` and is quarantined —
  a hung simulation will hang again, so timeouts are not retried);
* **bounded retry with exponential backoff** for *transient* failures
  (host-level errors such as :class:`OSError`; model errors —
  :class:`~repro.common.errors.ReproError` — are deterministic and fail
  straight to quarantine);
* **failure quarantine**: a failed task is recorded as a structured
  manifest entry and the campaign continues;
* **checkpoint/resume** through a :class:`RunManifest` that journals
  every task's outcome durably as it completes, so a killed campaign
  picks up where it left off (``repro-llc all --resume``) and completed
  tasks are never re-run.

Two ready-made campaigns: :func:`run_all_robust` (the full artifact
reproduction of :mod:`repro.experiments.runner`) and
:func:`sweep_seeds_robust` (per-seed tasks around
:func:`repro.sim.sweeps.run_seed`).
"""

from __future__ import annotations

import json
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.context import RetryPolicy, run_context
from repro.common.errors import (
    CampaignError,
    ConfigurationError,
    ReproError,
    TaskTimeoutError,
)
from repro.common.fileio import (
    Durability,
    check_io,
    cleanup_stale_tmp,
    count_io,
    fsync_directory,
    guarded_fsync,
    guarded_write,
    persist_text,
    read_bytes,
    read_text,
)
from repro.common.validation import require
from repro.sim.config import SystemConfig
from repro.sim.parallel import PoolResult, TaskPool, pool_enabled
from repro.sim.report import SimReport
from repro.sim.sweeps import SweepResult, TraceFactory, run_seed

#: A campaign task: a stable name plus a nullary callable producing the
#: task's result.
Task = Tuple[str, Callable[[], Any]]

#: Manifest schema version (bumped on incompatible layout changes).
MANIFEST_VERSION = 1


# ----------------------------------------------------------------------
# Run manifest (checkpoint/resume)
# ----------------------------------------------------------------------
def _read_snapshot(path: Path) -> Dict[str, Dict[str, Any]]:
    """The task entries of a manifest snapshot, version-checked."""
    try:
        data = json.loads(read_text(path, site="manifest"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CampaignError(
            f"run manifest {path} is unreadable: {exc}"
        ) from exc
    if not isinstance(data, dict) or "tasks" not in data:
        raise CampaignError(
            f"run manifest {path} is malformed (no tasks object)"
        )
    version = data.get("version")
    if isinstance(version, int) and version > MANIFEST_VERSION:
        raise CampaignError(
            f"run manifest {path} has version {version}, "
            f"written by a newer repro build (this build reads "
            f"version {MANIFEST_VERSION}); upgrade this installation "
            "to resume that campaign, or delete the manifest to "
            "start a fresh one"
        )
    if version != MANIFEST_VERSION:
        raise CampaignError(
            f"run manifest {path} has version {version!r}; "
            f"this runner writes version {MANIFEST_VERSION} "
            "(delete the manifest to start a fresh campaign)"
        )
    return dict(data["tasks"])


def _journal_record(line: bytes) -> Tuple[str, Dict[str, Any]]:
    record = json.loads(line)
    if not (
        isinstance(record, list)
        and len(record) == 2
        and isinstance(record[0], str)
        and isinstance(record[1], dict)
    ):
        raise ValueError("not a [name, entry] record")
    return record[0], record[1]


def _read_journal(journal: Path) -> Dict[str, Dict[str, Any]]:
    """Replay a manifest journal: the last record of each name wins."""
    try:
        data = read_bytes(journal, site="manifest")
    except OSError as exc:
        raise CampaignError(
            f"run manifest journal {journal} is unreadable: {exc}"
        ) from exc
    # Every complete record ends in a newline, so the last piece is
    # empty unless the final append was torn; a torn tail is skipped.
    lines = data.split(b"\n")
    torn_tail = lines.pop() != b""
    entries: Dict[str, Dict[str, Any]] = {}
    for number, line in enumerate(lines, start=1):
        try:
            name, entry = _journal_record(line)
        except ValueError as exc:
            if number == len(lines) and not torn_tail:
                break  # an unparseable final line is a torn append too
            raise CampaignError(
                f"run manifest journal {journal} line {number} is corrupt: {exc}"
            ) from exc
        entries[name] = entry
    return entries


class RunManifest:
    """The checkpoint of a campaign: one JSON entry per task.

    Entries record status (``"done"`` or ``"quarantined"``), attempt
    count, elapsed seconds, the error (for quarantined tasks) and a
    JSON-serialisable payload summarising the result (for ``run_all``
    artifacts: their reproduction checks).

    On disk a manifest is a *snapshot* plus an append-only *journal*:

    * :meth:`record` appends one compact JSON line ``[name, entry]`` to
      ``<path>.journal`` and fsyncs it, so each task is durable before
      the next one starts, at a cost proportional to that entry alone.
      If the append fails it falls back to :meth:`save`.
    * :meth:`save` compacts: it atomically rewrites the snapshot (temp
      file + rename, ``indent=2``, sorted names, so a completed manifest
      has the same bytes it always had), then unlinks the journal.
    * :meth:`load` reads the snapshot, then replays the journal with the
      last record of a name winning.  An unterminated or unparseable
      final line is a torn append whose task never got its record: it
      is ignored, so that task simply runs again.  A bad line anywhere
      else raises :class:`~repro.common.errors.CampaignError`.

    A kill at any point therefore leaves a loadable manifest.  With
    ``path=None`` the manifest lives in memory only: :meth:`record` and
    :meth:`save` persist nothing.
    """

    def __init__(self, path: Optional[Union[str, Path]]) -> None:
        self.path = Path(path) if path is not None else None
        self.tasks: Dict[str, Dict[str, Any]] = {}

    @property
    def journal(self) -> Optional[Path]:
        """The append-only journal beside the snapshot, if persisted."""
        if self.path is None:
            return None
        return self.path.with_name(self.path.name + ".journal")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        """Load snapshot plus journal; empty when neither exists.

        Read-only apart from clearing a stale ``.tmp``: a torn journal
        tail is skipped here and dropped by the next :meth:`save`.
        """
        manifest = cls(path)
        # A crash between writing the temp file and the atomic rename
        # can orphan a *.tmp next to the manifest; it holds no state the
        # manifest itself lacks, so clear it out.
        cleanup_stale_tmp(manifest.path)
        if manifest.path.exists():
            manifest.tasks = _read_snapshot(manifest.path)
        if manifest.journal.exists():
            manifest.tasks.update(_read_journal(manifest.journal))
        return manifest

    def is_done(self, name: str) -> bool:
        """Whether ``name`` completed successfully in a previous run."""
        entry = self.tasks.get(name)
        return entry is not None and entry.get("status") == "done"

    def entry(self, name: str) -> Optional[Dict[str, Any]]:
        """The recorded entry of one task, if any."""
        return self.tasks.get(name)

    def record(self, name: str, entry: Dict[str, Any]) -> None:
        """Record one task's outcome; durable on disk when this returns."""
        self.tasks[name] = entry
        if self.path is None:
            return
        line = json.dumps([name, entry], separators=(",", ":")) + "\n"
        try:
            self._append(line)
        except OSError:
            # A failed or torn append: compact instead, under the
            # snapshot's ESSENTIAL retry.  Compaction also drops
            # whatever partial line the failure left behind.
            count_io("io.fault.manifest")
            self.save()

    def _append(self, line: str) -> None:
        journal = self.journal
        created = not journal.exists()
        check_io("open", journal, "manifest")
        with open(journal, "a") as handle:
            guarded_write(handle, line, journal, "manifest")
            handle.flush()
            guarded_fsync(handle, journal, "manifest")
        if created:
            fsync_directory(journal.parent, site="manifest")

    def save(self) -> None:
        """Compact: atomically rewrite the snapshot, then drop the journal.

        Task entries are written in sorted-name order so the file layout
        does not depend on completion order — a parallel campaign and a
        serial one produce the same manifest structure.  A crash after
        the rename but before the unlink leaves a journal whose records
        the snapshot already holds; replaying it is idempotent.
        """
        if self.path is None:
            return
        payload = json.dumps(
            {
                "version": MANIFEST_VERSION,
                "tasks": {name: self.tasks[name] for name in sorted(self.tasks)},
            },
            indent=2,
        )
        # The manifest is the campaign's resume point: ESSENTIAL.
        persist_text(
            self.path,
            payload + "\n",
            site="manifest",
            durability=Durability.ESSENTIAL,
        )
        try:
            self.journal.unlink()
        except FileNotFoundError:
            return
        fsync_directory(self.path.parent, site="manifest")

    def results(self) -> Dict[str, Dict[str, Any]]:
        """Status and payload per task — the comparable campaign outcome.

        Timing and attempt counts are excluded: a resumed campaign must
        produce the *same* results as an uninterrupted one, and those
        fields legitimately differ between the two.
        """
        return {
            name: {
                "status": entry.get("status"),
                "payload": entry.get("payload"),
            }
            for name, entry in self.tasks.items()
        }


# ----------------------------------------------------------------------
# Task outcomes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task in this process (not a resumed skip)."""

    name: str
    #: ``"done"``, ``"quarantined"`` or ``"skipped"`` (already done in a
    #: previous run of a resumed campaign).
    status: str
    attempts: int
    elapsed_seconds: float
    #: For quarantined tasks: the exception's class name and message.
    error_type: Optional[str] = None
    error: Optional[str] = None
    #: The task's return value (``None`` for quarantined/skipped tasks);
    #: not persisted to the manifest.
    result: Any = None

    @property
    def ok(self) -> bool:
        """Whether the task is in a successful state."""
        return self.status in ("done", "skipped")


@dataclass
class CampaignResult:
    """Everything one :meth:`CampaignRunner.run` call produced."""

    outcomes: List[TaskOutcome] = field(default_factory=list)
    manifest: Optional[RunManifest] = None

    @property
    def quarantined(self) -> List[TaskOutcome]:
        """Tasks that failed permanently this run."""
        return [o for o in self.outcomes if o.status == "quarantined"]

    @property
    def skipped(self) -> List[TaskOutcome]:
        """Tasks skipped because a previous run already completed them."""
        return [o for o in self.outcomes if o.status == "skipped"]

    @property
    def all_ok(self) -> bool:
        """No quarantine this run, and no failed payload in the manifest."""
        if self.quarantined:
            return False
        if self.manifest is not None:
            for entry in self.manifest.tasks.values():
                if entry.get("status") != "done":
                    return False
                payload = entry.get("payload")
                if isinstance(payload, dict) and payload.get("passed") is False:
                    return False
        return True

    def summary(self) -> str:
        """One line per task of this run."""
        labels = {"done": "PASS", "skipped": "SKIP", "quarantined": "QUARANTINED"}
        lines = []
        for outcome in self.outcomes:
            label = labels.get(outcome.status, outcome.status.upper())
            suffix = f"  ({outcome.error})" if outcome.error else ""
            lines.append(f"{label:11} {outcome.name}{suffix}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def _default_payload(result: Any) -> Optional[Dict[str, Any]]:
    """Summarise a task result for the manifest (JSON-serialisable).

    ``run_all`` artifacts expose ``checks``/``passed``; anything else is
    summarised as its repr so the manifest stays loadable.  A result
    carrying a metrics registry gets its canonical rows persisted too,
    so a campaign resumed after a kill can rebuild the metrics of tasks
    it skips (:func:`campaign_metrics`) — without them, a kill would
    silently change the merged metrics export.
    """
    checks = getattr(result, "checks", None)
    passed = getattr(result, "passed", None)
    if isinstance(checks, dict) and isinstance(passed, bool):
        payload: Dict[str, Any] = {"passed": passed, "checks": dict(checks)}
    elif result is None:
        payload = {}
    else:
        try:
            json.dumps(result)
            payload = {"value": result}
        except (TypeError, ValueError):
            payload = {"repr": repr(result)[:200]}
    metrics = getattr(result, "metrics", None)
    if metrics is not None and callable(getattr(metrics, "rows", None)):
        payload["metrics_rows"] = metrics.rows()
    return payload or None


class CampaignRunner:
    """Runs named tasks with timeout, retry, quarantine and resume.

    Parameters
    ----------
    manifest_path:
        Where the JSON checkpoint lives.  ``None`` disables
        checkpointing (every run starts fresh, nothing is written).
    timeout:
        Per-task wall-clock budget in seconds; ``None`` disables it.
        Enforcement uses ``SIGALRM`` and therefore only engages on the
        main thread of a Unix process — elsewhere tasks run untimed.
    retry:
        The transient-failure :class:`RetryPolicy`.
    transient_types:
        Exception classes considered transient (retried with backoff).
        Defaults to :class:`OSError` — host-level flakiness.  Model
        errors (:class:`ReproError`) are deterministic and never retried.
    jobs:
        Worker processes for task execution.  ``1`` (the default) runs
        tasks serially in-process, exactly as before.  With ``jobs > 1``
        tasks are dispatched to a fork-backed pool
        (:class:`repro.sim.parallel.TaskPool`): the timeout is enforced
        by the *parent* (a hung worker is killed, not merely signalled),
        retry/quarantine semantics are unchanged, and each result is
        settled into the same manifest entry as a serial one as it
        completes; outcomes are reported in canonical task order so the
        campaign result matches a serial run.  Falls back to serial
        where the ``fork`` start method is unavailable.
    sleep / clock:
        Injection points for tests (backoff sleeping, elapsed timing;
        serial path only — the pool schedules its own backoff).
    hung_after / max_restarts / rss_limit_bytes / registry:
        Worker supervision for the parallel path, forwarded to
        :class:`repro.sim.parallel.TaskPool`: a liveness watchdog that
        tears down workers gone silent for ``hung_after`` seconds
        (restarting their task up to ``max_restarts`` times — resuming
        from the last simulation checkpoint when the auto-checkpoint
        policy is installed), a per-worker resident-memory ceiling, and
        an optional metrics registry for the supervision counters.
        Hung and resource-killed tasks that exhaust their restarts are
        quarantined with ``TaskHungError`` / ``ResourceExceededError``
        signatures in the manifest.  Ignored on the serial path.
    """

    def __init__(
        self,
        manifest_path: Optional[Union[str, Path]] = None,
        timeout: Optional[float] = None,
        retry: RetryPolicy = RetryPolicy(),
        transient_types: Tuple[type, ...] = (OSError,),
        payload_of: Callable[[Any], Optional[Dict[str, Any]]] = _default_payload,
        jobs: int = 1,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        hung_after: Optional[float] = None,
        max_restarts: int = 0,
        rss_limit_bytes: Optional[int] = None,
        registry=None,
    ) -> None:
        if timeout is not None:
            require(
                timeout > 0,
                f"timeout must be positive, got {timeout}",
                ConfigurationError,
            )
        require(jobs >= 1, f"jobs must be >= 1, got {jobs}", ConfigurationError)
        self.manifest_path = Path(manifest_path) if manifest_path else None
        self.timeout = timeout
        self.retry = retry
        self.transient_types = transient_types
        self.payload_of = payload_of
        self.jobs = jobs
        self.sleep = sleep
        self.clock = clock
        self.hung_after = hung_after
        self.max_restarts = max_restarts
        self.rss_limit_bytes = rss_limit_bytes
        self.registry = registry
        # One loud unenforceable-timeout warning per runner, not per run.
        self._timeout_warning_issued = False

    # -- one task, in this process -------------------------------------
    @staticmethod
    def _can_use_alarm() -> bool:
        return (
            hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )

    def _is_transient(self, exc: BaseException) -> bool:
        return isinstance(exc, self.transient_types) and not isinstance(
            exc, ReproError
        )

    def _call_with_alarm(self, name: str, thunk: Callable[[], Any]) -> Any:
        def _on_alarm(signum, frame):  # pragma: no cover - trivial
            raise TaskTimeoutError(
                f"task {name!r} exceeded its wall-clock budget of "
                f"{self.timeout}s and was aborted"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.timeout)
        try:
            return thunk()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _run_inline(
        self, index: int, name: str, thunk: Callable[[], Any], alarm: bool
    ) -> PoolResult:
        """Run one task here, under the SIGALRM budget when ``alarm``.

        Transient failures are retried after ``sleep(retry.delay(n))``.
        A timeout is a :class:`ReproError`, so it never is — a hung task
        will hang again.
        """
        started = self.clock()
        attempt = 0
        while True:
            attempt += 1
            value, error = None, None
            try:
                value = self._call_with_alarm(name, thunk) if alarm else thunk()
            except Exception as exc:
                if self._is_transient(exc) and attempt < self.retry.max_attempts:
                    self.sleep(self.retry.delay(attempt))
                    continue
                error = exc
            return PoolResult(
                index=index,
                name=name,
                status="done" if error is None else "error",
                value=value,
                error=error,
                attempts=attempt,
                elapsed_seconds=self.clock() - started,
            )

    # -- main entry point ----------------------------------------------
    def run(
        self,
        tasks: Sequence[Task],
        resume: bool = True,
        progress: Optional[Callable[[str], None]] = None,
    ) -> CampaignResult:
        """Run ``tasks`` in order; quarantine failures, checkpoint each.

        With ``resume=True`` (the default) tasks already marked done in
        the manifest are skipped, so re-invoking an interrupted campaign
        completes only the remaining work.  The rest run inline or on
        the pool, and every finished task goes through :meth:`_settle`,
        which journals its entry.  The manifest is compacted when the
        run starts over a leftover journal, when it finishes, and when a
        ``KeyboardInterrupt`` propagates from any point of the run — the
        canonical "killed mid-campaign" path.
        """
        names = [name for name, _ in tasks]
        require(
            len(names) == len(set(names)),
            f"campaign task names must be unique, got {names}",
            ConfigurationError,
        )
        if self.manifest_path is not None and resume:
            manifest = RunManifest.load(self.manifest_path)
        else:
            manifest = RunManifest(self.manifest_path)
        if self.manifest_path is not None and (
            manifest.journal.exists()
            or (not resume and self.manifest_path.exists())
        ):
            # Compact before the first append: this drops a torn journal
            # tail, and keeps a fresh campaign from journalling on top of
            # an older campaign's snapshot.
            manifest.save()
        outcomes: Dict[str, TaskOutcome] = {}
        runnable: List[Task] = []
        for name, thunk in tasks:
            if resume and manifest.is_done(name):
                outcomes[name] = TaskOutcome(
                    name=name, status="skipped", attempts=0, elapsed_seconds=0.0
                )
                if progress is not None:
                    progress(f"{name}: already done (resumed)")
            else:
                runnable.append((name, thunk))

        use_pool = pool_enabled(self.jobs)
        # The pool enforces its timeout from the parent; inline, the
        # budget needs SIGALRM on the main thread.
        untimed = self.timeout is not None and not (
            use_pool or self._can_use_alarm()
        )
        if untimed and runnable and not self._timeout_warning_issued:
            self._timeout_warning_issued = True
            warnings.warn(
                f"campaign timeout of {self.timeout}s cannot be "
                "enforced here (SIGALRM unavailable: not the main "
                "thread of a Unix process); tasks run untimed and "
                "their manifest entries record timeout_enforced: "
                "false",
                RuntimeWarning,
                stacklevel=2,
            )

        def settle(pool_result: PoolResult) -> None:
            outcomes[pool_result.name] = self._settle(
                pool_result, manifest, progress, untimed
            )

        try:
            if use_pool:
                TaskPool(
                    jobs=self.jobs,
                    timeout=self.timeout,
                    retry=self.retry,
                    is_transient=self._is_transient,
                    hung_after=self.hung_after,
                    max_restarts=self.max_restarts,
                    rss_limit_bytes=self.rss_limit_bytes,
                    registry=self.registry,
                ).run(runnable, on_result=settle)
            else:
                alarm = self.timeout is not None and not untimed
                for index, (name, thunk) in enumerate(runnable):
                    settle(self._run_inline(index, name, thunk, alarm))
        except KeyboardInterrupt:
            # Killed mid-campaign: everything finished so far is already
            # journalled; compact and let the interrupt unwind — the
            # next run resumes from here.
            manifest.save()
            raise
        manifest.save()
        return CampaignResult(
            outcomes=[outcomes[name] for name in names], manifest=manifest
        )

    def _settle(
        self,
        pool_result: PoolResult,
        manifest: RunManifest,
        progress: Optional[Callable[[str], None]],
        untimed: bool,
    ) -> TaskOutcome:
        """Journal one finished task's manifest entry; return its outcome."""
        ok, error = pool_result.ok, pool_result.error
        entry: Dict[str, Any] = {
            "status": "done" if ok else "quarantined",
            "attempts": pool_result.attempts,
            "elapsed_seconds": round(pool_result.elapsed_seconds, 3),
            "error": None if ok else str(error),
            "error_type": None if ok else type(error).__name__,
            "payload": self.payload_of(pool_result.value) if ok else None,
        }
        if untimed:
            entry["timeout_enforced"] = False
        manifest.record(pool_result.name, entry)
        if progress is not None:
            progress(f"{pool_result.name}: {'PASS' if ok else 'QUARANTINED'}")
        return TaskOutcome(
            name=pool_result.name,
            status=entry["status"],
            attempts=pool_result.attempts,
            elapsed_seconds=pool_result.elapsed_seconds,
            error_type=entry["error_type"],
            error=entry["error"],
            result=pool_result.value,
        )


# ----------------------------------------------------------------------
# Ready-made campaigns
# ----------------------------------------------------------------------
def write_campaign_summaries(
    target: Path, result: CampaignResult
) -> None:
    """Write ``summary.json`` and ``SUMMARY.txt`` from one campaign.

    Entries are rolled up in canonical order — campaign task order
    first, then any manifest entries from other runs (sorted) — and
    **deduplicated by task id**: a task that appears twice in the
    outcome list (e.g. quarantined in one attempt and retried after a
    resume) is still summarised exactly once, from its final manifest
    entry.  Without the dedup a resumed campaign's ``SUMMARY.txt``
    would re-count the retried task, so the rollup is pinned by
    ``tests/test_campaign_summary_resume.py``.
    """
    assert result.manifest is not None
    campaign_order = [o.name for o in result.outcomes]
    extras = sorted(set(result.manifest.tasks) - set(campaign_order))
    ordered = [
        name
        for name in dict.fromkeys(campaign_order + extras)
        if name in result.manifest.tasks
    ]
    summary = {}
    for name in ordered:
        entry = result.manifest.tasks[name]
        summary[name] = (
            entry["payload"]["checks"]
            if entry.get("status") == "done"
            and isinstance(entry.get("payload"), dict)
            and "checks" in entry["payload"]
            else {"quarantined": entry.get("error")}
        )
    persist_text(
        target / "summary.json",
        json.dumps(summary, indent=2) + "\n",
        site="campaign-summary",
        durability=Durability.ESSENTIAL,
    )
    lines = []
    for name in ordered:
        entry = result.manifest.tasks[name]
        if entry.get("status") != "done":
            lines.append(f"QUARANTINED  {name}")
            continue
        payload = entry.get("payload") or {}
        lines.append(f"{'PASS' if payload.get('passed') else 'FAIL'}  {name}")
    persist_text(
        target / "SUMMARY.txt",
        "\n".join(lines) + "\n",
        site="campaign-summary",
        durability=Durability.ESSENTIAL,
    )


def run_all_robust(
    out_dir: Optional[Union[str, Path]] = None,
    num_requests: int = 300,
    tightness_repeats: int = 25,
    manifest_path: Optional[Union[str, Path]] = None,
    timeout: Optional[float] = None,
    retry: RetryPolicy = RetryPolicy(),
    resume: bool = True,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    with_metrics: bool = False,
    engine: Optional[str] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_every_secs: Optional[float] = None,
    hung_after: Optional[float] = None,
    max_restarts: int = 0,
    rss_limit_bytes: Optional[int] = None,
    registry=None,
) -> CampaignResult:
    """Crash-tolerant ``run_all``: every artifact as a quarantinable task.

    Artifact tables and the summary files land in ``out_dir`` exactly as
    with :func:`repro.experiments.runner.run_all`; additionally a
    ``manifest.json`` (or ``manifest_path``) checkpoints progress after
    every artifact so an interrupted ``repro-llc all`` resumes instead
    of restarting.  The summary files are rebuilt from the manifest, so
    a resumed campaign reports previously-completed artifacts too.

    ``engine`` is forwarded to the figure artifacts (see
    :func:`repro.experiments.runner.artifact_steps`).

    ``jobs > 1`` runs the independent artifacts in worker processes
    (the artifacts themselves stay serial inside each worker, so the
    process tree never over-commits); results, summaries and the
    manifest are identical to a serial campaign's.

    With ``with_metrics=True`` the figure artifacts carry their
    ``artifact``-labelled metrics registries on the returned outcomes
    (``outcome.result.metrics``) — merge them with
    :func:`campaign_metrics`.  Each completed artifact's metric rows
    are also persisted in its manifest entry, so artifacts skipped on
    resume still contribute: the merged metrics of a killed-and-resumed
    campaign are byte-identical to an uninterrupted run's.

    ``cache_dir`` opens a :class:`~repro.sim.cache.SimResultCache` and
    ``checkpoint_dir`` (with ``checkpoint_every`` slots and/or
    ``checkpoint_every_secs``) an
    :class:`~repro.robustness.checkpoint.AutoCheckpointPolicy`; the
    campaign runs in one ``run_context(...)`` scope carrying them (see
    :mod:`repro.common.context`), and the caller's context is restored
    afterwards.  Without them the campaign runs in the caller's context.
    Every plain ``simulate()`` call inside every artifact — in this
    process and in fork-pool workers, which inherit the context — is
    first looked up in the cache and, on a miss, stored; with a policy it
    periodically checkpoints and resumes after a kill.  Cached and
    resumed campaigns produce byte-identical artifacts, summaries and
    metrics exports.  ``hung_after`` / ``max_restarts`` /
    ``rss_limit_bytes`` / ``registry`` supervise the worker pool (see
    :class:`CampaignRunner`).
    """
    from repro.experiments.runner import artifact_steps

    target = Path(out_dir) if out_dir is not None else None
    if target is not None:
        target.mkdir(parents=True, exist_ok=True)
    if manifest_path is None and target is not None:
        manifest_path = target / "manifest.json"

    def wrap(step: Callable[[], Any]) -> Callable[[], Any]:
        def task():
            artifact = step()
            if target is not None:
                persist_text(
                    target / f"{artifact.name}.txt",
                    artifact.table + "\n",
                    site="artifact-table",
                    durability=Durability.ESSENTIAL,
                )
            return artifact

        return task

    tasks: List[Task] = [
        (name, wrap(step))
        for name, step in artifact_steps(
            num_requests,
            tightness_repeats,
            with_metrics=with_metrics,
            engine=engine,
        )
    ]
    runner = CampaignRunner(
        manifest_path=manifest_path,
        timeout=timeout,
        retry=retry,
        jobs=jobs,
        hung_after=hung_after,
        max_restarts=max_restarts,
        rss_limit_bytes=rss_limit_bytes,
        registry=registry,
    )
    changes: Dict[str, Any] = {}
    if cache_dir is not None:
        from repro.sim.cache import SimResultCache

        changes["result_cache"] = SimResultCache(cache_dir, registry=registry)
    if checkpoint_dir is not None:
        from repro.robustness.checkpoint import AutoCheckpointPolicy

        changes["checkpoints"] = AutoCheckpointPolicy.for_directory(
            checkpoint_dir, checkpoint_every, checkpoint_every_secs
        )
    with run_context(**changes):
        result = runner.run(tasks, resume=resume, progress=progress)

    if target is not None and result.manifest is not None:
        # Canonical order with per-task dedup: the manifest's in-memory
        # insertion order depends on which tasks were resumed from disk,
        # so iterating it directly would make the summary bytes depend
        # on where a previous run was killed.
        write_campaign_summaries(target, result)
    return result


def campaign_metrics(result: CampaignResult) -> "Any":
    """Merge the metrics of every completed artifact in ``result``.

    Outcomes are walked in campaign (canonical task) order; because the
    per-artifact registries are ``artifact``-labelled and therefore
    disjoint, any order yields the same rows.  Tasks that ran this
    invocation contribute their in-process registries; tasks *skipped on
    resume* contribute the rows their original run persisted in the
    manifest (see :func:`_default_payload`), so the merged export of an
    interrupted-and-resumed campaign is byte-identical to an
    uninterrupted one's.  Returns an empty registry when nothing
    carries metrics.
    """
    from repro.obs.metrics import merge_all, registry_from_rows

    registries = []
    for outcome in result.outcomes:
        if outcome.status == "done":
            metrics = getattr(outcome.result, "metrics", None)
            if metrics is not None:
                registries.append(metrics)
        elif outcome.status == "skipped" and result.manifest is not None:
            entry = result.manifest.entry(outcome.name) or {}
            payload = entry.get("payload") or {}
            rows = payload.get("metrics_rows")
            if rows:
                registries.append(registry_from_rows(rows))
    return merge_all(registries)


@dataclass
class RobustSweepResult:
    """A seed sweep that tolerates per-seed failures.

    ``result`` aggregates the seeds that completed (``None`` when every
    seed failed); ``quarantined_seeds`` names the rest, with the error
    recorded per seed in ``campaign``'s manifest/outcomes.
    """

    result: Optional[SweepResult]
    completed_seeds: Tuple[int, ...]
    quarantined_seeds: Tuple[int, ...]
    campaign: CampaignResult

    @property
    def complete(self) -> bool:
        """Whether every seed of the sweep completed."""
        return not self.quarantined_seeds


def sweep_seeds_robust(
    config: SystemConfig,
    trace_factory: TraceFactory,
    seeds: Sequence[int],
    check: Optional[Callable[[SimReport], None]] = None,
    runner: Optional[CampaignRunner] = None,
    jobs: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> RobustSweepResult:
    """Crash-tolerant :func:`repro.sim.sweeps.sweep_seeds`.

    Each seed runs as one campaign task (timeout/retry/quarantine apply
    per seed); failed seeds are quarantined and the sweep aggregates
    over the survivors instead of dying.  ``jobs > 1`` fans the seeds
    out across worker processes (ignored when an explicit ``runner`` is
    supplied — configure ``CampaignRunner(jobs=...)`` instead); results
    aggregate in canonical seed order either way.
    """
    require(bool(seeds), "sweep needs at least one seed", ConfigurationError)
    runner = runner or CampaignRunner(jobs=jobs)
    tasks: List[Task] = [
        (
            f"seed-{seed}",
            lambda seed=seed: run_seed(config, trace_factory, seed, check),
        )
        for seed in seeds
    ]
    campaign = runner.run(tasks, progress=progress)
    completed: List[int] = []
    reports: List[SimReport] = []
    quarantined: List[int] = []
    for seed, outcome in zip(seeds, campaign.outcomes):
        if outcome.status == "done" and outcome.result is not None:
            completed.append(seed)
            reports.append(outcome.result)
        else:
            quarantined.append(seed)
    return RobustSweepResult(
        result=SweepResult.from_reports(completed, reports) if completed else None,
        completed_seeds=tuple(completed),
        quarantined_seeds=tuple(quarantined),
        campaign=campaign,
    )
