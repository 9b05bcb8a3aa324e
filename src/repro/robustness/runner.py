"""Crash-tolerant campaign runner: timeouts, retries, quarantine, resume.

A long reproduction campaign (``repro-llc all``, a many-seed sweep) must
not be torpedoed by one bad configuration or one hung simulation.  This
module wraps any sequence of named tasks with:

* a **per-task wall-clock timeout**, enforced by killing the task's
  worker process (:class:`~repro.sim.parallel.TaskPool`; a hung task
  is quarantined with :class:`~repro.common.errors.TaskTimeoutError` —
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
  tasks are never re-run.  Its snapshot and journal lines are sealed
  documents (:func:`repro.sim.codec.seal`), so a corrupt manifest is
  refused with :class:`~repro.common.errors.CampaignError`, never
  resumed from.

The ready-made campaign is :func:`run_all_robust`, the full artifact
reproduction of :mod:`repro.experiments.runner`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
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
    CheckpointError,
    ConfigurationError,
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
)
from repro.common.validation import require
from repro.sim.codec import canonical_json, seal, unseal
from repro.sim.parallel import (
    PoolResult,
    TaskPool,
    is_transient,
    parallel_available,
)

#: A campaign task: a stable name plus a nullary callable producing the
#: task's result.
Task = Tuple[str, Callable[[], Any]]

#: The kind and version stamps of a sealed manifest document.
MANIFEST_KIND = "repro-run-manifest"
MANIFEST_VERSION = 2


# ----------------------------------------------------------------------
# Run manifest (checkpoint/resume)
# ----------------------------------------------------------------------
def _seal_tasks(tasks: Dict[str, Dict[str, Any]]) -> str:
    """The manifest document holding ``tasks``: a snapshot or a journal line."""
    return seal({"kind": MANIFEST_KIND, "version": MANIFEST_VERSION, "tasks": tasks})


def _unseal_tasks(
    data: Union[str, bytes], path: Optional[Path], problem: str
) -> Dict[str, Dict[str, Any]]:
    """The tasks of one :func:`_seal_tasks` document, verified by
    :func:`~repro.sim.codec.unseal`; ``problem`` heads its errors."""
    try:
        return unseal(data, path, MANIFEST_KIND, MANIFEST_VERSION)["tasks"]
    except CheckpointError as exc:
        raise CampaignError(
            f"run manifest {problem}: {exc}; delete the manifest (or rerun "
            "with --no-resume) to start a fresh campaign"
        ) from exc


def _read(path: Path) -> bytes:
    try:
        return read_bytes(path, site="manifest")
    except OSError as exc:
        raise CampaignError(f"run manifest {path} is unreadable: {exc}") from exc


def _read_journal(journal: Path) -> Dict[str, Dict[str, Any]]:
    """Replay a manifest journal: the last record of each name wins."""
    # Every complete record ends in a newline, so the last piece is
    # empty unless the final append was torn; a torn tail is skipped.
    lines = _read(journal).split(b"\n")
    torn_tail = lines.pop() != b""
    entries: Dict[str, Dict[str, Any]] = {}
    for number, line in enumerate(lines, start=1):
        problem = f"journal {journal} line {number} is corrupt"
        try:
            entries.update(_unseal_tasks(line, journal, problem))
        except CampaignError:
            if number == len(lines) and not torn_tail:
                break  # an undecodable final line is a torn append too
            raise
    return entries


class RunManifest:
    """The checkpoint of a campaign: one JSON entry per task.

    Entries record status (``"done"`` or ``"quarantined"``), attempt
    count, elapsed seconds, the error (for quarantined tasks) and a
    JSON-serialisable payload summarising the result (for ``run_all``
    artifacts: their reproduction checks).

    On disk a manifest is a *snapshot* plus an append-only *journal*,
    both made of one document type: a :func:`~repro.sim.codec.seal`
    line ``{"kind": "repro-run-manifest", "version": 2, "tasks": {...}}``.

    * :meth:`record` appends the document holding that one task to
      ``<path>.journal`` and fsyncs it, so each task is durable before
      the next one starts, at a cost proportional to that entry alone.
      If the append fails it falls back to :meth:`save`.
    * :meth:`save` compacts: it atomically rewrites the snapshot, the
      document holding every task, then unlinks the journal.
    * :meth:`load` unseals the snapshot, then replays the journal with
      the last record of a name winning.  An unterminated or
      undecodable final line is a torn append whose task never got its
      record: it is ignored, so that task simply runs again.  Any other
      document that fails to unseal (corrupt bytes, a flipped bit,
      another kind or version) raises
      :class:`~repro.common.errors.CampaignError`.

    :meth:`record` holds each entry as :meth:`load` will decode it, so
    fresh and resumed campaigns hold identical entries.  A kill at any
    point leaves a loadable manifest.  With ``path=None`` the manifest
    lives in memory only: :meth:`record` and :meth:`save` persist
    nothing.
    """

    def __init__(self, path: Optional[Union[str, Path]]) -> None:
        self.path = Path(path) if path is not None else None
        self.tasks: Dict[str, Dict[str, Any]] = {}
        # Whether the journal is known to exist: set by the first
        # append, cleared when save() unlinks the journal.  Until then
        # _append stats it to decide whether to fsync the directory.
        self._journal_exists = False

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
        path = manifest.path
        # A crash between writing the temp file and the atomic rename
        # can orphan a *.tmp next to the manifest; it holds no state the
        # manifest itself lacks, so clear it out.
        cleanup_stale_tmp(path)
        if path.exists():
            manifest.tasks = _unseal_tasks(_read(path), path, f"{path} is unreadable")
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
        line = _seal_tasks({name: entry})
        # Hold the entry as load() will decode it: the sealed line is
        # canonical JSON this process just wrote, so parsing it suffices
        # and the digest load() verifies cannot differ.
        self.tasks[name] = json.loads(line)["payload"]["tasks"][name]
        if self.path is None:
            return
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
        created = not self._journal_exists and not journal.exists()
        check_io("open", journal, "manifest")
        with open(journal, "a") as handle:
            guarded_write(handle, line, journal, "manifest")
            handle.flush()
            guarded_fsync(handle, journal, "manifest")
        if created:
            fsync_directory(journal.parent, site="manifest")
        self._journal_exists = True

    def save(self) -> None:
        """Compact: atomically rewrite the snapshot, then drop the journal.

        The sealed document sorts task names, so the file layout does
        not depend on completion order — a parallel campaign and a
        serial one produce the same manifest structure.  A crash after
        the rename but before the unlink leaves a journal whose records
        the snapshot already holds; replaying it is idempotent.
        """
        if self.path is None:
            return
        # The manifest is the campaign's resume point: ESSENTIAL.
        persist_text(
            self.path,
            _seal_tasks(self.tasks),
            site="manifest",
            durability=Durability.ESSENTIAL,
        )
        self._journal_exists = False
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

    outcomes: List[TaskOutcome]
    manifest: RunManifest

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
        return all(
            entry.get("status") == "done"
            and not _checks_failed(entry.get("payload"))
            for entry in self.manifest.tasks.values()
        )

    def summary(self) -> str:
        """One line per task of this run."""
        labels = {"done": "PASS", "skipped": "SKIP", "quarantined": "QUARANTINED"}
        tasks = self.manifest.tasks
        lines = []
        for outcome in self.outcomes:
            label = labels.get(outcome.status, outcome.status.upper())
            if outcome.status == "done" and _checks_failed(
                tasks.get(outcome.name, {}).get("payload")
            ):
                label = "FAIL"
            suffix = f"  ({outcome.error})" if outcome.error else ""
            lines.append(f"{label:11} {outcome.name}{suffix}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
def _checks_failed(payload: Any) -> bool:
    """Whether a done task's payload reports failed checks (FAIL)."""
    return isinstance(payload, dict) and payload.get("passed") is False


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
        # Ordered pairs: the sealed manifest sorts object keys, and the
        # summaries list checks in the order the artifact made them.
        payload: Dict[str, Any] = {"passed": passed, "checks": list(checks.items())}
    elif result is None:
        payload = {}
    else:
        try:
            canonical_json(result)
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
        The pool's parent kills a task's worker when it expires, so the
        budget holds on any thread, even against a busy loop.
    retry:
        The transient-failure :class:`RetryPolicy`.
    jobs:
        Worker processes for task execution (default 1).  Tasks go to
        a fork-backed pool (:class:`repro.sim.parallel.TaskPool`) when
        ``jobs > 1`` or when a ``timeout`` is set; only an untimed
        serial campaign runs its tasks in this process.  Either way
        retry/quarantine semantics are the same, each result is settled
        into the same manifest entry as it completes, and outcomes are
        reported in canonical task order.  An untimed campaign falls
        back to serial where the ``fork`` start method is unavailable;
        a timed one raises
        :class:`~repro.common.errors.ConfigurationError` there.
    sleep:
        Injection point for tests (backoff sleeping; inline path only —
        the pool schedules its own backoff).
    """

    def __init__(
        self,
        manifest_path: Optional[Union[str, Path]] = None,
        timeout: Optional[float] = None,
        retry: RetryPolicy = RetryPolicy(),
        payload_of: Callable[[Any], Optional[Dict[str, Any]]] = _default_payload,
        jobs: int = 1,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if timeout is not None:
            require(
                timeout > 0,
                f"timeout must be positive, got {timeout}",
                ConfigurationError,
            )
        require(jobs >= 1, f"jobs must be >= 1, got {jobs}", ConfigurationError)
        # Only the pool's parent can bound a task: it kills the worker.
        require(
            timeout is None or parallel_available(),
            "a campaign timeout needs the 'fork' start method; run "
            "without one on this platform",
            ConfigurationError,
        )
        self.manifest_path = Path(manifest_path) if manifest_path else None
        self.timeout = timeout
        self.retry = retry
        self.payload_of = payload_of
        self.jobs = jobs
        self.sleep = sleep

    # -- one task, in this process -------------------------------------
    def _run_inline(
        self, index: int, name: str, thunk: Callable[[], Any]
    ) -> PoolResult:
        """Run one untimed task here; retry what :func:`is_transient`
        accepts after ``sleep(retry.delay(n))``."""
        started = time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            value, error = None, None
            try:
                value = thunk()
            except Exception as exc:
                if is_transient(exc) and attempt < self.retry.max_attempts:
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
                elapsed_seconds=time.monotonic() - started,
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

        def settle(pool_result: PoolResult) -> None:
            outcomes[pool_result.name] = self._settle(
                pool_result, manifest, progress
            )

        try:
            if self.timeout is not None or (
                self.jobs > 1 and parallel_available()
            ):
                TaskPool(
                    jobs=self.jobs, timeout=self.timeout, retry=self.retry
                ).run(runnable, on_result=settle)
            else:
                for index, (name, thunk) in enumerate(runnable):
                    settle(self._run_inline(index, name, thunk))
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
        manifest.record(pool_result.name, entry)
        if progress is not None:
            if not ok:
                label = "QUARANTINED"
            elif _checks_failed(entry["payload"]):
                label = "FAIL"
            else:
                label = "PASS"
            progress(f"{pool_result.name}: {label}")
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
            dict(entry["payload"]["checks"])
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
) -> CampaignResult:
    """Crash-tolerant ``run_all``: every artifact as a quarantinable task.

    Each artifact's table lands in ``out_dir`` as ``<name>.txt`` and the
    checks in ``summary.json`` and ``SUMMARY.txt``
    (:func:`write_campaign_summaries`); additionally a
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
    metrics exports.
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
    )
    changes: Dict[str, Any] = {}
    if cache_dir is not None:
        from repro.sim.cache import SimResultCache

        changes["result_cache"] = SimResultCache(cache_dir)
    if checkpoint_dir is not None:
        from repro.robustness.checkpoint import AutoCheckpointPolicy

        changes["checkpoints"] = AutoCheckpointPolicy.for_directory(
            checkpoint_dir, checkpoint_every, checkpoint_every_secs
        )
    with run_context(**changes):
        result = runner.run(tasks, resume=resume, progress=progress)

    if target is not None:
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
        elif outcome.status == "skipped":
            entry = result.manifest.entry(outcome.name) or {}
            payload = entry.get("payload") or {}
            rows = payload.get("metrics_rows")
            if rows:
                registries.append(registry_from_rows(rows))
    return merge_all(registries)
