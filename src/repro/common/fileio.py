"""Crash-consistent file writes behind one instrumented I/O seam.

Every durable artifact this library writes — campaign manifests,
metrics exports, simulation checkpoints, result-cache entries, trace
sinks — must survive a kill at any instant with either the *previous*
complete generation or the *new* complete generation on disk, never a
truncated hybrid.  The recipe is the classic one (write a sibling temp
file, ``fsync`` it, atomically ``os.replace`` it over the target, then
``fsync`` the directory so the rename itself is durable), and it lives
here so every persistence layer shares one audited implementation
instead of several drifting copies.

Beyond crash consistency this module is the package's single **I/O
seam**: each primitive operation (open / write / fsync / replace /
fsync-dir / read) is labelled with the *site* that issued it
("manifest", "result-cache", "checkpoint", "metrics-export", ...) and
checked against the run context's fault hook
(:class:`~repro.common.context.RunContext` ``io_hook``) before touching
the kernel.  :mod:`repro.robustness.iofault` provides seeded,
deterministic fault plans for that hook; production runs pay one
``None`` check per operation.

Failures are governed by a two-class **durability policy**
(:class:`Durability`, applied by :func:`persist_text`):

``ESSENTIAL``
    Artifacts the user asked for (manifests, figure/report outputs,
    ``--metrics`` files, ``run_resumable`` checkpoints, trace sinks).
    Bounded retry with exponential backoff; if the write still fails,
    a loud :class:`~repro.common.errors.PersistenceError` naming the
    path, site and errno propagates and the process exits nonzero.

``BEST_EFFORT``
    Acceleration/convenience state the run can recompute (result-cache
    entries, auto-checkpoints).  A per-site circuit breaker disables
    the store after :data:`DEGRADE_AFTER` consecutive failures with a
    one-line stderr notice; every lost write is counted in the
    ``io.degraded.*`` / ``io.skipped.*`` metrics and the run continues
    with byte-identical results.

A crash *between* writing the temp file and the rename can orphan a
``<name>.tmp`` sibling; it never holds state the target lacks, so
readers call :func:`cleanup_stale_tmp` on startup.  A *failure* inside
:func:`atomic_write_text` unlinks its own temp file best-effort, so an
ENOSPC mid-write does not leak partial data either.
"""

from __future__ import annotations

import enum
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from repro.common.context import RetryPolicy, current_run_context
from repro.common.errors import PersistenceError

#: Operation labels the seam distinguishes.  Fault specs may filter on
#: them ("write", "fsync", "replace", ...); "fsync-dir" is the
#: directory flush after a rename.
IO_OPS = ("open", "write", "fsync", "replace", "fsync-dir", "read")

#: Consecutive best-effort failures after which a site's circuit
#: breaker opens and the store is disabled for the rest of the run.
DEGRADE_AFTER = 3


@dataclass(frozen=True)
class IoOperation:
    """One primitive I/O operation about to be issued through the seam."""

    op: str
    path: Path
    site: str

    def describe(self) -> str:
        return f"{self.op}[{self.site}] {self.path}"


@dataclass(frozen=True)
class IoFaultAction:
    """What an installed fault hook wants done to one operation.

    ``error`` alone: raise it instead of performing the operation.
    ``short_write_fraction`` (write ops): write only that prefix of the
    text, flush it, then raise ``error`` — models a partial write that
    reached the disk before the failure.  ``corrupt`` (read ops):
    perform the read, then pass the bytes through the callable —
    models silent media corruption that integrity checks must catch.
    """

    error: Optional[OSError] = None
    short_write_fraction: Optional[float] = None
    corrupt: Optional[Callable[[bytes], bytes]] = None


# The fault hook a run context may carry: consulted before every seam
# operation.  Returns None (proceed normally) or an IoFaultAction.
IoFaultHook = Callable[[IoOperation], Optional[IoFaultAction]]


def io_metrics():
    """The current run context's registry of ``io.*`` counters."""
    return current_run_context().io.metrics


def count_io(name: str) -> None:
    """Increment the ``io.*`` counter ``name`` by one."""
    io_metrics().counter(name).inc()


# --------------------------------------------------------------------------
# Seam primitives
# --------------------------------------------------------------------------


def check_io(op: str, path: Union[str, Path], site: str) -> Optional[IoFaultAction]:
    """Consult the fault hook for one operation; raise plain faults.

    Returns the action only when it needs cooperation from the caller
    (short write, read corruption); a plain injected error is raised
    here so most call sites stay one-liners.
    """
    hook = current_run_context().io_hook
    if hook is None:
        return None
    action = hook(IoOperation(op=op, path=Path(path), site=site))
    if action is None:
        return None
    if (
        action.error is not None
        and action.short_write_fraction is None
        and action.corrupt is None
    ):
        raise action.error
    return action


def guarded_write(handle, text: str, path: Union[str, Path], site: str) -> None:
    """Write ``text`` to ``handle`` through the seam (short-write aware)."""
    action = check_io("write", path, site)
    if action is None:
        handle.write(text)
        return
    if action.short_write_fraction is not None:
        prefix = text[: int(len(text) * action.short_write_fraction)]
        handle.write(prefix)
        handle.flush()
    if action.error is not None:
        raise action.error


def guarded_fsync(handle, path: Union[str, Path], site: str) -> None:
    """``os.fsync(handle)`` through the seam."""
    check_io("fsync", path, site)
    os.fsync(handle.fileno())


def guarded_replace(tmp: Path, path: Path, site: str) -> None:
    """``os.replace(tmp, path)`` through the seam."""
    check_io("replace", path, site)
    os.replace(tmp, path)


def read_bytes(path: Union[str, Path], site: str = "unlabelled") -> bytes:
    """Read a file's bytes through the seam (corruption-injectable)."""
    path = Path(path)
    action = check_io("read", path, site)
    data = path.read_bytes()
    if action is not None and action.corrupt is not None:
        data = action.corrupt(data)
    return data


def read_text(path: Union[str, Path], site: str = "unlabelled") -> str:
    """Read a file's text through the seam (corruption-injectable)."""
    return read_bytes(path, site=site).decode("utf-8")


# --------------------------------------------------------------------------
# Crash-consistent writes
# --------------------------------------------------------------------------


def tmp_sibling(path: Union[str, Path]) -> Path:
    """The temp-file sibling :func:`atomic_write_text` stages through."""
    path = Path(path)
    return path.with_name(path.name + ".tmp")


def cleanup_stale_tmp(path: Union[str, Path]) -> None:
    """Remove an orphaned ``.tmp`` sibling left by a crash mid-write."""
    tmp_sibling(path).unlink(missing_ok=True)


def sweep_stale_tmp(directory: Union[str, Path]) -> int:
    """Remove every orphaned ``*.tmp`` in ``directory``; return the count.

    The per-file :func:`cleanup_stale_tmp` needs to know the target
    name; directory-granular stores (the result cache) instead sweep
    all orphans at startup, before any entry of the directory is read.
    """
    directory = Path(directory)
    removed = 0
    if not directory.is_dir():
        return removed
    for orphan in sorted(directory.glob("*.tmp")):
        orphan.unlink(missing_ok=True)
        removed += 1
    return removed


def fsync_directory(directory: Union[str, Path], site: str = "unlabelled") -> None:
    """Flush a directory so a completed rename survives power loss.

    Failure here is tolerated (some filesystems refuse directory
    fsync) but no longer invisible: every swallow is counted in
    ``io.swallowed.fsync-dir`` so a store that silently lost its
    rename durability shows up in the metrics export.
    """
    try:
        check_io("fsync-dir", directory, site)
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        count_io("io.swallowed.fsync-dir")


def atomic_write_text(
    path: Union[str, Path],
    text: str,
    mkdir: bool = True,
    site: str = "unlabelled",
) -> Path:
    """Write ``text`` to ``path`` crash-consistently; return the path.

    The parent directory is created if missing (unless ``mkdir`` is
    False — callers that treat a missing parent as a user error pass
    that and map the resulting :class:`OSError`).  A reader never
    observes a partial file: until the final ``os.replace`` the target
    holds its previous content (or does not exist), and afterwards it
    holds exactly ``text``.

    If any step fails (ENOSPC mid-write, fsync error, rename error)
    the staged ``.tmp`` sibling is unlinked best-effort before the
    exception propagates, so a failed write leaks no partial data.
    """
    path = Path(path)
    if mkdir:
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = tmp_sibling(path)
    try:
        check_io("open", tmp, site)
        with open(tmp, "w") as handle:
            guarded_write(handle, text, tmp, site)
            handle.flush()
            guarded_fsync(handle, tmp, site)
        guarded_replace(tmp, path, site)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            count_io("io.swallowed.tmp-unlink")
        raise
    fsync_directory(path.parent, site=site)
    return path


# --------------------------------------------------------------------------
# Durability policy
# --------------------------------------------------------------------------


class Durability(enum.Enum):
    """How hard :func:`persist_text` fights for an artifact."""

    #: User-requested output: retry with backoff, then fail loudly.
    ESSENTIAL = "essential"
    #: Recomputable acceleration state: degrade through a breaker.
    BEST_EFFORT = "best-effort"


#: The schedule ESSENTIAL writes retry on: 3 attempts from 50 ms.
ESSENTIAL_RETRY = RetryPolicy(backoff_base=0.05)

_sleep = time.sleep  # monkeypatchable in tests


class CircuitBreaker:
    """Consecutive-failure breaker guarding one BEST-EFFORT site."""

    def __init__(self, site: str, threshold: int = DEGRADE_AFTER) -> None:
        self.site = site
        self.threshold = threshold
        self.consecutive_failures = 0
        self.open = False

    def record_failure(self) -> bool:
        """Note a failure; return True when this one tripped the breaker."""
        self.consecutive_failures += 1
        if not self.open and self.consecutive_failures >= self.threshold:
            self.open = True
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0


def circuit_breaker(site: str) -> CircuitBreaker:
    """The (lazily created) breaker guarding ``site`` in this run."""
    breakers = current_run_context().io.breakers
    breaker = breakers.get(site)
    if breaker is None:
        breaker = breakers[site] = CircuitBreaker(site)
    return breaker


def persist_text(
    path: Union[str, Path],
    text: str,
    *,
    site: str,
    durability: Durability = Durability.ESSENTIAL,
    mkdir: bool = True,
) -> Optional[Path]:
    """Write ``text`` to ``path`` under the durability policy.

    ESSENTIAL: retries on :data:`ESSENTIAL_RETRY` (``io.retry.<site>`` counted
    per retry), then raises :class:`~repro.common.errors.PersistenceError`
    with the path, site and underlying errno.  Returns the path on success.

    BEST_EFFORT: one attempt through the site's circuit breaker.
    Returns the path on success, ``None`` when the write was lost —
    either skipped because the breaker is already open
    (``io.skipped.<site>``) or failed and degraded
    (``io.degraded.<site>``).  The breaker opens after
    :data:`DEGRADE_AFTER` consecutive failures with a one-line stderr
    notice; the caller continues without the store.
    """
    path = Path(path)
    if durability is Durability.ESSENTIAL:
        policy = ESSENTIAL_RETRY
        last: Optional[OSError] = None
        for attempt in range(1, policy.max_attempts + 1):
            try:
                return atomic_write_text(path, text, mkdir=mkdir, site=site)
            except OSError as exc:
                last = exc
                count_io(f"io.fault.{site}")
                if attempt < policy.max_attempts:
                    count_io(f"io.retry.{site}")
                    _sleep(policy.delay(attempt))
        errno_part = (
            f" [errno {last.errno}]" if getattr(last, "errno", None) else ""
        )
        raise PersistenceError(
            f"cannot persist essential artifact {path} (site '{site}')"
            f" after {policy.max_attempts} attempt(s): {last}{errno_part};"
            " free disk space / fix permissions on the target directory"
            " and re-run — completed work is resumable from the manifest"
        ) from last
    breaker = circuit_breaker(site)
    if breaker.open:
        count_io(f"io.skipped.{site}")
        return None
    try:
        result = atomic_write_text(path, text, mkdir=mkdir, site=site)
    except OSError as exc:
        count_io(f"io.fault.{site}")
        count_io(f"io.degraded.{site}")
        if breaker.record_failure():
            print(
                f"io: best-effort store '{site}' disabled after"
                f" {breaker.threshold} consecutive failures"
                f" (last: {exc}); run continues without it",
                file=sys.stderr,
            )
        return None
    breaker.record_success()
    return result
