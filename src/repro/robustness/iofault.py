"""Deterministic filesystem fault injection for the persistence seam.

PR 1 proved the *model* monitor: every injected model fault trips an
invariant.  This module applies the same discipline to the *storage*
substrate: every way the filesystem can fail — disk full, media error,
interrupted syscall, partial write, fsync refusal, rename refusal,
silent read corruption, permission denial — is injectable at a precise
point of a run, and every persistence layer's response (retry, loud
:class:`~repro.common.errors.PersistenceError`, circuit-breaker
degradation, integrity-check rejection) is demonstrated by tests, not
asserted in prose.

Faults are injected through the single instrumented I/O seam in
:mod:`repro.common.fileio`: every primitive operation (open / write /
fsync / replace / fsync-dir / read) carries a *site* label naming the
store that issued it ("manifest", "result-cache", "checkpoint",
"metrics-export", ...), and an :class:`IoFaultPlan` installed as the
run context's hook (``run_context(io_hook=plan)``) decides
per operation whether to let it through, fail it, truncate it or
corrupt it.  Plans are deterministic: a :class:`IoFaultSpec` fires at
the N-th operation matching its filters (optionally for a bounded
count), so a failing test replays exactly from its spec strings and
seed.

Spec strings (the ``--io-fault`` CLI grammar)::

    enospc                      first matching op fails with ENOSPC
    eio@7                       7th matching op fails with EIO
    eintr@3x2                   ops 3 and 4 fail with EINTR
    enospc@2x*                  every op from the 2nd on fails
    fsync@1,site=manifest       first manifest fsync fails
    short-write@1,site=result-cache
    corrupt-read@1,path=*.json  first read of a *.json file corrupted
    eacces@1,op=open            first open denied
"""

from __future__ import annotations

import contextlib
import enum
import errno as _errno
import fnmatch
import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.common.context import run_context
from repro.common.errors import ConfigurationError
from repro.common.fileio import IO_OPS, IoFaultAction, IoOperation, count_io
from repro.common.validation import require


class InjectedIoError(OSError):
    """An injected I/O failure (distinguishable from real ones in tests)."""


class IoFaultKind(enum.Enum):
    """The injectable filesystem fault classes."""

    #: ``ENOSPC`` — no space left on device.  Default target: any
    #: data-bearing step of a write (write / fsync / replace).
    ENOSPC = "enospc"
    #: ``EIO`` — generic I/O (media) error.  Default target: any op.
    EIO = "eio"
    #: ``EINTR`` — interrupted syscall; the canonical *transient* fault
    #: that a single bounded retry absorbs.  Default target: write.
    EINTR = "eintr"
    #: ``EACCES`` — permission denied.  Default target: open.
    EACCES = "eacces"
    #: A short/partial write: half the text reaches the file, then the
    #: write fails with ENOSPC.  The crash-consistent write discipline
    #: must leave no torn target and no leaked ``.tmp``.
    SHORT_WRITE = "short-write"
    #: ``fsync`` on the staged temp file fails (EIO).
    FSYNC = "fsync"
    #: The final ``os.replace`` rename fails (EIO).
    RENAME = "rename"
    #: Silent read corruption: the read succeeds but returns flipped or
    #: truncated bytes.  Integrity-checked readers (result cache,
    #: checkpoints) must reject the document, never act on it.
    READ_CORRUPTION = "corrupt-read"


#: Per-kind default operation filters (None = any operation).
_DEFAULT_OPS = {
    IoFaultKind.ENOSPC: ("write", "fsync", "replace"),
    IoFaultKind.EIO: None,
    IoFaultKind.EINTR: ("write",),
    IoFaultKind.EACCES: ("open",),
    IoFaultKind.SHORT_WRITE: ("write",),
    IoFaultKind.FSYNC: ("fsync",),
    IoFaultKind.RENAME: ("replace",),
    IoFaultKind.READ_CORRUPTION: ("read",),
}

_KIND_ERRNO = {
    IoFaultKind.ENOSPC: _errno.ENOSPC,
    IoFaultKind.EIO: _errno.EIO,
    IoFaultKind.EINTR: _errno.EINTR,
    IoFaultKind.EACCES: _errno.EACCES,
    IoFaultKind.SHORT_WRITE: _errno.ENOSPC,
    IoFaultKind.FSYNC: _errno.EIO,
    IoFaultKind.RENAME: _errno.EIO,
}


def _injected_error(kind: IoFaultKind, operation: IoOperation) -> InjectedIoError:
    code = _KIND_ERRNO[kind]
    return InjectedIoError(
        code,
        f"injected {kind.value} at {operation.describe()}",
    )


@dataclass(frozen=True)
class IoFaultSpec:
    """One fault: what to inject, and exactly when and where.

    The spec fires at match numbers ``nth .. nth+count-1`` of the
    operations passing its filters (1-based; ``count=None`` means every
    match from ``nth`` on).  ``op`` narrows to one seam operation
    (default: the kind's natural targets), ``site`` to one store label,
    ``path_glob`` to file names matching a glob.
    """

    kind: IoFaultKind
    nth: int = 1
    count: Optional[int] = 1
    op: Optional[str] = None
    site: Optional[str] = None
    path_glob: Optional[str] = None

    def __post_init__(self) -> None:
        require(self.nth >= 1, f"nth must be >= 1, got {self.nth}")
        require(
            self.count is None or self.count >= 1,
            f"count must be >= 1 or None, got {self.count}",
        )
        require(
            self.op is None or self.op in IO_OPS,
            f"unknown op {self.op!r}; choose from {', '.join(IO_OPS)}",
        )

    def matches(self, operation: IoOperation) -> bool:
        """Does ``operation`` pass this spec's filters (ignoring nth)?"""
        ops = (self.op,) if self.op is not None else _DEFAULT_OPS[self.kind]
        if ops is not None and operation.op not in ops:
            return False
        if self.site is not None and not fnmatch.fnmatchcase(
            operation.site, self.site
        ):
            return False
        if self.path_glob is not None and not (
            fnmatch.fnmatch(operation.path.name, self.path_glob)
            or fnmatch.fnmatch(str(operation.path), self.path_glob)
        ):
            return False
        return True

    def fires_at(self, match_number: int) -> bool:
        """Does the spec fire at its ``match_number``-th match (1-based)?"""
        if match_number < self.nth:
            return False
        return self.count is None or match_number < self.nth + self.count

    def describe(self) -> str:
        window = (
            f"@{self.nth}x*"
            if self.count is None
            else f"@{self.nth}" + (f"x{self.count}" if self.count != 1 else "")
        )
        filters = [
            f"{key}={value}"
            for key, value in (
                ("op", self.op),
                ("site", self.site),
                ("path", self.path_glob),
            )
            if value is not None
        ]
        return self.kind.value + window + ("," + ",".join(filters) if filters else "")

    @classmethod
    def parse(cls, text: str) -> "IoFaultSpec":
        """Parse the ``--io-fault`` grammar (see the module docstring)."""
        head, _, tail = text.strip().partition(",")
        kind_text, _, window = head.partition("@")
        try:
            kind = IoFaultKind(kind_text.strip().lower())
        except ValueError:
            choices = ", ".join(k.value for k in IoFaultKind)
            raise ConfigurationError(
                f"unknown io-fault kind {kind_text.strip()!r};"
                f" choose from {choices}"
            ) from None
        nth, count = 1, 1
        if window:
            nth_text, _, count_text = window.partition("x")
            try:
                nth = int(nth_text)
            except ValueError:
                raise ConfigurationError(
                    f"bad io-fault position {nth_text!r} in {text!r}"
                    " (expected an integer)"
                ) from None
            if count_text:
                if count_text == "*":
                    count = None
                else:
                    try:
                        count = int(count_text)
                    except ValueError:
                        raise ConfigurationError(
                            f"bad io-fault count {count_text!r} in {text!r}"
                            " (expected an integer or '*')"
                        ) from None
        op = site = path_glob = None
        if tail:
            for clause in tail.split(","):
                key, sep, value = clause.partition("=")
                key, value = key.strip(), value.strip()
                if not sep or not value:
                    raise ConfigurationError(
                        f"bad io-fault filter {clause!r} in {text!r}"
                        " (expected key=value)"
                    )
                if key == "op":
                    op = value
                elif key == "site":
                    site = value
                elif key == "path":
                    path_glob = value
                else:
                    raise ConfigurationError(
                        f"unknown io-fault filter key {key!r} in {text!r};"
                        " choose from op, site, path"
                    )
        try:
            return cls(
                kind=kind, nth=nth, count=count, op=op, site=site,
                path_glob=path_glob,
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"bad io-fault spec {text!r}: {exc}") from None


@dataclass
class FiredFault:
    """A fault that actually landed, for post-run assertions."""

    spec: IoFaultSpec
    operation: IoOperation
    operation_index: int


class IoFaultPlan:
    """A deterministic schedule of I/O faults (a run context ``io_hook``).

    The plan sees every seam operation, counts per-spec matches and
    fires each spec at its configured match window.  ``seed`` drives
    only the read-corruption byte choices; everything else is a pure
    function of the operation sequence, so the same run fires the same
    faults.
    """

    def __init__(self, specs: Sequence[IoFaultSpec], seed: int = 0) -> None:
        self.specs: Tuple[IoFaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.operations = 0
        self.fired: List[FiredFault] = []
        self._matches = [0] * len(self.specs)
        self._rng = random.Random(seed)

    @property
    def fired_count(self) -> int:
        return len(self.fired)

    def __call__(self, operation: IoOperation) -> Optional[IoFaultAction]:
        self.operations += 1
        for index, spec in enumerate(self.specs):
            if not spec.matches(operation):
                continue
            self._matches[index] += 1
            if not spec.fires_at(self._matches[index]):
                continue
            self.fired.append(
                FiredFault(
                    spec=spec,
                    operation=operation,
                    operation_index=self.operations,
                )
            )
            count_io(f"io.injected.{spec.kind.value}")
            return self._action(spec, operation)
        return None

    def _action(
        self, spec: IoFaultSpec, operation: IoOperation
    ) -> IoFaultAction:
        if spec.kind is IoFaultKind.SHORT_WRITE:
            return IoFaultAction(
                error=_injected_error(spec.kind, operation),
                short_write_fraction=0.5,
            )
        if spec.kind is IoFaultKind.READ_CORRUPTION:
            # Deterministic given the seed and firing order: either a
            # single flipped byte or a truncation to half length.
            flip = self._rng.random() < 0.5
            offset = self._rng.random()

            def corrupt(data: bytes) -> bytes:
                if not data:
                    return b"\xff"
                if flip:
                    position = int(offset * (len(data) - 1))
                    mutated = bytearray(data)
                    mutated[position] ^= 0xFF
                    return bytes(mutated)
                return data[: max(1, len(data) // 2)]

            return IoFaultAction(corrupt=corrupt)
        return IoFaultAction(error=_injected_error(spec.kind, operation))


@dataclass
class IoOperationRecorder:
    """A pass-through hook that records the operation stream.

    The exhaustive fault-schedule sweep first runs the campaign under a
    recorder to learn how many seam operations it performs, then
    replays it once per operation index with a fault at exactly that
    point.
    """

    operations: List[IoOperation] = field(default_factory=list)

    def __call__(self, operation: IoOperation) -> None:
        self.operations.append(operation)
        return None

    def __len__(self) -> int:
        return len(self.operations)


@contextlib.contextmanager
def record_io_operations() -> Iterator[IoOperationRecorder]:
    """Context manager: record every seam operation of the block.

    The recorder is the block's ``io_hook``; a nested scope with a hook
    of its own (a fault plan) pauses the recording until it exits.
    """
    recorder = IoOperationRecorder()
    with run_context(io_hook=recorder):
        yield recorder
