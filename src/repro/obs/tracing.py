"""Structured tracing: a canonical, streamable view of the event log.

The engine's :class:`~repro.sim.events.SimEvent` stream already encodes
every observable action; this module gives it a stable wire format:

* :func:`event_to_dict` / :func:`event_json_line` — the canonical
  JSON encoding (sorted keys, compact separators, schema-versioned),
  byte-stable across runs of the same seed.  The golden-trace
  regression tests pin these bytes.
* :class:`JsonlTraceSink` — a streaming sink attachable to a live
  engine (``Simulator(..., event_sink=sink)`` or
  ``engine.attach_event_sink``): events are written as they happen,
  with optional kind/core filters, without buffering the whole log in
  memory.  This is how long campaigns trace without the ``O(events)``
  footprint of ``record_events=True``.
* :func:`trace_to_jsonl_bytes` / :func:`trace_digest` — batch encoding
  and a SHA-256 fingerprint of a recorded event sequence, the compact
  form regression suites compare.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence, Set, Union

from repro.common.errors import ObservabilityError
from repro.common.fileio import check_io, guarded_write
from repro.common.types import CoreId
from repro.sim.codec import canonical_json
from repro.sim.events import EventKind, SimEvent

#: Bumped on any change to the per-event dict layout.
TRACE_SCHEMA_VERSION = 1


def event_to_dict(event: SimEvent) -> dict:
    """The canonical plain-data form of one event."""
    return {
        "cycle": event.cycle,
        "slot": event.slot,
        "kind": event.kind.value,
        "core": event.core,
        "block": event.block,
        "set": event.set_index,
        "way": event.way,
        "detail": event.detail,
    }


def event_json_line(event: SimEvent) -> str:
    """One canonical JSON line (sorted keys, compact, no trailing \\n)."""
    return canonical_json(event_to_dict(event))


def trace_to_jsonl_bytes(events: Iterable[SimEvent]) -> bytes:
    """The whole event sequence as canonical JSONL bytes."""
    return "".join(event_json_line(event) + "\n" for event in events).encode()


def trace_digest(events: Iterable[SimEvent]) -> str:
    """SHA-256 of the canonical JSONL encoding.

    A one-line fingerprint for regression suites: two runs emit the
    same digest iff their traces are byte-identical.
    """
    digest = hashlib.sha256()
    for event in events:
        digest.update((event_json_line(event) + "\n").encode())
    return digest.hexdigest()


class JsonlTraceSink:
    """Streams events to a JSONL file (or open handle) as they occur.

    Use as a callable (the :class:`~repro.sim.events.EventLog` sink
    protocol) and as a context manager::

        with JsonlTraceSink(path, kinds={EventKind.RESPONSE}) as sink:
            Simulator(config, traces, event_sink=sink).run()

    Parameters
    ----------
    target:
        A path (opened for writing; parent directory must exist) or an
        already-open text handle (not closed by the sink).
    kinds / cores:
        Optional filters; an event must match both to be written.
    """

    def __init__(
        self,
        target: Union[str, Path, IO[str]],
        kinds: Optional[Iterable[EventKind]] = None,
        cores: Optional[Sequence[CoreId]] = None,
    ) -> None:
        self._owns_handle = isinstance(target, (str, Path))
        self._path: Optional[Path] = None
        if self._owns_handle:
            path = Path(target)
            self._path = path
            try:
                check_io("open", path, "trace-sink")
                self._handle: IO[str] = open(path, "w")
            except OSError as exc:
                raise ObservabilityError(
                    f"cannot open trace sink {path}: {exc}"
                ) from exc
        else:
            self._handle = target
        self._kinds: Optional[Set[EventKind]] = set(kinds) if kinds else None
        self._cores: Optional[Set[CoreId]] = set(cores) if cores else None
        #: Events written so far (after filtering).
        self.emitted = 0
        self._closed = False

    def __call__(self, event: SimEvent) -> None:
        """The sink protocol: receive one event from the stream."""
        if self._closed:
            raise ObservabilityError("trace sink is closed")
        if self._kinds is not None and event.kind not in self._kinds:
            return
        if self._cores is not None and event.core not in self._cores:
            return
        where = self._path if self._path is not None else Path("<stream>")
        try:
            guarded_write(
                self._handle, event_json_line(event) + "\n", where, "trace-sink"
            )
        except OSError as exc:
            # Traces are requested output — ESSENTIAL: fail loudly with
            # the offending path rather than silently dropping events.
            raise ObservabilityError(
                f"cannot write trace event to {where}: {exc}; free disk "
                "space or choose another trace path and re-run"
            ) from exc
        self.emitted += 1

    def close(self) -> None:
        """Flush and (for path targets) close the underlying file."""
        if self._closed:
            return
        self._closed = True
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
