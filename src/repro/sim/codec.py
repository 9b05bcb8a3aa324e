"""One codec for stored run state.

Checkpoints (:mod:`repro.robustness.checkpoint`) and result-cache
entries (:mod:`repro.sim.cache`) persist the same kinds of values and
identify the same runs.  This module owns every encoding they share, so
each concept has exactly one implementation:

* :func:`canonical_json` / :func:`canonical_digest` — sorted keys,
  compact separators, and the SHA-256 over those bytes.
* The **run identity** (:func:`run_identity`, :func:`run_key`): the
  full config tree, name-blind length-framed traces, non-zero start
  offsets and the model-schema stamp.  It keys result-cache entries and
  names and guards checkpoints: two runs with one identity produce the
  same report.
* The **integrity envelope** (:func:`seal`, :func:`unseal`): a
  ``{"integrity": <digest>, "payload": ...}`` document whose payload
  carries ``kind`` and ``version`` stamps, verified on every read.
* Compact list codecs for :class:`~repro.sim.events.SimEvent`,
  :class:`~repro.bus.buffers.PendingRequest` and the stats dataclasses.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.bus.buffers import PendingRequest
from repro.common.errors import (
    CheckpointError,
    ConfigurationError,
    FormatVersionError,
)
from repro.common.types import AccessType
from repro.sim.events import EventKind, SimEvent
from repro.workloads.trace import MemoryTrace

#: The model/schema stamp folded into every run identity.  Bump it on
#: any intentional change to the simulation model's observable
#: behaviour (event stream, latency accounting, report fields): every
#: stored result and checkpoint then belongs to a different identity
#: and is recomputed under the new model — the invalidation story
#: documented in docs/PERFORMANCE.md.
MODEL_SCHEMA_VERSION = 1


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of ``obj`` (sorted keys, compact)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_digest(obj: Any) -> str:
    """SHA-256 over :func:`canonical_json` of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def canonical_json_with(
    obj: Mapping[str, Any], path: Sequence[str], text: str
) -> str:
    """:func:`canonical_json` of ``obj``, with the value at the key path
    ``path`` supplied as its already-canonical ``text``.

    The dicts along ``path`` are encoded here exactly as ``json.dumps``
    with ``sort_keys`` encodes them, so the bytes equal a full dump of
    ``obj`` holding the value; a caller that keeps a large, append-only
    value's text need not re-encode it.
    """
    if not path:
        return text
    key = path[0]
    members = [
        canonical_json(name)
        + ":"
        + (
            canonical_json_with(value, path[1:], text)
            if name == key
            else canonical_json(value)
        )
        for name, value in sorted(obj.items())
    ]
    return "{" + ",".join(members) + "}"


# ----------------------------------------------------------------------
# Run identity
# ----------------------------------------------------------------------
def config_document(value: Any) -> Any:
    """The config as canonical JSON-ready data, every field included.

    Walks the dataclass tree field by field, so the document is stable,
    inspectable and complete: *every* declared field enters it,
    including ones left at their default, so two configs differing in
    any field (``seed``, ``self_writeback_in_slot``, ``engine``, a nested
    latency) can never silently share an identity.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        # fields() skips non-field memo slots (TdmSchedule._positions
        # and ._one_slot, SystemConfig._partition_map and ._schedule),
        # which asdict-style __dict__ walks would drag into the key.
        return {
            f.name: config_document(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, enum.Enum):
        # Enum members (ArbitrationPolicy, ...) key by their value.
        return value.value
    if isinstance(value, (list, tuple)):
        return [config_document(item) for item in value]
    if isinstance(value, dict):
        return {str(key): config_document(val) for key, val in value.items()}
    if isinstance(value, (int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot build a run identity over {type(value).__name__!r} "
        f"({value!r}); extend repro.sim.codec.config_document"
    )


def trace_fingerprint(trace: MemoryTrace) -> str:
    """SHA-256 over a trace's records, length-framed per record.

    Each record's canonical line is prefixed with its byte length
    (4-byte big-endian), so the digest depends on the exact record
    *sequence*, not merely the concatenated bytes — no two distinct
    chunkings of the same byte stream can collide.  The trace *name* is
    deliberately excluded: the simulation result does not depend on it.

    Traces are immutable, so the digest is memoised on the trace
    object: periodic checkpointing fingerprints the same workload once
    per save.
    """
    cached = getattr(trace, "_run_fingerprint", None)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for record in trace:
        line = record.to_line().encode()
        digest.update(len(line).to_bytes(4, "big"))
        digest.update(line)
    fingerprint = digest.hexdigest()
    trace._run_fingerprint = fingerprint
    return fingerprint


def run_identity(
    config,
    traces: Mapping[int, MemoryTrace],
    start_cycles: Optional[Mapping[int, int]] = None,
) -> Dict[str, Any]:
    """The identity document of one ``simulate()`` call.

    Covers everything the report is a deterministic function of: the
    full config (engine selection included), every core's trace, any
    start-cycle offsets, and the model/schema stamp.  Zero start-cycle
    offsets are dropped: a missing core defaults to cycle 0 in the
    simulator, so ``{0: 0}``, ``{}`` and ``None`` all describe the same
    run.
    """
    offsets = {
        str(core): cycle for core, cycle in (start_cycles or {}).items() if cycle
    }
    return {
        # The identity began as the result cache's key document; these
        # stamps keep its bytes, so existing cache directories stay warm.
        "kind": "repro-sim-result",
        "version": 1,
        "model_schema_version": MODEL_SCHEMA_VERSION,
        "config": config_document(config),
        "traces": {
            str(core): trace_fingerprint(trace) for core, trace in traces.items()
        },
        "start_cycles": offsets or None,
    }


def run_key(
    config,
    traces: Mapping[int, MemoryTrace],
    start_cycles: Optional[Mapping[int, int]] = None,
) -> str:
    """SHA-256 of :func:`run_identity`: the result-cache key and the
    checkpoint file name of one run.  Mapping iteration order does not
    matter — the document is serialised with sorted keys."""
    return canonical_digest(run_identity(config, traces, start_cycles))


# ----------------------------------------------------------------------
# Integrity envelope
# ----------------------------------------------------------------------
def seal(payload: Mapping[str, Any]) -> str:
    """The file text of ``payload`` wrapped in its integrity digest."""
    return seal_body(canonical_json(payload))


def seal_body(body: str) -> str:
    """:func:`seal` of the payload whose canonical JSON is ``body``."""
    digest = hashlib.sha256(body.encode()).hexdigest()
    # Splice the already-canonical body in by hand rather than dumping
    # the payload a second time: "integrity" < "payload" sorts first, so
    # the bytes match a full canonical dump of the document exactly.
    return '{"integrity":"%s","payload":%s}\n' % (digest, body)


def unseal(
    data: Union[str, bytes], path: Union[str, Path], kind: str, version: int
) -> Dict[str, Any]:
    """Parse and verify a :func:`seal` document; return its payload.

    Raises :class:`CheckpointError` naming the defect — bytes that are
    not UTF-8, truncated or invalid JSON, a missing payload, a digest
    mismatch (a flipped byte anywhere in the payload), a foreign
    ``kind`` — and its :class:`FormatVersionError` subclass when the
    ``version`` stamp is malformed or differs from ``version``.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{path} is not UTF-8 (corrupted bytes): {exc}"
            ) from exc
    try:
        document = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"{path} is not valid JSON (truncated or corrupted write?): {exc}"
        ) from exc
    if not isinstance(document, dict) or "payload" not in document:
        raise CheckpointError(f"{path} is not a {kind} file (no payload section)")
    payload = document["payload"]
    if document.get("integrity") != canonical_digest(payload):
        raise CheckpointError(
            f"{path} failed its integrity check: the file was corrupted "
            "after it was written; delete it to start fresh"
        )
    found_kind = payload.get("kind") if isinstance(payload, dict) else None
    if found_kind != kind:
        raise CheckpointError(f"{path} is not a {kind} file (kind={found_kind!r})")
    found = payload.get("version")
    if not isinstance(found, int) or isinstance(found, bool):
        raise FormatVersionError(f"{path} has a malformed version field {found!r}")
    if found > version:
        raise FormatVersionError(
            f"{path} has version {found}, written by a newer repro build "
            f"(this build reads version {version}); upgrade this "
            "installation or delete the file to start fresh"
        )
    if found < version:
        raise FormatVersionError(
            f"{path} has unsupported version {found}, written by an older "
            f"repro build (this build reads version {version}); delete it "
            "to start fresh"
        )
    return payload


# ----------------------------------------------------------------------
# Compact value codecs
# ----------------------------------------------------------------------
def dataclass_state(value) -> Dict[str, Any]:
    """A flat stats dataclass as a ``{field: value}`` dict."""
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


def load_dataclass_state(target, state: Mapping[str, Any]) -> None:
    """Write :func:`dataclass_state` output back into ``target``."""
    for f in dataclasses.fields(target):
        setattr(target, f.name, state[f.name])


def event_states(events: Iterable[SimEvent]) -> List[List[Any]]:
    """Events as positional 8-element lists (field names would triple
    the stored size of long logs)."""
    return [
        [cycle, slot, kind.value, core, block, set_index, way, detail]
        for cycle, slot, kind, core, block, set_index, way, detail in events
    ]


def load_events(states: Iterable[List[Any]]) -> List[SimEvent]:
    """The inverse of :func:`event_states`."""
    return [
        SimEvent(cycle, slot, EventKind(kind), core, block, set_index, way, detail)
        for cycle, slot, kind, core, block, set_index, way, detail in states
    ]


def request_states(requests: Iterable[PendingRequest]) -> List[Any]:
    """Requests flattened to one stride-8 value array.

    The completed-request log grows one entry per served request and
    dominates long-run checkpoints: a flat list both builds and
    JSON-encodes about twice as fast as 20k nested lists, which is what
    keeps the periodic-save overhead inside the benchmark budget.
    """
    flat: List[Any] = []
    for request in requests:
        flat.extend(
            (
                request.core,
                request.block,
                request.access.value,
                request.enqueued_at,
                request.first_on_bus_at,
                request.completed_at,
                request.bus_attempts,
                1 if request.served_by_hit else 0,
            )
        )
    return flat


def load_requests(flat: List[Any]) -> List[PendingRequest]:
    """The inverse of :func:`request_states`."""
    return [
        PendingRequest(
            core=flat[i],
            block=flat[i + 1],
            access=AccessType(flat[i + 2]),
            enqueued_at=flat[i + 3],
            first_on_bus_at=flat[i + 4],
            completed_at=flat[i + 5],
            bus_attempts=flat[i + 6],
            served_by_hit=bool(flat[i + 7]),
        )
        for i in range(0, len(flat), 8)
    ]
