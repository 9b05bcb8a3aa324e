"""Content-addressed simulation result cache with bit-identical replay.

Every ``repro-llc fig7/fig8/compare/all`` invocation re-simulates
configurations that have already been run — the paper's sweeps share
many (schedule, partition, workload) points, and CI re-runs the same
scenarios on every push.  This module turns repeated sweeps into
near-zero-cost lookups:

* The **run identity** (:func:`repro.sim.codec.run_key`) keys each
  completed run: SHA-256 over canonical JSON of the full
  :class:`~repro.sim.config.SystemConfig`, the per-core workload traces
  (length-framed per record, so no two distinct record sequences can
  collide by re-chunking), the engine selection (part of the config),
  non-zero start offsets and a model/schema version stamp
  (:data:`~repro.sim.codec.MODEL_SCHEMA_VERSION`) bumped on any
  intentional change to the simulation model, which invalidates every
  older entry at once.  Checkpoints are named and guarded by the same
  identity.
* The **cached value** stores the complete report (per-request records,
  per-core aggregates, LLC/DRAM/sequencer counters, slot usage, the
  event log when the run recorded one, and the per-slot sampler's
  metric rows), wrapped in the integrity envelope checkpoints also use
  (:func:`repro.sim.codec.seal`: payload digest + tmp-fsync-rename), so
  a kill mid-write can never leave a readable half-entry.
* **Verification on read**: an unreadable, truncated, corrupted,
  version-mismatched or swapped-on-disk entry is detected (payload
  digest, kind/version stamps, embedded key, event-log fingerprint),
  counted in the ``sim_cache.corruption`` / ``sim_cache.version_mismatch``
  counters, deleted, and the run transparently recomputed — a stale or
  tampered result is never surfaced.

The hard guarantee mirrors the checkpoint layer's: a cache **hit
produces byte-identical reports, metrics exports and figures** to a
fresh simulation, serial and under ``--jobs N`` (fork workers inherit
the installed cache and deduplicate through the shared directory; the
atomic rename makes concurrent same-key stores benign).

Install a cache for a scope with
``run_context(result_cache=SimResultCache(directory))``
(:mod:`repro.common.context`; the CLI's ``--cache DIR`` lands there);
:func:`repro.sim.simulator.simulate` consults it on every plain call.
Runs with a streaming ``event_sink`` bypass the cache entirely — their
side effects happen *during* the run and cannot be replayed from a
stored report.
"""

from __future__ import annotations

import dataclasses
import time
from itertools import chain
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.common.errors import (
    CheckpointError,
    ConfigurationError,
    FormatVersionError,
)
from repro.common.fileio import (
    Durability,
    count_io,
    persist_text,
    read_bytes,
    sweep_stale_tmp,
)
from repro.common.validation import require
from repro.sim.codec import (
    MODEL_SCHEMA_VERSION,
    canonical_digest,
    dataclass_state,
    event_states,
    load_events,
    run_key,
    seal,
    unseal,
)
from repro.sim.events import EventLog
from repro.sim.report import CoreReport, RequestRecord, SimReport
from repro.workloads.trace import MemoryTrace

#: Entry-format version: bumped on incompatible changes to the cached
#: payload layout.  A mismatch discards the entry (recompute, never
#: trust).
RESULT_CACHE_VERSION = 1

#: File-format discriminator, so an unrelated JSON file dropped into
#: the cache directory is rejected instead of mis-parsed.
RESULT_CACHE_KIND = "repro-sim-result"


def event_log_fingerprint(events: List[List[Any]]) -> str:
    """SHA-256 over the flattened event states of one stored log."""
    return canonical_digest(events)


def report_state(report: SimReport) -> Dict[str, Any]:
    """The report as plain JSON-ready data, losslessly.

    Requests are flattened to a stride-7 list and events to stride-8
    lists (the codec's event encoding, shared with checkpoints): hot
    sweeps produce tens of thousands of both, and per-record dicts would
    triple the entry size.  Integer-keyed maps become sorted
    ``[key, value]`` pairs so the canonical JSON is order-independent.
    """
    # A record's fields are the stride-7 layout; served_by_hit is
    # stored as 0/1.
    flat_requests: List[Any] = list(chain.from_iterable(report.requests))
    flat_requests[6::7] = [int(hit) for hit in flat_requests[6::7]]
    events: Optional[List[List[Any]]] = None
    if report.events.enabled:
        events = event_states(report.events)
    return {
        "total_slots": report.total_slots,
        "total_cycles": report.total_cycles,
        "timed_out": report.timed_out,
        "core_reports": [
            [
                core,
                {
                    "finish_time": core_report.finish_time,
                    "requests": core_report.requests,
                    "private_hits": core_report.private_hits,
                    "observed_wcl": core_report.observed_wcl,
                    "observed_bus_wcl": core_report.observed_bus_wcl,
                    "mean_latency": core_report.mean_latency,
                    "max_bus_attempts": core_report.max_bus_attempts,
                    "outstanding_block": core_report.outstanding_block,
                    "outstanding_attempts": core_report.outstanding_attempts,
                },
            ]
            for core, core_report in sorted(report.core_reports.items())
        ],
        "requests": flat_requests,
        "llc_stats": dataclass_state(report.llc_stats),
        "llc_back_invalidations": report.llc_back_invalidations,
        "llc_blocked_slots": report.llc_blocked_slots,
        "sequencer_stats": [
            [name, dataclass_state(stats)]
            for name, stats in sorted(report.sequencer_stats.items())
        ],
        "pwb_max_occupancy": [
            [core, occupancy]
            for core, occupancy in sorted(report.pwb_max_occupancy.items())
        ],
        "dram_reads": report.dram_reads,
        "dram_writes": report.dram_writes,
        "slot_usage": [
            [core, dict(usage)] for core, usage in sorted(report.slot_usage.items())
        ],
        "arbiter_contended": [
            [core, count]
            for core, count in sorted(report.arbiter_contended.items())
        ],
        "events": events,
        "metrics_rows": (
            report.metrics.rows() if report.metrics is not None else None
        ),
    }


def load_report(state: Mapping[str, Any]) -> SimReport:
    """Rebuild a :class:`SimReport` from :func:`report_state` output.

    Every call builds fresh objects, so two hits on the same entry
    never share mutable state.
    """
    from repro.cache.stats import CacheStats
    from repro.sequencer.set_sequencer import SequencerStats

    flat = state["requests"]
    requests = [
        RequestRecord(
            flat[i],
            flat[i + 1],
            flat[i + 2],
            flat[i + 3],
            flat[i + 4],
            flat[i + 5],
            bool(flat[i + 6]),
        )
        for i in range(0, len(flat), 7)
    ]
    events = EventLog(enabled=state["events"] is not None)
    if state["events"] is not None:
        events.restore(load_events(state["events"]))
    metrics = None
    if state["metrics_rows"] is not None:
        from repro.obs.metrics import registry_from_rows

        metrics = registry_from_rows(state["metrics_rows"])
    return SimReport(
        total_slots=state["total_slots"],
        total_cycles=state["total_cycles"],
        timed_out=state["timed_out"],
        core_reports={
            core: CoreReport(core=core, **fields)
            for core, fields in state["core_reports"]
        },
        requests=requests,
        llc_stats=CacheStats(**state["llc_stats"]),
        llc_back_invalidations=state["llc_back_invalidations"],
        llc_blocked_slots=state["llc_blocked_slots"],
        sequencer_stats={
            name: SequencerStats(**fields)
            for name, fields in state["sequencer_stats"]
        },
        pwb_max_occupancy={
            core: occupancy for core, occupancy in state["pwb_max_occupancy"]
        },
        dram_reads=state["dram_reads"],
        dram_writes=state["dram_writes"],
        slot_usage={core: dict(usage) for core, usage in state["slot_usage"]},
        arbiter_contended={
            core: count for core, count in state["arbiter_contended"]
        },
        events=events,
        metrics=metrics,
    )


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class CacheDirStats:
    """What ``repro-llc cache stats`` reports about one directory."""

    entries: int
    total_bytes: int


class SimResultCache:
    """A content-addressed result store over one directory.

    One JSON file per entry (``res-<key>.json``), written with the
    tmp-fsync-rename discipline and verified on every read.  An
    in-process memo deduplicates identical lookups *within* a campaign
    (the second identical ``simulate()`` call never touches the disk);
    across fork workers the shared directory provides the dedup.

    ``registry`` (a :class:`repro.obs.metrics.MetricsRegistry`) carries
    the observability counters: ``sim_cache.hits``, ``sim_cache.misses``,
    ``sim_cache.stores``, ``sim_cache.evictions``,
    ``sim_cache.corruption`` and ``sim_cache.version_mismatch``.
    """

    def __init__(self, directory: Union[str, Path], registry=None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # A kill mid-store orphans a *.tmp sibling; it never holds
        # state a committed entry lacks, so clear them on startup.
        sweep_stale_tmp(self.directory)
        if registry is None:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.registry = registry
        self._memo: Dict[str, Dict[str, Any]] = {}

    # -- paths ----------------------------------------------------------
    def entry_path(self, key: str) -> Path:
        """Where the entry of one canonical key lives."""
        return self.directory / f"res-{key}.json"

    def _count(self, name: str, amount: int = 1) -> None:
        self.registry.counter(f"sim_cache.{name}").inc(amount)

    # -- lookup / store -------------------------------------------------
    def lookup(
        self,
        config,
        traces: Mapping[int, MemoryTrace],
        start_cycles: Optional[Mapping[int, int]] = None,
    ) -> Optional[SimReport]:
        """The cached report of one run, or ``None`` (counted as a miss).

        A corrupt or version-mismatched entry is deleted, counted, and
        reported as a miss — the caller recomputes; stale bytes are
        never trusted.
        """
        key = run_key(config, traces, start_cycles)
        memo = self._memo.get(key)
        if memo is not None:
            self._count("hits")
            return load_report(memo["report"])
        path = self.entry_path(key)
        try:
            data = read_bytes(path, site="result-cache")
        except FileNotFoundError:
            # A cold miss is normal operation, not a swallowed error.
            self._count("misses")
            return None
        except OSError:
            count_io("io.swallowed.result-cache.read")
            self._count("misses")
            return None
        payload = self._validated_payload(path, data, expected_key=key)
        if payload is None:
            self._count("misses")
            return None
        self._memo[key] = payload
        self._count("hits")
        return load_report(payload["report"])

    def store(
        self,
        config,
        traces: Mapping[int, MemoryTrace],
        start_cycles: Optional[Mapping[int, int]],
        report: SimReport,
    ) -> Optional[Path]:
        """Persist one completed run's report under its canonical key.

        Cache entries are BEST-EFFORT: a failed write degrades through
        the ``result-cache`` circuit breaker (counted, one stderr
        notice) and returns ``None`` — the in-process memo still holds
        the report, so the run's results are unaffected.
        """
        key = run_key(config, traces, start_cycles)
        state = report_state(report)
        payload = {
            "kind": RESULT_CACHE_KIND,
            "version": RESULT_CACHE_VERSION,
            "model_schema_version": MODEL_SCHEMA_VERSION,
            "key": key,
            "event_fingerprint": (
                event_log_fingerprint(state["events"])
                if state["events"] is not None
                else None
            ),
            "report": state,
        }
        document = seal(payload)
        target = persist_text(
            self.entry_path(key),
            document,
            site="result-cache",
            durability=Durability.BEST_EFFORT,
        )
        self._memo[key] = payload
        if target is not None:
            self._count("stores")
            self._count("stored_bytes", len(document))
        return target

    # -- validation ------------------------------------------------------
    def _validated_payload(
        self, path: Path, data: bytes, expected_key: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """Verify one entry's document; delete and count on any defect."""
        try:
            payload = _checked_payload(path, data, expected_key)
        except CheckpointError as exc:
            self._count(
                "version_mismatch"
                if isinstance(exc, FormatVersionError)
                else "corruption"
            )
            path.unlink(missing_ok=True)
            return None
        return payload

    # -- maintenance -----------------------------------------------------
    def _entries(self) -> List[Path]:
        return sorted(self.directory.glob("res-*.json"))

    def stats(self) -> CacheDirStats:
        """Entry count and total bytes of the directory."""
        entries = self._entries()
        return CacheDirStats(
            entries=len(entries),
            total_bytes=sum(path.stat().st_size for path in entries),
        )

    def verify(self) -> Tuple[List[Path], List[Path]]:
        """Integrity-sweep every entry; returns ``(ok, removed)``.

        Defective entries are deleted (and counted) exactly as a lookup
        would have — verification leaves only trustworthy entries.
        """
        ok: List[Path] = []
        removed: List[Path] = []
        for path in self._entries():
            try:
                data = read_bytes(path, site="result-cache")
            except OSError:
                count_io("io.swallowed.result-cache.read")
                continue
            if self._validated_payload(path, data) is None:
                removed.append(path)
            else:
                ok.append(path)
        return ok, removed

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_secs: Optional[float] = None,
        now: Optional[float] = None,
    ) -> List[Path]:
        """Prune the directory; returns the evicted entry paths.

        Entries older than ``max_age_secs`` go first; then the oldest
        entries are evicted until the directory fits ``max_bytes``.
        Ordering is the deterministic ``(mtime, name)`` pair, so two gc
        runs over the same directory evict the same files.
        """
        require(
            max_bytes is not None or max_age_secs is not None,
            "gc needs max_bytes and/or max_age_secs",
            ConfigurationError,
        )
        for name, limit in (("max_bytes", max_bytes), ("max_age_secs", max_age_secs)):
            require(
                limit is None or limit >= 0,
                f"gc {name} must be >= 0, got {limit}",
                ConfigurationError,
            )
        if now is None:
            now = time.time()
        entries = []
        for path in self._entries():
            stat = path.stat()
            entries.append((stat.st_mtime, path.name, path, stat.st_size))
        entries.sort()
        evicted: List[Path] = []
        kept: List[Tuple[float, str, Path, int]] = []
        for mtime, name, path, size in entries:
            if max_age_secs is not None and now - mtime > max_age_secs:
                evicted.append(path)
            else:
                kept.append((mtime, name, path, size))
        if max_bytes is not None:
            total = sum(size for _, _, _, size in kept)
            index = 0
            while total > max_bytes and index < len(kept):
                _, _, path, size = kept[index]
                evicted.append(path)
                total -= size
                index += 1
        for path in evicted:
            path.unlink(missing_ok=True)
            self._memo.pop(_key_of_entry(path), None)
            self._count("evictions")
        return evicted


def _key_of_entry(path: Path) -> str:
    name = path.name
    if name.startswith("res-") and name.endswith(".json"):
        return name[len("res-") : -len(".json")]
    return name


def _checked_payload(
    path: Path, data: bytes, expected_key: Optional[str]
) -> Dict[str, Any]:
    """Parse and verify one entry document; raise on any defect.

    :func:`~repro.sim.codec.unseal` checks the envelope (UTF-8, JSON,
    digest, kind, version); on top of it an entry must carry this
    build's model-schema stamp (else :class:`FormatVersionError`), embed
    the key it was read for (two entries swapped on disk), and carry an
    event-log fingerprint that covers the stored events.
    """
    payload = unseal(data, path, RESULT_CACHE_KIND, RESULT_CACHE_VERSION)
    if payload.get("model_schema_version") != MODEL_SCHEMA_VERSION:
        raise FormatVersionError(
            f"cache entry {path} was written under model schema version "
            f"{payload.get('model_schema_version')!r}, not "
            f"{MODEL_SCHEMA_VERSION}"
        )
    embedded = payload.get("key")
    expected = expected_key if expected_key is not None else _key_of_entry(path)
    if embedded != expected:
        raise CheckpointError(
            f"cache entry {path} embeds key {embedded!r} but was read "
            f"for key {expected!r} (entries swapped on disk?)"
        )
    report = payload.get("report")
    if not isinstance(report, dict):
        raise CheckpointError(f"cache entry {path} has no report section")
    events = report.get("events")
    fingerprint = payload.get("event_fingerprint")
    if events is not None:
        if fingerprint != event_log_fingerprint(events):
            raise CheckpointError(
                f"cache entry {path} has an event-log fingerprint "
                "mismatch"
            )
    elif fingerprint is not None:
        raise CheckpointError(
            f"cache entry {path} carries an event fingerprint but no "
            "event log"
        )
    return payload

