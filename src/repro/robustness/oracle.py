"""Differential oracle: an independent referee for simulation runs.

The main engine is optimised around incremental state (indexes, folded
sets, per-slot dispatch).  This module deliberately is not: it rebuilds
what *must* have happened from first principles — the TDM schedule, a
dumb cell-by-cell LLC content model, FIFO sequencer queues and plain
per-request arithmetic — by replaying the run's recorded event stream,
and reports every place where the engine's story is inconsistent with
the paper's semantics or with its own report.  Dumb and O(n²)-ish on
purpose: the oracle's value is that it shares no code path (and
therefore no bug) with the machinery it checks.

Checks performed by :func:`check_run`:

``slot-accounting``
    Every bus slot in ``[0, total_slots)`` carries *exactly one* owner
    action (idle, request broadcast, or write-back) — a dropped TDM slot
    leaves a hole, a duplicated grant doubles up — and an owner whose
    request is on the bus (broadcast, not yet answered) never idles.
``slot-ownership``
    Every slot-owner action is attributed to the core the TDM schedule
    grants that slot to.
``slot-timing``
    Bus actions happen at their slot's start cycle; responses land
    within the slot (Lemma 4.4's completion rule).
``llc-contents``
    A replayed free/valid/pending cell model: hits must touch resident
    blocks, allocations must land in free cells, evictions and frees
    must match the lifecycle.  Spurious evictions and corrupted line
    states surface here when the engine reuses a cell the oracle still
    considers occupied.
``sequencer-fifo``
    Under SS, a free entry may only be claimed by the head of the set's
    FIFO (Section 4.5), replayed from registration events.
``request-accounting``
    Per-request (first broadcast, completion, attempts) re-derived from
    the event stream must equal the engine's :class:`RequestRecord`\\ s.
``response-latency``
    Each response follows a hit/allocation in the same slot, exactly
    ``llc_hit_latency``/``llc_miss_latency`` cycles after slot start.
``analytical-bounds``
    Every completed request is within its core's Theorem 4.7 / 4.8 /
    private limit (:meth:`~repro.analysis.verification.CoreBound.limit`),
    judged by :func:`~repro.analysis.verification.verify_bounds` on the
    records ``request-accounting`` has just matched against the replay.
``completion``
    A run whose every core has a finite analytical bound must not
    starve (Observation 2: 1S-TDM terminates).
``engine-differential``
    When the caller hands over the run's input traces, the whole
    simulation is re-run under the *other* engine (``fast`` ⇄
    ``reference``) and the two reports are compared at exporter-byte
    level — the fast engine's idle-slot jumps must be invisible in
    every exported number, and ``slot_usage``/``total_slots`` must
    match exactly.  Skipped when no traces are given (a fault-injected
    run is not re-runnable: hooks force the reference path, and the
    second run would not see the faults).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.verification import derive_core_bounds, verify_bounds
from repro.common.errors import FuzzError, ReproError
from repro.common.types import CoreId, Cycle
from repro.sim.config import SystemConfig
from repro.sim.events import EventKind, SimEvent
from repro.sim.report import SimReport
from repro.workloads.trace import MemoryTrace

#: The three mutually-exclusive actions a slot's owner can take.  The
#: engine emits exactly one of them per processed slot, which is what
#: makes dropped/duplicated slots observable from the stream alone.
_OWNER_ACTIONS = (EventKind.SLOT_IDLE, EventKind.REQ_BROADCAST, EventKind.WB_SENT)

#: Kinds attributed to the slot's owner (the core holding the bus).
#: BACK_INVALIDATE carries the *invalidated* core and CORE_DONE fires
#: whenever a trace drains, so neither belongs here.
_OWNER_ATTRIBUTED = _OWNER_ACTIONS + (
    EventKind.LLC_HIT,
    EventKind.LLC_ALLOC,
    EventKind.EVICT_START,
    EventKind.SEQ_REGISTER,
    EventKind.SEQ_BLOCKED,
    EventKind.BLOCKED_FULL,
    EventKind.RESPONSE,
)

#: All checks :func:`check_run` performs, in report order.
ORACLE_CHECKS = (
    "slot-accounting",
    "slot-ownership",
    "slot-timing",
    "llc-contents",
    "sequencer-fifo",
    "request-accounting",
    "response-latency",
    "analytical-bounds",
    "completion",
    "engine-differential",
)


@dataclass(frozen=True)
class OracleViolation:
    """One disagreement between the oracle's replay and the engine."""

    check: str
    detail: str
    slot: Optional[int] = None
    core: Optional[CoreId] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (stable keys for repro artifacts)."""
        return {
            "check": self.check,
            "detail": self.detail,
            "slot": self.slot,
            "core": self.core,
        }


@dataclass
class OracleReport:
    """Everything one :func:`check_run` replay concluded."""

    violations: List[OracleViolation]
    events_checked: int
    requests_checked: int

    @property
    def passed(self) -> bool:
        """Whether the engine's run survived every oracle check."""
        return not self.violations

    def checks_failed(self) -> Tuple[str, ...]:
        """Distinct failing check names, sorted (the failure signature)."""
        return tuple(sorted({v.check for v in self.violations}))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary."""
        return {
            "passed": self.passed,
            "events_checked": self.events_checked,
            "requests_checked": self.requests_checked,
            "violations": [v.to_dict() for v in self.violations],
        }

    def summary(self) -> str:
        """One line per violation (empty string when passed)."""
        return "\n".join(
            f"{v.check}: {v.detail}"
            + (f" (slot {v.slot})" if v.slot is not None else "")
            for v in self.violations
        )


class _LlcModel:
    """The oracle's dumb cell model: free → valid → pending → free.

    Tracks only what the event stream lets it know; every transition the
    engine reports is checked against the lifecycle of Figures 2–4.
    """

    def __init__(self, out: List[OracleViolation]) -> None:
        self._out = out
        #: (set, way) → ("valid" | "pending", block)
        self.cells: Dict[Tuple[int, int], Tuple[str, int]] = {}
        #: block → (set, way) for VALID blocks
        self.resident: Dict[int, Tuple[int, int]] = {}
        #: block → (set, way) for PENDING_EVICT blocks
        self.pending: Dict[int, Tuple[int, int]] = {}

    def _flag(self, event: SimEvent, detail: str) -> None:
        self._out.append(
            OracleViolation(
                check="llc-contents",
                detail=detail,
                slot=event.slot,
                core=event.core,
            )
        )

    def on_alloc(self, event: SimEvent) -> None:
        cell = (event.set_index, event.way)
        block = event.block
        occupant = self.cells.get(cell)
        if occupant is not None:
            self._flag(
                event,
                f"allocation of block {block:#x} into set {cell[0]} way "
                f"{cell[1]} which still holds {occupant[0]} block "
                f"{occupant[1]:#x}",
            )
        if block in self.resident:
            self._flag(event, f"block {block:#x} allocated while already VALID")
        if block in self.pending:
            self._flag(
                event, f"block {block:#x} allocated while PENDING_EVICT"
            )
        self.cells[cell] = ("valid", block)
        self.resident[block] = cell

    def on_hit(self, event: SimEvent) -> None:
        cell = (event.set_index, event.way)
        block = event.block
        if self.resident.get(block) != cell:
            where = self.resident.get(block)
            self._flag(
                event,
                f"hit on block {block:#x} at set {cell[0]} way {cell[1]} "
                f"but the oracle has it "
                + (f"at set {where[0]} way {where[1]}" if where else "not resident"),
            )

    def on_evict_start(self, event: SimEvent) -> None:
        cell = (event.set_index, event.way)
        block = event.block
        if self.resident.get(block) != cell:
            self._flag(
                event,
                f"eviction of block {block:#x} from set {cell[0]} way "
                f"{cell[1]} which the oracle does not have resident there",
            )
        self.resident.pop(block, None)
        self.cells[cell] = ("pending", block)
        self.pending[block] = cell

    def on_entry_freed(self, event: SimEvent) -> None:
        cell = (event.set_index, event.way)
        occupant = self.cells.get(cell)
        if occupant is None or occupant[0] != "pending":
            self._flag(
                event,
                f"set {cell[0]} way {cell[1]} freed but the oracle has it "
                + ("free" if occupant is None else f"{occupant[0]}"),
            )
        if occupant is not None:
            self.pending.pop(occupant[1], None)
        self.cells.pop(cell, None)

    def on_blocked_pending(self, event: SimEvent) -> None:
        if event.block not in self.pending:
            self._flag(
                event,
                f"core {event.core} blocked on own block {event.block:#x} "
                "pending eviction, but the oracle has no such pending entry",
            )


def _check_sequenced(
    events: List[SimEvent],
    config: SystemConfig,
    out: List[OracleViolation],
) -> None:
    """Replay the per-set FIFOs and enforce head-only claims."""
    partition_map = config.build_partition_map()
    sequenced: Set[CoreId] = {
        core
        for core in range(config.num_cores)
        if partition_map.partition_of(core).sequencer
    }
    if not sequenced:
        return
    queues: Dict[int, List[CoreId]] = {}

    def remove_everywhere(core: CoreId) -> None:
        for queue in queues.values():
            if core in queue:
                queue.remove(core)

    register, blocked = EventKind.SEQ_REGISTER, EventKind.SEQ_BLOCKED
    blocked_full = EventKind.BLOCKED_FULL
    alloc, hit = EventKind.LLC_ALLOC, EventKind.LLC_HIT
    for event in events:
        core = event.core
        if core not in sequenced:
            continue
        kind = event.kind
        if kind is register or (
            kind is blocked_full and event.detail == "own-block-pending-evict"
        ):
            queue = queues.setdefault(event.set_index, [])
            if core not in queue:
                queue.append(core)
        elif kind is blocked:
            queue = queues.get(event.set_index, [])
            if queue and queue[0] == core:
                out.append(
                    OracleViolation(
                        check="sequencer-fifo",
                        detail=(
                            f"core {core} reported sequencer-blocked on set "
                            f"{event.set_index} although the oracle has it "
                            "at the head of the FIFO"
                        ),
                        slot=event.slot,
                        core=core,
                    )
                )
        elif kind is alloc:
            queue = queues.get(event.set_index, [])
            if core in queue and queue[0] != core:
                out.append(
                    OracleViolation(
                        check="sequencer-fifo",
                        detail=(
                            f"core {core} claimed a free entry of set "
                            f"{event.set_index} ahead of FIFO head "
                            f"{queue[0]} (queue {queue})"
                        ),
                        slot=event.slot,
                        core=core,
                    )
                )
            remove_everywhere(core)
        elif kind is hit:
            # A sharer fetched the line while this core was queued: the
            # engine cancels the registration.
            remove_everywhere(core)


def _check_requests(
    events: List[SimEvent],
    report: SimReport,
    config: SystemConfig,
    out: List[OracleViolation],
) -> int:
    """Re-derive per-request timing from the stream; compare records."""
    derived: Dict[CoreId, List[Tuple[int, int, int]]] = {}
    in_flight: Dict[CoreId, Tuple[int, int]] = {}  # first broadcast, attempts
    service: Dict[CoreId, Tuple[EventKind, int, int]] = {}  # kind, slot, cycle
    width = config.slot_width
    broadcast, response = EventKind.REQ_BROADCAST, EventKind.RESPONSE
    hit, alloc, idle = EventKind.LLC_HIT, EventKind.LLC_ALLOC, EventKind.SLOT_IDLE
    for event in events:
        core = event.core
        kind = event.kind
        if kind is broadcast:
            first, attempts = in_flight.get(core, (event.cycle, 0))
            in_flight[core] = (first, attempts + 1)
        elif kind is idle and core in in_flight:  # own_writebacks' premise
            detail = f"core {core} idles with its request on the bus"
            out.append(OracleViolation("slot-accounting", detail, event.slot, core))
        elif kind is hit or kind is alloc:
            service[core] = (kind, event.slot, event.cycle)
        elif kind is response:
            if core not in in_flight:
                out.append(
                    OracleViolation(
                        check="request-accounting",
                        detail=f"response for core {core} without a broadcast",
                        slot=event.slot,
                        core=core,
                    )
                )
            else:
                first, attempts = in_flight.pop(core)
                derived.setdefault(core, []).append(
                    (first, event.cycle, attempts)
                )
            served = service.pop(core, None)
            if served is None or served[1] != event.slot:
                out.append(
                    OracleViolation(
                        check="response-latency",
                        detail=(
                            f"response for core {core} without a hit or "
                            "allocation in the same slot"
                        ),
                        slot=event.slot,
                        core=core,
                    )
                )
            else:
                served_kind, slot, cycle = served
                latency = (
                    config.llc_hit_latency
                    if served_kind is hit
                    else config.llc_miss_latency
                )
                expected = slot * width + latency
                if event.cycle != expected:
                    out.append(
                        OracleViolation(
                            check="response-latency",
                            detail=(
                                f"core {core} response at cycle {event.cycle}"
                                f", expected {expected} ({served_kind.value} + "
                                f"{latency})"
                            ),
                            slot=event.slot,
                            core=core,
                        )
                    )

    checked = 0
    for core in range(config.num_cores):
        recorded = [
            (r.first_on_bus_at, r.completed_at, r.bus_attempts)
            for r in report.requests
            if r.core == core
        ]
        replayed = derived.get(core, [])
        checked += len(recorded)
        if recorded != replayed:
            out.append(
                OracleViolation(
                    check="request-accounting",
                    detail=(
                        f"core {core}: report records {len(recorded)} "
                        f"request(s) {recorded[:4]}… but the event stream "
                        f"replays {len(replayed)}: {replayed[:4]}…"
                        if len(recorded) > 4 or len(replayed) > 4
                        else f"core {core}: report records {recorded} but "
                        f"the event stream replays {replayed}"
                    ),
                    core=core,
                )
            )
    return checked


def _check_engine_differential(
    report: SimReport,
    config: SystemConfig,
    traces: Mapping[CoreId, MemoryTrace],
    start_cycles: Optional[Mapping[CoreId, Cycle]],
    out: List[OracleViolation],
) -> None:
    """Re-run the whole simulation under the fast engine and diff reports.

    The recorded run replays events (recording forces the engine's
    reference per-slot loop), so re-running the same inputs with
    ``engine="fast"`` and all observers off is a true differential:
    the idle-slot fast-forward path against the slot-by-slot loop.
    The comparison is at exporter-byte level — the exact JSON bytes
    :func:`repro.sim.export.report_to_dict` serialises to — plus the
    ``slot_usage`` and ``total_slots`` the exporter leaves out.  A
    crash in the re-run (:class:`~repro.common.errors.ReproError`) is
    itself a violation: the fast engine must accept every input the
    reference engine accepts.
    """
    # Imported lazily: the simulator facade pulls in the robustness
    # invariant monitor, which would cycle back into this package.
    from repro.sim.export import report_to_dict
    from repro.sim.simulator import Simulator

    fast_config = dataclasses.replace(
        config,
        engine="fast",
        record_events=False,
        record_metrics=False,
        checked=False,
    )
    try:
        fast_report = Simulator(fast_config, traces, start_cycles).run()
    except ReproError as exc:
        out.append(
            OracleViolation(
                check="engine-differential",
                detail=f"fast-engine re-run crashed: {type(exc).__name__}: {exc}",
            )
        )
        return
    reference_bytes = json.dumps(report_to_dict(report), sort_keys=True)
    fast_bytes = json.dumps(report_to_dict(fast_report), sort_keys=True)
    if reference_bytes != fast_bytes:
        out.append(
            OracleViolation(
                check="engine-differential",
                detail=(
                    "fast-engine report diverges from the reference run at "
                    f"exporter-byte level: reference {reference_bytes[:160]}… "
                    f"vs fast {fast_bytes[:160]}…"
                    if len(reference_bytes) > 160 or len(fast_bytes) > 160
                    else "fast-engine report diverges from the reference "
                    f"run: reference {reference_bytes} vs fast {fast_bytes}"
                ),
            )
        )
    if fast_report.slot_usage != report.slot_usage:
        out.append(
            OracleViolation(
                check="engine-differential",
                detail=(
                    "fast-engine slot_usage diverges from the reference "
                    f"run: reference {report.slot_usage} vs fast "
                    f"{fast_report.slot_usage}"
                ),
            )
        )
    if fast_report.total_slots != report.total_slots:
        out.append(
            OracleViolation(
                check="engine-differential",
                detail=(
                    f"fast-engine ran {fast_report.total_slots} slot(s), "
                    f"reference ran {report.total_slots}"
                ),
            )
        )


def check_run(
    report: SimReport,
    config: SystemConfig,
    traces: Optional[Mapping[CoreId, MemoryTrace]] = None,
    start_cycles: Optional[Mapping[CoreId, Cycle]] = None,
) -> OracleReport:
    """Replay ``report``'s event stream against the reference model.

    The run must have been recorded with ``record_events=True`` — the
    oracle has nothing to replay otherwise and raises
    :class:`~repro.common.errors.FuzzError`.

    When ``traces`` is given (the exact input traces ``report`` was run
    with, plus ``start_cycles`` if the run used them), the
    ``engine-differential`` check additionally re-runs the simulation
    under the fast engine and diffs the two reports byte-for-byte; see
    :func:`_check_engine_differential`.  Leave ``traces`` as ``None``
    for runs that are not cleanly re-runnable (e.g. fault injection).
    """
    if not report.events.enabled and report.total_slots > 0:
        raise FuzzError(
            "the oracle replays the event stream; run the simulation with "
            "record_events=True"
        )
    events = report.events.all()
    out: List[OracleViolation] = []
    schedule = config.build_schedule()

    # -- slot accounting / ownership / timing --------------------------
    # The schedule's table, not owner_of_slot/slot_start/slot_end: the
    # engine never records a negative slot, so their argument checks
    # would only cost a call per event.
    owners = schedule.slot_owners
    period = len(owners)
    width = schedule.slot_width
    core_done = EventKind.CORE_DONE
    response = EventKind.RESPONSE
    actions_per_slot: Dict[int, int] = {}
    for event in events:
        cycle, slot, kind, core = event.cycle, event.slot, event.kind, event.core
        if kind in _OWNER_ACTIONS:
            actions_per_slot[slot] = actions_per_slot.get(slot, 0) + 1
        if kind in _OWNER_ATTRIBUTED:
            owner = owners[slot % period]
            if core != owner:
                out.append(
                    OracleViolation(
                        check="slot-ownership",
                        detail=(
                            f"{kind.value} by core {core} in "
                            f"slot {slot}, owned by core {owner}"
                        ),
                        slot=slot,
                        core=core,
                    )
                )
        if kind is core_done:
            continue
        slot_start = slot * width
        if kind is response:
            if not slot_start <= cycle <= slot_start + width:
                out.append(
                    OracleViolation(
                        check="slot-timing",
                        detail=(
                            f"response at cycle {cycle} outside slot "
                            f"{slot} [{slot_start}, {slot_start + width}]"
                        ),
                        slot=slot,
                        core=core,
                    )
                )
        elif cycle != slot_start:
            out.append(
                OracleViolation(
                    check="slot-timing",
                    detail=(
                        f"{kind.value} at cycle {cycle}, but "
                        f"slot {slot} starts at {slot_start}"
                    ),
                    slot=slot,
                    core=core,
                )
            )
    for slot in range(report.total_slots):
        count = actions_per_slot.get(slot, 0)
        if count != 1:
            out.append(
                OracleViolation(
                    check="slot-accounting",
                    detail=(
                        f"slot {slot} carries {count} owner action(s); the "
                        "TDM bus grants exactly one transaction per slot"
                        + (" (dropped slot?)" if count == 0 else
                           " (duplicated grant?)")
                    ),
                    slot=slot,
                )
            )
    for slot in actions_per_slot:
        if slot >= report.total_slots:
            out.append(
                OracleViolation(
                    check="slot-accounting",
                    detail=(
                        f"owner action in slot {slot} beyond the reported "
                        f"{report.total_slots} total slots"
                    ),
                    slot=slot,
                )
            )

    # -- LLC content model ---------------------------------------------
    model = _LlcModel(out)
    alloc, hit = EventKind.LLC_ALLOC, EventKind.LLC_HIT
    evict_start, entry_freed = EventKind.EVICT_START, EventKind.ENTRY_FREED
    blocked_full = EventKind.BLOCKED_FULL
    for event in events:
        kind = event.kind
        if kind is alloc:
            model.on_alloc(event)
        elif kind is hit:
            model.on_hit(event)
        elif kind is evict_start:
            model.on_evict_start(event)
        elif kind is entry_freed:
            model.on_entry_freed(event)
        elif kind is blocked_full and event.detail == "own-block-pending-evict":
            model.on_blocked_pending(event)

    # -- sequencer FIFO -------------------------------------------------
    _check_sequenced(events, config, out)

    # -- per-request accounting and response latency --------------------
    requests_checked = _check_requests(events, report, config, out)

    # -- analytical bounds (Theorems 4.7 / 4.8 / private) ---------------
    for v in verify_bounds(report, config):
        out.append(OracleViolation("analytical-bounds", str(v), core=v.core))

    # -- fast vs reference engine differential --------------------------
    if traces is not None:
        _check_engine_differential(report, config, traces, start_cycles, out)

    # -- completion under finite bounds ---------------------------------
    if report.timed_out:
        bounds = derive_core_bounds(config)
        if all(bound.cycles is not None for bound in bounds.values()):
            out.append(
                OracleViolation(
                    check="completion",
                    detail=(
                        "run timed out although every core has a finite "
                        f"analytical bound (starved cores: "
                        f"{report.starved_cores()})"
                    ),
                )
            )

    return OracleReport(
        violations=out,
        events_checked=len(events),
        requests_checked=requests_checked,
    )
