"""Per-slot runtime invariant monitor (checked mode).

The WCL guarantees of Theorems 4.7/4.8 rest on model invariants that the
simulator historically verified only *after* a run completed
(``Simulator.run`` → ``check_inclusivity``).  A violation detected then
tells you the run was bad; it does not tell you *which slot* broke the
model.  This module registers a monitor on the slot engine's post-slot
hook so every invariant is re-verified after every bus slot, and a
failure raises :class:`~repro.common.errors.InvariantViolation` naming
the invariant, the slot, the core and the set involved.

The monitored invariants:

``slot-sequence``
    Slots are processed exactly once, in order (no dropped or repeated
    TDM slot).
``slot-accounting``
    Each processed slot produced exactly one arbitration outcome —
    request, write-back or idle — across all cores (the PRB/PWB mutual
    exclusion of Section 3's per-slot arbitration), and never idle when
    its owner's request is on the bus.
``llc-consistency``
    The LLC's storage, indexes and entry lifecycle agree
    (:meth:`~repro.llc.llc.PartitionedLlc.validate`).
``inclusivity``
    Every privately cached block is ``VALID`` in the LLC or has its
    write-back in flight (the inclusive property of Section 3).
``pending-evict-accounting``
    Every writer a ``PENDING_EVICT`` entry waits for actually has that
    write-back queued in its PWB — the entry can eventually free.
``one-outstanding-request``
    A core is blocked iff its PRB holds its (single, uncompleted)
    request (the one-outstanding-request assumption of Section 3).
``sequencer-fifo``
    Every core queued in a set sequencer has an outstanding request
    folding to the queued set (SS allocates head-only, Section 4.5).
``partition-routing``
    No outstanding request or queued write-back targets a block resident
    in a *different* partition's region (the disjoint-address-ranges
    contract of the paper's evaluation; a mutated trace breaks this).
``latency-bound``
    Every completed request's bus latency sits within its core's
    analytical WCL (Theorems 4.7/4.8 or the private bound), plus the
    Theorem 4.8 own-write-back allowance, checked the slot the response
    arrives.

Use :func:`standard_invariants` /
:meth:`InvariantMonitor.install_checked` for the full set, or build an
:class:`InvariantMonitor` from any subset.  ``SystemConfig(checked=True)``
(or ``repro-llc fig7 --checked``) wires this up automatically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.verification import derive_core_bounds
from repro.common.errors import InvariantViolation
from repro.common.types import CoreId, Cycle, SlotIndex

if TYPE_CHECKING:
    from repro.sim.engine import SlotEngine


class Invariant:
    """One pluggable per-slot check.

    Subclasses set :attr:`name` and implement :meth:`check`, raising
    :class:`InvariantViolation` (with ``invariant=self.name`` and as
    much slot/core/set context as they have) on failure.  Instances may
    keep cross-slot state (e.g. the expected next slot index); a monitor
    therefore owns its invariant instances and must not share them
    between engines.
    """

    #: Stable identifier, used in violation messages and tests.
    name: str = "invariant"

    def check(self, engine: "SlotEngine", slot: SlotIndex) -> None:
        """Verify the invariant after ``slot`` was processed."""
        raise NotImplementedError

    def violation(
        self,
        message: str,
        slot: Optional[SlotIndex] = None,
        core: Optional[CoreId] = None,
        set_index: Optional[int] = None,
    ) -> InvariantViolation:
        """Build a violation carrying this invariant's name."""
        return InvariantViolation(
            self.name, message, slot=slot, core=core, set_index=set_index
        )


class SlotSequenceInvariant(Invariant):
    """Slots are observed exactly once, in strictly increasing order."""

    name = "slot-sequence"

    def __init__(self) -> None:
        self._expected: Optional[SlotIndex] = None

    def check(self, engine: "SlotEngine", slot: SlotIndex) -> None:
        if self._expected is not None and slot != self._expected:
            expected = self._expected
            self._expected = slot + 1
            if slot > expected:
                dropped = list(range(expected, slot))
                raise self.violation(
                    f"slot(s) {dropped} never processed (TDM slot dropped); "
                    f"expected slot {expected}, observed {slot}",
                    slot=slot,
                    core=engine.schedule.owner_of_slot(slot),
                )
            raise self.violation(
                f"slot {slot} observed again after slot {expected - 1} "
                "(TDM slot duplicated or clock moved backwards)",
                slot=slot,
                core=engine.schedule.owner_of_slot(slot),
            )
        self._expected = slot + 1


class SlotAccountingInvariant(Invariant):
    """Each slot produced exactly one arbitration outcome system-wide.

    The owner of a slot arbitrates PRB vs PWB and performs *at most one*
    bus transaction (or passes idle); the per-core slot-usage counters
    must therefore sum to exactly the number of slots processed.  A
    duplicated transaction (the same TDM slot served twice) or a slot
    whose arbitration never ran shows up as a count mismatch.  An owner
    idling with its request on the bus is flagged too (it would break
    :func:`~repro.analysis.verification.own_writebacks`).
    """

    name = "slot-accounting"

    def __init__(self) -> None:
        self._slots_seen = self._idle_seen = 0

    def seed(self, engine: "SlotEngine") -> None:
        """Adopt ``engine``'s slot-usage totals as the slots seen."""
        usages = engine._slot_usage.values()
        self._idle_seen = sum(usage["idle"] for usage in usages)
        self._slots_seen = self._idle_seen + sum(
            usage["request"] + usage["writeback"] for usage in usages
        )

    def check(self, engine: "SlotEngine", slot: SlotIndex) -> None:
        expected, idle_before = self._slots_seen + 1, self._idle_seen
        self.seed(engine)
        total, owner = self._slots_seen, engine.schedule.owner_of_slot(slot)
        if total != expected:
            kind = "extra transaction" if total > expected else "lost slot"
            raise self.violation(
                f"{total} arbitration outcomes recorded over "
                f"{expected} processed slots ({kind}); the slot "
                "owner must perform at most one bus transaction per slot",
                slot=slot,
                core=owner,
            )
        request = engine.system.prbs[owner].entry
        on_bus = request is not None and request.first_on_bus_at is not None
        if on_bus and self._idle_seen > idle_before:
            raise self.violation(
                f"core {owner} idles with its request for block "
                f"{request.block:#x} on the bus",
                slot=slot,
                core=owner,
            )


class LlcConsistencyInvariant(Invariant):
    """The LLC's entries, indexes and lifecycle states agree.

    ``sets`` restricts the per-slot scan (see
    :meth:`~repro.llc.llc.PartitionedLlc.validate`); the standard
    monitor passes the partition-covered sets — the only rows a line can
    ever occupy — so the check stays O(resident lines), not O(geometry),
    per slot.
    """

    name = "llc-consistency"

    def __init__(self, sets: Optional[Sequence[int]] = None) -> None:
        self._sets: Optional[Tuple[int, ...]] = (
            tuple(sets) if sets is not None else None
        )

    def check(self, engine: "SlotEngine", slot: SlotIndex) -> None:
        from repro.common.errors import SimulationError

        try:
            engine.system.llc.validate(sets=self._sets)
        except InvariantViolation:
            raise
        except SimulationError as exc:
            raise self.violation(str(exc), slot=slot) from exc


class InclusivityInvariant(Invariant):
    """Every privately cached block is VALID in the LLC or write-back-bound."""

    name = "inclusivity"

    def check(self, engine: "SlotEngine", slot: SlotIndex) -> None:
        system = engine.system
        llc = system.llc
        for core_id, stack in system.stacks.items():
            pwb_blocks = None
            for block in stack.resident_blocks():
                if llc.valid_entry(block) is not None:
                    continue
                if pwb_blocks is None:
                    pwb_blocks = set(system.pwbs[core_id].blocks())
                if block in pwb_blocks:
                    continue
                raise self.violation(
                    f"core {core_id} caches block {block:#x} which is not "
                    "VALID in the LLC and has no write-back in flight",
                    slot=slot,
                    core=core_id,
                    set_index=llc.fold(core_id, block),
                )


class PendingEvictAccountingInvariant(Invariant):
    """PENDING_EVICT writers each hold the matching write-back in their PWB.

    ``begin_eviction`` parks one write-back per dirty private owner; the
    entry frees only when the last of them arrives.  If a writer's PWB
    no longer contains the block (a dropped write-back), the entry can
    never free and every requester queued on the set starves.
    """

    name = "pending-evict-accounting"

    def check(self, engine: "SlotEngine", slot: SlotIndex) -> None:
        system = engine.system
        pwb_blocks: Dict[CoreId, FrozenSet[int]] = {}
        for entry in system.llc.pending_entries():
            for writer in entry.pending_writers:
                blocks = pwb_blocks.get(writer)
                if blocks is None:
                    blocks = frozenset(system.pwbs[writer].blocks())
                    pwb_blocks[writer] = blocks
                if entry.block not in blocks:
                    raise self.violation(
                        f"entry at set {entry.set_index} way {entry.way} "
                        f"(block {entry.block:#x}) awaits a write-back from "
                        f"core {writer} which has none in flight",
                        slot=slot,
                        core=writer,
                        set_index=entry.set_index,
                    )


class OneOutstandingRequestInvariant(Invariant):
    """A core is blocked iff its PRB holds its single uncompleted request."""

    name = "one-outstanding-request"

    def check(self, engine: "SlotEngine", slot: SlotIndex) -> None:
        system = engine.system
        for core_id, core in system.cores.items():
            request = system.prbs[core_id].entry
            if request is None:
                if core.blocked:
                    raise self.violation(
                        f"core {core_id} is blocked on an LLC response but "
                        "its PRB is empty (lost request)",
                        slot=slot,
                        core=core_id,
                    )
                continue
            if not core.blocked:
                raise self.violation(
                    f"core {core_id} has a request for block "
                    f"{request.block:#x} outstanding but is "
                    f"{core.state.value}, not blocked (a second request "
                    "could issue)",
                    slot=slot,
                    core=core_id,
                )
            if request.core != core_id:
                raise self.violation(
                    f"core {core_id}'s PRB holds a request belonging to "
                    f"core {request.core}",
                    slot=slot,
                    core=core_id,
                )
            if request.completed_at is not None:
                raise self.violation(
                    f"core {core_id}'s PRB holds a request for block "
                    f"{request.block:#x} already completed at cycle "
                    f"{request.completed_at}",
                    slot=slot,
                    core=core_id,
                )


class SequencerConsistencyInvariant(Invariant):
    """Queued sequencer cores have outstanding requests on the queued set."""

    name = "sequencer-fifo"

    def check(self, engine: "SlotEngine", slot: SlotIndex) -> None:
        system = engine.system
        for name, sequencer in system.sequencers.items():
            for core_id, set_index in sequencer._queued_set.items():
                request = system.prbs[core_id].entry
                if request is None:
                    raise self.violation(
                        f"sequencer {name!r} queues core {core_id} on set "
                        f"{set_index} but the core has no outstanding request",
                        slot=slot,
                        core=core_id,
                        set_index=set_index,
                    )
                actual = system.llc.fold(core_id, request.block)
                if actual != set_index:
                    raise self.violation(
                        f"sequencer {name!r} queues core {core_id} on set "
                        f"{set_index} but its request for block "
                        f"{request.block:#x} folds to set {actual} "
                        "(FIFO order no longer matches broadcast order)",
                        slot=slot,
                        core=core_id,
                        set_index=set_index,
                    )


class PartitionRoutingInvariant(Invariant):
    """Requests and write-backs stay inside their core's partition region.

    The paper's evaluation keeps per-partition address ranges disjoint;
    a request for a block resident in *another* partition's region would
    make the block resident twice.  A mutated or corrupted trace is the
    canonical way to end up here.
    """

    name = "partition-routing"

    def __init__(self, system) -> None:
        # Per core: (sets, ways) of its partition region, precomputed —
        # partitions are immutable for the lifetime of a system.
        self._regions: Dict[CoreId, Tuple[FrozenSet[int], FrozenSet[int]]] = {}
        for core_id in system.cores:
            partition = system.llc.partition_of(core_id)
            self._regions[core_id] = (
                frozenset(partition.sets),
                frozenset(partition.ways()),
            )

    def _foreign(self, core: CoreId, entry) -> bool:
        sets, ways = self._regions[core]
        return entry.set_index not in sets or entry.way not in ways

    def check(self, engine: "SlotEngine", slot: SlotIndex) -> None:
        system = engine.system
        llc = system.llc
        for core_id in system.cores:
            request = system.prbs[core_id].entry
            if request is None:
                continue
            resident = llc.valid_entry(request.block) or llc.pending_entry(
                request.block
            )
            if resident is not None and self._foreign(core_id, resident):
                raise self.violation(
                    f"core {core_id} requests block {request.block:#x} "
                    f"which is resident at set {resident.set_index} way "
                    f"{resident.way} outside the core's partition "
                    "(disjoint-address-range contract broken — mutated "
                    "trace?)",
                    slot=slot,
                    core=core_id,
                    set_index=resident.set_index,
                )


class LatencyBoundInvariant(Invariant):
    """Completed requests respect their core's analytical WCL.

    Each request is judged by the one bound rule,
    :meth:`~repro.analysis.verification.CoreBound.violation`, the slot
    its response arrives, so a violating request is reported at its
    completion slot rather than after the run.
    """

    name = "latency-bound"

    def __init__(self, config) -> None:
        self._bounds = derive_core_bounds(config)
        self._checked = 0

    def check(self, engine: "SlotEngine", slot: SlotIndex) -> None:
        completed, schedule = engine._completed, engine.system.schedule
        for request in completed[self._checked:]:
            self._checked += 1
            violation = self._bounds[request.core].violation(request, schedule)
            if violation is not None:
                raise self.violation(
                    str(violation),
                    slot=slot,
                    core=request.core,
                    set_index=engine.system.llc.fold(
                        request.core, request.block
                    ),
                )


def standard_invariants(system) -> List[Invariant]:
    """The full checked-mode invariant set for ``system``, in check order.

    Cheap structural checks run first so a single corrupted transition
    is reported by the most specific invariant.
    """
    covered_sets = sorted(
        {s for partition in system.config.partitions for s in partition.sets}
    )
    return [
        SlotSequenceInvariant(),
        SlotAccountingInvariant(),
        LlcConsistencyInvariant(sets=covered_sets),
        InclusivityInvariant(),
        PendingEvictAccountingInvariant(),
        OneOutstandingRequestInvariant(),
        SequencerConsistencyInvariant(),
        PartitionRoutingInvariant(system),
        LatencyBoundInvariant(system.config),
    ]


class InvariantMonitor:
    """Runs a set of invariants on every processed slot.

    Attach with :meth:`install`; the monitor hooks the engine's
    post-slot callback and re-raises the first violation.  One monitor
    serves one engine (several invariants keep per-run state).
    """

    def __init__(self, invariants: Sequence[Invariant]) -> None:
        self.invariants: List[Invariant] = list(invariants)
        #: Total individual invariant checks executed (for tests and
        #: overhead accounting).
        self.checks_run = 0
        #: The first violation observed, kept for post-mortem access
        #: even though it also propagates out of ``engine.run``.
        self.first_violation: Optional[InvariantViolation] = None

    @classmethod
    def install_checked(cls, engine: "SlotEngine") -> "InvariantMonitor":
        """Build the standard monitor for ``engine`` and install it."""
        monitor = cls(standard_invariants(engine.system))
        monitor.install(engine)
        return monitor

    def install(self, engine: "SlotEngine") -> "InvariantMonitor":
        """Register this monitor on ``engine``'s post-slot hook."""
        engine.add_post_slot_hook(self.on_slot)
        return self

    def seed_resume(self, engine: "SlotEngine") -> None:
        """Re-seed per-run invariant state after a checkpoint restore.

        The stateful invariants track *their own* view of progress
        (slots seen, completed requests already bounded) and would
        false-trip if a freshly built monitor observed a mid-run engine.
        The correct seeds are all derivable from the restored engine
        state, so checkpoints do not serialize monitor internals; the
        restore path calls this instead.
        """
        for invariant in self.invariants:
            if isinstance(invariant, SlotAccountingInvariant):
                invariant.seed(engine)
            elif isinstance(invariant, LatencyBoundInvariant):
                invariant._checked = len(engine._completed)
            elif isinstance(invariant, SlotSequenceInvariant):
                # Self-heals from None at the next processed slot.
                invariant._expected = None

    def on_slot(
        self, engine: "SlotEngine", slot: SlotIndex, slot_start: Cycle
    ) -> None:
        """Post-slot hook: run every invariant against the fresh state."""
        for invariant in self.invariants:
            self.checks_run += 1
            try:
                invariant.check(engine, slot)
            except InvariantViolation as violation:
                if self.first_violation is None:
                    self.first_violation = violation
                raise
