"""Deterministic fault injection: prove the invariant monitor fires.

A runtime monitor is only trustworthy if every failure mode it claims to
detect has been *demonstrated* to trip it.  This module injects model
faults — dropped TDM slots, spurious evictions, corrupted LLC entry
states, duplicated slot transactions, mutated traces — at precise slots
of a running simulation, via the engine's pre-slot hook.  Each fault
class maps to at least one invariant of
:mod:`repro.robustness.invariants` that catches it (the mapping is
enforced by ``tests/test_robustness_faults.py``):

================== ==========================================
fault kind          detecting invariant
================== ==========================================
``dropped-slot``    ``slot-sequence``
``duplicated-slot`` ``slot-accounting``
``spurious-evict``  ``inclusivity``
``corrupted-line``  ``llc-consistency``
``trace-mutation``  ``partition-routing`` / ``sequencer-fifo``
================== ==========================================

Fault plans are deterministic: a :class:`FaultSpec` names the slot (and,
where relevant, core / set / block) at which the corruption lands, so a
failing detection test replays exactly.  Injectors deliberately reach
into component internals — that is the point: they model hardware upsets
and software bugs that bypass the public API's own guards.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import BlockAddress, CoreId, SlotIndex
from repro.common.validation import require
from repro.workloads.trace import TraceRecord

if TYPE_CHECKING:
    from repro.sim.engine import SlotEngine


class FaultKind(enum.Enum):
    """The injectable fault classes."""

    #: The engine's slot counter jumps past a slot: the owner's TDM slot
    #: never happens (a lost bus grant).
    DROPPED_SLOT = "dropped-slot"
    #: The owner's slot transaction is performed twice within one slot
    #: (a duplicated bus grant — arbitration mutual exclusion broken).
    DUPLICATED_SLOT = "duplicated-slot"
    #: A VALID entry with private owners is freed without
    #: back-invalidation, leaving stale private copies (inclusivity
    #: broken).
    SPURIOUS_EVICTION = "spurious-eviction"
    #: A VALID entry's state field is flipped to FREE without clearing
    #: its block or indexes (a corrupted line state word).
    CORRUPTED_LINE_STATE = "corrupted-line-state"
    #: A core's remaining trace — including its in-flight request — is
    #: rewritten to a different block address (trace corruption).
    TRACE_MUTATION = "trace-mutation"


@dataclass(frozen=True)
class FaultSpec:
    """One fault: what to inject, and exactly when and where.

    ``core``/``set_index``/``block`` narrow the target where the kind
    needs one: ``TRACE_MUTATION`` requires ``core`` and ``block``;
    ``SPURIOUS_EVICTION`` and ``CORRUPTED_LINE_STATE`` accept an
    optional ``set_index`` to pick the victim set (first suitable entry
    otherwise).
    """

    kind: FaultKind
    slot: SlotIndex
    core: Optional[CoreId] = None
    set_index: Optional[int] = None
    block: Optional[BlockAddress] = None

    def __post_init__(self) -> None:
        require(
            self.slot >= 0,
            f"fault slot must be non-negative, got {self.slot}",
            ConfigurationError,
        )
        if self.kind is FaultKind.TRACE_MUTATION:
            require(
                self.core is not None and self.block is not None,
                "TRACE_MUTATION needs both core and block",
                ConfigurationError,
            )

    def describe(self) -> str:
        """One-line human-readable form."""
        parts = [f"{self.kind.value}@slot{self.slot}"]
        if self.core is not None:
            parts.append(f"core={self.core}")
        if self.set_index is not None:
            parts.append(f"set={self.set_index}")
        if self.block is not None:
            parts.append(f"block={self.block:#x}")
        return " ".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults for one run."""

    faults: Tuple[FaultSpec, ...]

    @classmethod
    def single(
        cls,
        kind: FaultKind,
        slot: SlotIndex,
        core: Optional[CoreId] = None,
        set_index: Optional[int] = None,
        block: Optional[BlockAddress] = None,
    ) -> "FaultPlan":
        """A plan with one fault (the common test shape)."""
        return cls(
            faults=(
                FaultSpec(
                    kind=kind,
                    slot=slot,
                    core=core,
                    set_index=set_index,
                    block=block,
                ),
            )
        )

    def at_slot(self, slot: SlotIndex) -> List[FaultSpec]:
        """Faults scheduled for ``slot``."""
        return [spec for spec in self.faults if spec.slot == slot]


@dataclass(frozen=True)
class InjectedFault:
    """The record of one fault actually delivered."""

    spec: FaultSpec
    detail: str


class FaultInjector:
    """Delivers a :class:`FaultPlan` through the engine's pre-slot hook.

    Each fault fires once, at the first processed slot ``>= spec.slot``
    (a fault scheduled for a slot the engine never reaches — the run
    finished early — is reported by :meth:`unfired`).  Injection is
    intentionally invasive: injectors mutate private component state to
    model corruption the public API would reject.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.injected: List[InjectedFault] = []
        self._pending: List[FaultSpec] = sorted(
            plan.faults, key=lambda spec: spec.slot
        )

    def install(self, engine: "SlotEngine") -> "FaultInjector":
        """Register on ``engine``'s pre-slot hook."""
        engine.add_pre_slot_hook(self.on_slot)
        return self

    def unfired(self) -> List[FaultSpec]:
        """Faults whose slot was never reached."""
        return list(self._pending)

    def on_slot(self, engine: "SlotEngine", slot: SlotIndex) -> None:
        """Pre-slot hook: deliver every fault due at (or before) ``slot``."""
        while self._pending and self._pending[0].slot <= slot:
            spec = self._pending.pop(0)
            detail = self._inject(engine, spec)
            self.injected.append(InjectedFault(spec=spec, detail=detail))

    # ------------------------------------------------------------------
    # Injectors (one per FaultKind)
    # ------------------------------------------------------------------
    def _inject(self, engine: "SlotEngine", spec: FaultSpec) -> str:
        injector = {
            FaultKind.DROPPED_SLOT: self._inject_dropped_slot,
            FaultKind.DUPLICATED_SLOT: self._inject_duplicated_slot,
            FaultKind.SPURIOUS_EVICTION: self._inject_spurious_eviction,
            FaultKind.CORRUPTED_LINE_STATE: self._inject_corrupted_line,
            FaultKind.TRACE_MUTATION: self._inject_trace_mutation,
        }[spec.kind]
        return injector(engine, spec)

    def _inject_dropped_slot(self, engine: "SlotEngine", spec: FaultSpec) -> str:
        dropped = engine._slot
        # Jump the clock past this slot: its owner's bus grant is lost.
        engine._slot += 1
        return f"slot {dropped} dropped (owner never served)"

    def _inject_duplicated_slot(
        self, engine: "SlotEngine", spec: FaultSpec
    ) -> str:
        slot = engine._slot
        owner = engine.schedule.owner_of_slot(slot)
        slot_start = engine.schedule.slot_start(slot)
        # Serve the owner's slot here, on top of the engine's own
        # service of the same slot: two transactions in one slot.
        engine._do_slot(owner, slot_start)
        return f"slot {slot} served twice for core {owner}"

    def _pick_valid_entry(
        self, engine: "SlotEngine", spec: FaultSpec, need_owners: bool
    ):
        llc = engine.system.llc
        for set_row in range(llc.num_sets):
            if spec.set_index is not None and set_row != spec.set_index:
                continue
            for way in range(llc.num_ways):
                entry = llc.entry(set_row, way)
                if not entry.is_valid:
                    continue
                assert entry.block is not None
                if need_owners and not llc.directory.owners_of(entry.block):
                    continue
                return entry
        raise SimulationError(
            f"fault {spec.describe()}: no suitable VALID entry to corrupt "
            "(schedule the fault later, once the LLC has filled)"
        )

    def _inject_spurious_eviction(
        self, engine: "SlotEngine", spec: FaultSpec
    ) -> str:
        llc = engine.system.llc
        entry = self._pick_valid_entry(engine, spec, need_owners=True)
        block = entry.block
        assert block is not None
        owners = sorted(llc.directory.owners_of(block))
        # Evict without back-invalidating the private copies: the LLC
        # forgets the line while cores still cache it.
        llc.forget_line(block)
        return (
            f"block {block:#x} spuriously evicted from set "
            f"{entry.set_index} way {entry.way}; stale owners {owners}"
        )

    def _inject_corrupted_line(
        self, engine: "SlotEngine", spec: FaultSpec
    ) -> str:
        entry = self._pick_valid_entry(engine, spec, need_owners=False)
        block = entry.block
        assert block is not None
        # Flip only the state word: block, dirty bit, the valid index and
        # the region counters keep describing a VALID line — exactly
        # what a corrupted state encoding looks like.
        entry.state = type(entry.state).FREE
        return (
            f"entry at set {entry.set_index} way {entry.way} state "
            f"corrupted to FREE while holding block {block:#x}"
        )

    def _inject_trace_mutation(
        self, engine: "SlotEngine", spec: FaultSpec
    ) -> str:
        assert spec.core is not None and spec.block is not None
        core = engine.system.cores[spec.core]
        address = spec.block * engine.config.line_size
        remaining = len(core.trace) - core.position
        # Rewrite every not-yet-issued record to the target block…
        core.trace._records[core.position :] = [
            TraceRecord(address, record.access, record.compute_cycles)
            for record in core.trace._records[core.position :]
        ]
        # …and redirect the in-flight request, if any: the corruption
        # hits the address path, not just the stored trace.
        request = engine.system.prbs[spec.core].entry
        redirected = ""
        if request is not None:
            request.block = spec.block
            redirected = "; in-flight request redirected"
        return (
            f"core {spec.core}: {remaining} remaining trace record(s) "
            f"mutated to block {spec.block:#x}{redirected}"
        )


def install_fault_plan(engine: "SlotEngine", plan: FaultPlan) -> FaultInjector:
    """Attach ``plan`` to ``engine``; returns the injector for inspection."""
    return FaultInjector(plan).install(engine)
