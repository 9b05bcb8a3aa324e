"""The slot engine: drives a :class:`~repro.sim.system.System` in TDM slots.

The engine owns the simulation clock.  Each iteration handles one bus
slot:

1. every core's private execution is advanced up to the slot boundary
   (an L2 miss parks a request in that core's PRB and blocks the core);
2. the slot's owner arbitrates PRB vs PWB (round-robin, Section 3) and
   performs at most one bus transaction;
3. the transaction's LLC effects — hit response, allocation, eviction
   with back-invalidation, or write-back delivery — are applied within
   the slot.

The rules the paper's analysis depends on are implemented here and only
here:

* **Inclusive eviction costs a slot.**  A victim cached dirty by some
  core leaves its LLC entry ``PENDING_EVICT`` until that core spends a
  slot on the write-back (Figures 2–4).
* **Completion rule** (Lemma 4.4).  If the owner sends a *request* and a
  usable free entry exists — including one freed in this very slot by a
  clean eviction — the request completes within the slot.
* **One eviction in flight per waiting requester.**  A new victim is
  chosen only while ``free + pending`` entries cannot cover the
  region's broadcast requesters — the Theorem 4.8 worst case, where
  every queued request waits on its own in-flight eviction, without
  ever draining a set further than contention justifies.
* **Sequencer order** (Section 4.5).  Under SS, a free entry may only be
  claimed by the head of the set's FIFO; everyone else's slot passes
  unfulfilled.

Fast-forward.  With ``SystemConfig.engine == "fast"`` the engine skips
stretches of provably idle slots: when the current slot's owner has no
eligible PRB/PWB work, it computes the earliest *actionable* slot — the
next slot at which any core's parked request, queued write-back or
predicted private-stack miss can reach the bus — and jumps there,
accounting the skipped slots' idle ``slot_usage`` analytically.  Idle
slots mutate no model state (the round-robin arbiter is pure on an
empty offer, and nothing touches the LLC, DRAM or sequencers), so the
jump is exact: reports, counters and ``slot_usage`` are bit-identical
to the reference per-slot loop.  Anything that observes or perturbs
individual slots — event recording/streaming, per-slot samplers,
pre/post-slot hooks (fault injection, invariant monitors) — forces the
reference path; see ``docs/MODEL.md`` for the full eligibility rules
and the accounting identity.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.bus.buffers import (
    PendingRequest,
    WritebackEntry,
    WritebackReason,
)
from repro.common.errors import SimulationError
from repro.common.types import CoreId, Cycle, SlotIndex, TransactionKind
from repro.cpu.core import CoreState
from repro.llc.llc import LlcRegion, VictimInfo, WritebackOutcome
from repro.sim.events import EventKind, EventLog, SimEvent
from repro.sim.report import SimReport, build_report
from repro.sim.system import System

# Enum members read per slot, as module constants (cost: see repro.llc.llc).
_WRITE_BACK = TransactionKind.WRITE_BACK
_FREED = WritebackOutcome.FREED
_DRAM_DIRECT = WritebackOutcome.DRAM_DIRECT
_BACK_INVALIDATION = WritebackReason.BACK_INVALIDATION
_CAPACITY = WritebackReason.CAPACITY
_DONE = CoreState.DONE


#: Runs before a slot is processed: ``hook(engine, slot)``.  A hook may
#: mutate engine or system state (fault injection does exactly that).
PreSlotHook = Callable[["SlotEngine", SlotIndex], None]

#: Runs after a slot's transaction landed, before the slot counter
#: advances: ``hook(engine, slot, slot_start)``.  Invariant monitors
#: attach here so a violation is pinned to the slot that caused it.
PostSlotHook = Callable[["SlotEngine", SlotIndex, Cycle], None]


class SlotEngine:
    """Runs one system to completion (or to the slot limit)."""

    def __init__(self, system: System) -> None:
        self.system = system
        self.config = system.config
        self.schedule = system.schedule
        self._slot_width = system.schedule.slot_width
        self.events = EventLog(enabled=self.config.record_events)
        # Event emission sites are guarded with
        # ``self._events_on and self.events.append(SimEvent(...))`` so
        # the (hot-path) SimEvent construction is skipped entirely when
        # recording is off — the log would drop it anyway.  Events are
        # built positionally, in SimEvent's field order (cycle, slot,
        # kind, core, block, set_index, way, detail): a recorded run
        # builds one per action, and keywords cost more than the tuple.
        self._events_on = self.config.record_events
        # Per-slot occupancy sampler; lazily imported so repro.sim has
        # no hard dependency on repro.obs (which imports sim.report).
        self._sampler = None
        if self.config.record_metrics:
            from repro.obs.recorder import SlotSampler

            self._sampler = SlotSampler(system)
        self._completed: List[PendingRequest] = []
        # Each core's set sequencer (None when its partition has none),
        # resolved once instead of per bus request.
        self._sequencers = {core: system.sequencer_for(core) for core in system.cores}
        self._slot: SlotIndex = 0
        self._finished_cores: set[CoreId] = set()
        # Per-core slot usage: how each core spent its bus slots.
        self._slot_usage: dict[CoreId, dict[str, int]] = {
            core: {"idle": 0, "request": 0, "writeback": 0}
            for core in system.cores
        }
        # Hooks are empty in the default configuration; the run loop
        # skips both lists entirely so benchmarks pay nothing for them.
        self._pre_slot_hooks: List[PreSlotHook] = []
        self._post_slot_hooks: List[PostSlotHook] = []
        # Static half of the fast-forward gate.  A "random" replacement
        # policy (private or LLC) draws from the System's shared RNG
        # stream, which the side-effect-free next-miss prediction cannot
        # keep in lock-step with the live replay; everything else that
        # forces the reference loop (events, samplers, hooks) is checked
        # per iteration in run().
        # "oracle" private stacks are also excluded: the victim chooser
        # is a caller-supplied (possibly stateful) callback that would
        # observe the prediction clone's extra calls.
        self._fast_ok = (
            self.config.engine == "fast"
            and self.config.llc_policy != "random"
            and self.config.stack.policy not in ("random", "oracle")
        )
        # Fast-forward backoff.  When the next actionable slot is too
        # close for a jump to pay for its own computation (dense
        # workloads), suppress further attempts for a few slots; the
        # penalty doubles while attempts stay unprofitable and resets on
        # the first long jump.  Skipping attempts is always safe — the
        # reference step handles every slot.
        self._ff_skip = 0
        self._ff_penalty = 0
        # Progress counters backing the O(1) _finished() check (the
        # reference scan is O(cores) per slot, which dominates sparse
        # runs).  Initialised from a full scan at the top of run() —
        # and lazily on first use — then maintained incrementally at
        # the mutating sites (_advance_core, _pwb_push, _do_writeback).
        self._counters_ready = False
        self._done_count = 0
        self._done_seen: set[CoreId] = set()
        self._nonempty_pwbs = 0

    def add_pre_slot_hook(self, hook: PreSlotHook) -> None:
        """Run ``hook(engine, slot)`` before each slot is processed."""
        self._pre_slot_hooks.append(hook)

    def add_post_slot_hook(self, hook: PostSlotHook) -> None:
        """Run ``hook(engine, slot, slot_start)`` after each slot."""
        self._post_slot_hooks.append(hook)

    def attach_event_sink(self, sink: Callable[[SimEvent], None]) -> None:
        """Stream every event to ``sink`` (e.g. a JSONL trace file).

        Turns event *emission* on even when ``record_events`` is false,
        so a long campaign can trace to disk without the in-memory log.
        """
        self.events.attach_sink(sink)
        self._events_on = True

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def run(self, stop_at_slot: Optional[SlotIndex] = None) -> SimReport:
        """Simulate until every trace finishes (and write-backs drain).

        ``stop_at_slot`` pauses the loop once the slot cursor reaches
        (or, under a fast-forward jump, passes) that slot.  The engine
        is re-entrant: calling ``run`` again continues exactly where
        the previous call stopped, and a paused-and-resumed run takes
        the same decisions — and builds the same report — as an
        uninterrupted one.  This is the checkpoint layer's stop point
        (:mod:`repro.robustness.checkpoint`); a report returned from a
        pause is partial and normally discarded.  Drivers that pause
        frequently should use :meth:`advance` and only call ``run`` for
        the final report — report construction is O(completed requests)
        and dominates a tight pause loop.
        """
        timed_out = self.advance(stop_at_slot)
        return build_report(
            system=self.system,
            completed=self._completed,
            total_slots=self._slot,
            timed_out=timed_out,
            events=self.events,
            slot_usage=self._slot_usage,
            metrics=self._sampler.registry() if self._sampler else None,
        )

    def advance(self, stop_at_slot: Optional[SlotIndex] = None) -> bool:
        """Drive the slot loop without building a report.

        The report-free core of :meth:`run`, with identical pause and
        resume semantics.  Returns whether the slot cap was hit, which
        a follow-up ``run`` call recomputes identically.
        """
        timed_out = False
        self._init_progress_counters()
        # The sampler is fixed at construction; hooks and event sinks
        # may still be attached later (or by a hook), so those stay in
        # the per-iteration gate.
        fast = self._fast_ok and self._sampler is None
        schedule = self.schedule
        slot_owners = schedule.slot_owners
        period = schedule.period_slots
        width = schedule.slot_width
        max_slots = self.config.max_slots
        cores = self.system.cores
        prbs = self.system.prbs
        pwbs = self.system.pwbs
        running = CoreState.RUNNING
        done = CoreState.DONE
        while not self._finished():
            slot = self._slot
            if slot >= max_slots:
                timed_out = True
                break
            if stop_at_slot is not None and slot >= stop_at_slot:
                break
            # The slot's owner and start cycle, computed once per slot
            # (owner_of_slot/slot_start without their argument checks:
            # the cursor never goes negative).
            owner = slot_owners[slot % period]
            slot_start = slot * width
            if (
                fast
                and not self._pre_slot_hooks
                and not self._post_slot_hooks
                and not self._events_on
            ):
                if self._ff_skip:
                    self._ff_skip -= 1
                else:
                    # O(1) prefilter: an owner with eligible PRB or PWB
                    # work makes this slot actionable, so there is
                    # nothing to jump over.
                    request = prbs[owner].entry
                    if (
                        request is None or request.enqueued_at > slot_start
                    ) and pwbs[owner].peek(slot_start) is None:
                        if self._try_fast_forward():
                            continue
            if self._pre_slot_hooks:
                # A pre-slot hook may mutate the slot counter (the
                # dropped-slot fault does); re-check the cap afterwards.
                for hook in self._pre_slot_hooks:
                    hook(self, self._slot)
                slot = self._slot
                if slot >= max_slots:
                    timed_out = True
                    break
                owner = slot_owners[slot % period]
                slot_start = slot * width
            # Advance through slot_start inclusive: a miss occurring
            # exactly at the boundary is in the PRB "at the beginning of
            # the core's slot" (Section 3) and may use this slot.
            # Every skipped call would be a no-op: a blocked core, a
            # running core already past slot_start, and a done core
            # whose CORE_DONE is already accounted.
            for core_id, core in cores.items():
                state = core.state
                if state is running:
                    if core.time <= slot_start:
                        self._advance_core(core_id, slot_start + 1)
                elif state is done and core_id not in self._finished_cores:
                    self._advance_core(core_id, slot_start + 1)
            self._do_slot(owner, slot_start)
            if self._post_slot_hooks:
                for hook in self._post_slot_hooks:
                    hook(self, self._slot, slot_start)
            if self._sampler is not None:
                self._sampler.sample()
            self._slot += 1
        return timed_out

    def run_complete(self) -> bool:
        """Whether a (possibly paused) run has nothing left to do.

        True once every core is done and write-backs drained, or once
        the slot cap was hit — i.e. another ``run`` call would return
        immediately.  Drivers that pause via ``run(stop_at_slot=...)``
        use this to distinguish "paused" from "finished".
        """
        return self._slot >= self.config.max_slots or self._finished()

    def _finished(self) -> bool:
        if self._pre_slot_hooks:
            # Pre-slot hooks run arbitrary user code (fault injection
            # mutates engine and system state directly), so the
            # incremental counters cannot be trusted; use the scan.
            return self._finished_scan()
        if not self._counters_ready:
            self._init_progress_counters()
        finished = (
            self._done_count == len(self.system.cores) and self._nonempty_pwbs == 0
        )
        if self.config.checked:
            assert finished == self._finished_scan(), (
                "progress counters diverged from the reference completion scan"
            )
        return finished

    def _finished_scan(self) -> bool:
        """Reference O(cores) completion check (see _finished)."""
        return all(core.done for core in self.system.cores.values()) and all(
            pwb.is_empty for pwb in self.system.pwbs.values()
        )

    def _init_progress_counters(self) -> None:
        """(Re)build the completion counters from a full scan."""
        self._done_count = 0
        self._done_seen.clear()
        self._nonempty_pwbs = 0
        for core_id, core in self.system.cores.items():
            if core.done:
                self._done_count += 1
                self._done_seen.add(core_id)
            if not self.system.pwbs[core_id].is_empty:
                self._nonempty_pwbs += 1
        self._counters_ready = True

    # ------------------------------------------------------------------
    # Idle-slot fast-forward
    # ------------------------------------------------------------------
    def _candidate_slot(
        self, core: CoreId, ready: Cycle, from_slot: SlotIndex
    ) -> SlotIndex:
        """First slot >= ``from_slot`` where ``core`` can send work ready
        at cycle ``ready``.

        Slot eligibility is ``enqueued_at <= slot_start``, so work ready
        exactly on a boundary uses that slot and work ready mid-slot
        waits for the next boundary — then for the core's next owned
        slot from there.
        """
        width = self.schedule.slot_width
        first = (ready + width - 1) // width
        if first < from_slot:
            first = from_slot
        return self.schedule.next_slot_of(core, first)

    def _try_fast_forward(self) -> bool:
        """Jump over a provably idle stretch of slots, or return False.

        Computes, in O(cores), the earliest *actionable* slot at or
        after the current one — the first slot whose owner has (or will
        have, per the side-effect-free next-miss prediction) an eligible
        PRB request or PWB write-back — and advances directly to it,
        accounting the skipped slots as idle analytically.  When every
        core will instead run to completion on private hits (and every
        PWB is empty), the jump target is
        the exact slot at which the reference loop's completion check
        would fire.  Idle slots mutate no model state, so the resulting
        report is bit-identical to ticking them one by one.

        Only called when nothing observes individual slots (no events,
        samplers or hooks) and the slot loop's O(1) prefilter found no
        eligible PRB/PWB work for the current slot's owner (see
        advance()); returns False whenever the current slot is
        actionable or the jump would not pay, leaving it to the
        reference step.
        """
        system = self.system
        schedule = self.schedule
        start_slot = self._slot

        # Cheap phase: candidates visible without prediction — parked
        # PRB requests and queued write-backs.
        best: Optional[SlotIndex] = None
        quiescent = True
        for core_id, core in system.cores.items():
            request = system.prbs[core_id].entry
            if request is not None:
                quiescent = False
                candidate = self._candidate_slot(
                    core_id, request.enqueued_at, start_slot
                )
                if best is None or candidate < best:
                    best = candidate
            elif core.state is CoreState.BLOCKED:
                # Blocked with no parked request: nothing will ever wake
                # it (only a fault can produce this state).  Not
                # quiescent, and no candidate of its own.
                quiescent = False
            pwb_ready = system.pwbs[core_id].earliest_enqueue()
            if pwb_ready is not None:
                # A queued write-back is a candidate, and the run
                # drains it before it ends.
                quiescent = False
                candidate = self._candidate_slot(core_id, pwb_ready, start_slot)
                if best is None or candidate < best:
                    best = candidate
        # Break-even point: a jump must clear the cost of the candidate
        # scan plus any fresh predictions it triggers, which measures at
        # a handful of idle slots' worth — ~6 periods is comfortably
        # past it on every workload tried.
        min_gain = 6 * schedule.period_slots
        if best is not None and best - start_slot < min_gain:
            # The next buffered work is too close for the prediction
            # cost to pay off; let the reference loop walk there (and
            # don't re-derive the same answer at every slot on the way).
            self._ff_skip = best - start_slot - 1
            return False

        # Prediction phase: the next L2 miss (or finish) of each
        # running core, via a side-effect-free replay (cached against
        # the stack's version counter).
        max_finish: Cycle = 0
        for core_id, core in system.cores.items():
            if core.state is not CoreState.RUNNING:
                continue
            prediction = core.predict_next_bus_event()
            if prediction.miss_at is not None:
                quiescent = False
                candidate = self._candidate_slot(
                    core_id, prediction.miss_at, start_slot
                )
                if best is None or candidate < best:
                    best = candidate
            elif prediction.finish_at > max_finish:
                max_finish = prediction.finish_at

        width = schedule.slot_width
        if quiescent:
            # Reference semantics: the last still-running core turns
            # DONE during the advance phase of slot ceil(finish/width);
            # the loop-top completion check then exits *before*
            # processing the slot after it.  On a tie the completion
            # check wins for the same reason — hence <=.
            finish_slot = max(start_slot, -(-max_finish // width)) + 1
            if best is None or finish_slot <= best:
                target = finish_slot
            else:
                target = best
        elif best is None:
            # No core can ever reach the bus again (starvation): the
            # reference loop idles to the cap, so jump straight there
            # and let the loop top report the timeout.
            target = self.config.max_slots
        else:
            target = best
        if target > self.config.max_slots:
            target = self.config.max_slots
        if target - start_slot < min_gain:
            # Prediction cost paid without a worthwhile jump: back off
            # exponentially so dense stretches degrade to the reference
            # loop instead of re-predicting every slot.
            self._ff_penalty = min(self._ff_penalty * 2 + 1, 8 * min_gain)
            self._ff_skip = self._ff_penalty
        else:
            self._ff_penalty = 0
        if target <= start_slot:
            return False

        # Commit.  Advance every core exactly as far as the reference
        # loop would have by the top of slot `target` — through slot
        # target-1's boundary, inclusive — and never further: a later
        # transaction may back-invalidate a line an over-advanced core
        # would have hit on.
        advance_until = schedule.slot_start(target - 1) + 1
        for core_id, core in system.cores.items():
            if core.state is not CoreState.BLOCKED:
                self._advance_core(core_id, advance_until)
        # Slots start_slot..target-1 are all idle; account them per
        # schedule position analytically instead of one by one.
        period = schedule.period_slots
        full, rem = divmod(target - start_slot, period)
        for position, position_owner in enumerate(schedule.slot_owners):
            extra = full + (1 if (position - start_slot) % period < rem else 0)
            if extra:
                self._slot_usage[position_owner]["idle"] += extra
        self._slot = target
        return True

    # ------------------------------------------------------------------
    # Core-side progress
    # ------------------------------------------------------------------
    def _advance_core(self, core_id: CoreId, until: Cycle) -> None:
        core = self.system.cores[core_id]
        miss = core.advance(until)
        if miss is not None:
            # The core is now BLOCKED on the miss, so not done.
            self.system.prbs[core_id].push(
                PendingRequest(core_id, miss.block, miss.access, miss.at_cycle)
            )
            return
        if core.state is not _DONE:
            return
        if core_id not in self._done_seen:
            self._done_seen.add(core_id)
            self._done_count += 1
        if core_id not in self._finished_cores:
            # Kept separate from _done_seen: that set is pre-seeded with
            # cores that were already done before run() (no event is
            # owed for the seeding scan), while CORE_DONE must still be
            # emitted for them here, exactly once.
            self._finished_cores.add(core_id)
            # `finish_time or 0` would misreport a legitimate cycle-0
            # finish (an empty trace) the same as a missing finish time.
            self._events_on and self.events.append(
                SimEvent(
                    core.finish_time if core.finish_time is not None else 0,
                    self._slot,
                    EventKind.CORE_DONE,
                    core_id,
                )
            )

    # ------------------------------------------------------------------
    # Slot processing
    # ------------------------------------------------------------------
    def _do_slot(self, owner: CoreId, slot_start: Cycle) -> None:
        # The transaction gets what the arbiter was offered, so neither
        # buffer is read twice in one slot.
        request = self.system.prbs[owner].entry
        writeback = self.system.pwbs[owner].peek(slot_start)
        kind = self.system.arbiters[owner].choose(
            request is not None and request.enqueued_at <= slot_start,
            writeback is not None,
        )
        if kind is None:
            self._slot_usage[owner]["idle"] += 1
            self._events_on and self.events.append(
                SimEvent(slot_start, self._slot, EventKind.SLOT_IDLE, owner)
            )
            return
        if kind is _WRITE_BACK:
            self._slot_usage[owner]["writeback"] += 1
            self._do_writeback(owner, slot_start, writeback)
        else:
            self._slot_usage[owner]["request"] += 1
            self._do_request(owner, slot_start, request)

    def _pwb_push(self, core: CoreId, entry: WritebackEntry) -> None:
        """Queue a write-back, keeping the nonempty-PWB counter in step."""
        if self.system.pwbs[core].push(entry) == 1:
            self._nonempty_pwbs += 1

    def _do_writeback(
        self, core: CoreId, slot_start: Cycle, entry: WritebackEntry
    ) -> None:
        """Send ``entry``, what ``core``'s PWB ``peek`` chose for the slot."""
        if not self.system.pwbs[core].remove(entry):
            self._nonempty_pwbs -= 1
        llc = self.system.llc
        pending = llc.pending_entry(entry.block)
        outcome = llc.complete_writeback(core, entry.block)
        if outcome is _FREED or outcome is _DRAM_DIRECT:
            self.system.dram.write_back()
        self._events_on and self.events.append(
            SimEvent(
                slot_start,
                self._slot,
                EventKind.WB_SENT,
                core,
                entry.block,
                None,
                None,
                f"{entry.reason.value}->{outcome.value}",
            )
        )
        if outcome is _FREED:
            assert pending is not None
            self._events_on and self.events.append(
                SimEvent(
                    slot_start,
                    self._slot,
                    EventKind.ENTRY_FREED,
                    core,
                    entry.block,
                    pending.set_index,
                    pending.way,
                )
            )

    def _do_request(
        self, core: CoreId, slot_start: Cycle, request: Optional[PendingRequest]
    ) -> None:
        """Put ``request``, ``core``'s PRB entry, on the bus."""
        llc = self.system.llc
        assert request is not None
        request.bus_attempts += 1
        if request.first_on_bus_at is None:
            request.first_on_bus_at = slot_start
        self._events_on and self.events.append(
            SimEvent(
                slot_start, self._slot, EventKind.REQ_BROADCAST, core, request.block
            )
        )
        sequencer = self._sequencers[core]
        region = llc.region(core, request.block)
        set_index = region.set_index

        hit = llc.lookup(region, request.block)
        if hit is not None:
            request.served_by_hit = True
            llc.add_owner(core, request.block)
            if sequencer is not None:
                # A sharer fetched the line while we were queued.
                sequencer.cancel(core)
            self._events_on and self.events.append(
                SimEvent(
                    slot_start,
                    self._slot,
                    EventKind.LLC_HIT,
                    core,
                    request.block,
                    hit.set_index,
                    hit.way,
                )
            )
            self._complete_request(
                core, request, slot_start + self.config.llc_hit_latency
            )
            return

        # A request for a block whose own eviction is still awaiting a
        # write-back cannot allocate (the block would be resident twice);
        # it waits for the entry to free.
        if llc.block_is_pending(request.block):
            if sequencer is not None:
                sequencer.register(core, set_index)
            self._events_on and self.events.append(
                SimEvent(
                    slot_start,
                    self._slot,
                    EventKind.BLOCKED_FULL,
                    core,
                    request.block,
                    set_index,
                    None,
                    "own-block-pending-evict",
                )
            )
            return

        # Miss path.  Try to claim a free entry; failing that, make sure
        # an eviction is in flight, which may free an entry within this
        # very slot (clean victim) and still satisfy us.  With no free
        # entry (``free`` 0, so free_entry gives None) the first try is
        # skipped.
        if region.free and self._try_allocate(
            core, request, sequencer, region, slot_start
        ):
            return

        if sequencer is not None:
            sequencer.register(core, set_index)
            self._events_on and self.events.append(
                SimEvent(
                    slot_start,
                    self._slot,
                    EventKind.SEQ_REGISTER,
                    core,
                    request.block,
                    set_index,
                    None,
                    f"queue={sequencer.queue_snapshot(set_index)}",
                )
            )

        freed_now = self._ensure_eviction(core, region, slot_start)
        if freed_now and self._try_allocate(
            core, request, sequencer, region, slot_start
        ):
            return

        llc.extra.blocked_no_free_entry += 1
        self._events_on and self.events.append(
            SimEvent(
                slot_start,
                self._slot,
                EventKind.BLOCKED_FULL,
                core,
                request.block,
                set_index,
            )
        )

    # ------------------------------------------------------------------
    # Miss helpers
    # ------------------------------------------------------------------
    def _try_allocate(
        self,
        core: CoreId,
        request: PendingRequest,
        sequencer,
        region: LlcRegion,
        slot_start: Cycle,
    ) -> bool:
        """Claim a free entry if one exists and the sequencer allows it."""
        llc = self.system.llc
        entry = llc.free_entry(region)
        if entry is None:
            return False
        set_index = region.set_index
        if sequencer is not None and not sequencer.may_claim(core, set_index):
            self._events_on and self.events.append(
                SimEvent(
                    slot_start,
                    self._slot,
                    EventKind.SEQ_BLOCKED,
                    core,
                    request.block,
                    set_index,
                    None,
                    f"head={sequencer.queue_snapshot(set_index)[:1]}",
                )
            )
            return False
        llc.allocate(region, entry, core, request.block)
        self.system.dram.fetch()
        if sequencer is not None:
            sequencer.complete(core, set_index)
        self._events_on and self.events.append(
            SimEvent(
                slot_start,
                self._slot,
                EventKind.LLC_ALLOC,
                core,
                request.block,
                set_index,
                entry.way,
            )
        )
        self._complete_request(
            core, request, slot_start + self.config.llc_miss_latency
        )
        return True

    def _region_waiters(self, region: LlcRegion) -> int:
        """Cores of ``region``'s partition with a broadcast miss on it.

        A request counts once it has been seen on the bus, which is all
        the LLC can observe.  The requester on the bus right now always
        counts: ``_do_request`` stamps its ``first_on_bus_at`` first.
        """
        partition = region.partition
        sets, set_index = partition.sets, region.set_index
        num_sets = len(sets)
        prbs = self.system.prbs
        count = 0
        for sharer in partition.cores:
            entry = prbs[sharer].entry
            if entry is None or entry.first_on_bus_at is None:
                continue
            if sets[entry.block % num_sets] == set_index:
                count += 1
        return count

    def _ensure_eviction(
        self, core: CoreId, region: LlcRegion, slot_start: Cycle
    ) -> bool:
        """Keep one eviction in flight per waiting requester.

        The set sequencer's worst case (Theorem 4.8) has every queued
        request waiting on *its own* in-flight eviction simultaneously —
        evictions are per-requester, not per-set.  An eviction is
        triggered only while free + pending entries cannot cover the
        region's waiting requesters, so a lone requester never holds
        more than one entry in flight and the set is never drained
        below what contention justifies.

        Returns True when the eviction freed its entry immediately (no
        dirty private owner), in which case the requester may still
        complete within this slot (Lemma 4.4's completion rule).
        """
        llc = self.system.llc
        if region.free + region.pending >= self._region_waiters(region):
            return False
        victim = llc.choose_victim(region)
        if victim is None:
            # Region is all free/pending; nothing valid to evict.  The
            # free case was handled by _try_allocate (sequencer said no).
            return False
        self._events_on and self.events.append(
            SimEvent(
                slot_start,
                self._slot,
                EventKind.EVICT_START,
                core,
                victim.block,
                victim.set_index,
                victim.way,
                f"owners={sorted(victim.owners)}",
            )
        )
        dirty_owners = self._back_invalidate(victim, core, slot_start)
        freed_now = llc.begin_eviction(victim, dirty_owners)
        if freed_now:
            if victim.llc_dirty:
                self.system.dram.write_back()
            self._events_on and self.events.append(
                SimEvent(
                    slot_start,
                    self._slot,
                    EventKind.ENTRY_FREED,
                    core,
                    victim.block,
                    victim.set_index,
                    victim.way,
                    "clean-eviction",
                )
            )
        return freed_now

    def _back_invalidate(
        self, victim: VictimInfo, requester: CoreId, slot_start: Cycle
    ) -> List[CoreId]:
        """Invalidate private copies of the victim; queue dirty write-backs.

        A dirty copy held by the *requester itself* is written back
        within the same slot: the requester is already on the bus, so
        the victim data rides along with its request (this is what makes
        the private-partition WCL ``(2N+1)·SW`` — a self-eviction never
        costs an extra period).  Dirty copies held by *other* cores are
        the expensive case of the paper's analysis: each costs its owner
        a future bus slot.
        """
        dirty_owners: List[CoreId] = []
        in_slot_self = self.config.self_writeback_in_slot
        owners = victim.owners
        if len(owners) > 1:
            owners = sorted(owners)
        for owner in owners:
            removed = self.system.stacks[owner].invalidate_block(victim.block)
            is_dirty = removed is not None and removed.dirty
            if is_dirty and owner == requester and in_slot_self:
                self.system.dram.write_back()
                detail = "self-dirty-in-slot"
            elif is_dirty:
                dirty_owners.append(owner)
                self._pwb_push(
                    owner,
                    WritebackEntry(
                        owner, victim.block, _BACK_INVALIDATION, slot_start
                    ),
                )
                detail = "dirty"
            else:
                detail = "clean"
            self._events_on and self.events.append(
                SimEvent(
                    slot_start,
                    self._slot,
                    EventKind.BACK_INVALIDATE,
                    owner,
                    victim.block,
                    victim.set_index,
                    victim.way,
                    detail,
                )
            )
        return dirty_owners

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete_request(
        self, core: CoreId, request: PendingRequest, response_cycle: Cycle
    ) -> None:
        slot_end = (self._slot + 1) * self._slot_width
        if response_cycle > slot_end:
            raise SimulationError(
                f"response at cycle {response_cycle} spills past slot end "
                f"{slot_end}; latencies must fit in a slot"
            )
        self.system.prbs[core].pop()
        request.completed_at = response_cycle
        self._completed.append(request)
        fill = self.system.stacks[core].fill_from_llc(request.block, request.access)
        if fill.l2_victim is not None:
            self.system.llc.note_private_drop(core, fill.l2_victim.block)
            if fill.l2_victim.dirty:
                self._pwb_push(
                    core,
                    WritebackEntry(
                        core, fill.l2_victim.block, _CAPACITY, response_cycle
                    ),
                )
        self._events_on and self.events.append(
            SimEvent(
                response_cycle,
                self._slot,
                EventKind.RESPONSE,
                core,
                request.block,
                None,
                None,
                f"latency={request.completed_at - request.enqueued_at}",
            )
        )
        finishing = self.system.cores[core]
        finishing.resume(response_cycle)
        if finishing.state is _DONE and core not in self._done_seen:
            # A core whose trace ends on this response is DONE *now*,
            # and the completion scan at the top of the next iteration
            # sees it — the counters must too, or the run would process
            # one extra slot.  CORE_DONE emission stays in _advance_core
            # (the reference loop never reaches it for the final core).
            self._done_seen.add(core)
            self._done_count += 1
