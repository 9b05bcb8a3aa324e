"""The trace-driven core model.

A core replays a memory trace: each record is a byte address plus an
access type.  Private hits complete at fixed latencies; an L2 miss
blocks the core (at most one outstanding request, Section 3) until the
slot engine delivers the LLC response.  The core keeps its own local
clock, which the engine advances up to each bus-slot boundary.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from repro.common.errors import GeometryError, SimulationError
from repro.common.intmath import ilog2
from repro.common.types import AccessType, BlockAddress, CoreId, Cycle
from repro.common.validation import require_power_of_two
from repro.cpu.private_stack import PrivateStack
from repro.workloads.trace import MemoryTrace


class CoreState(enum.Enum):
    """Execution state of a trace-driven core."""

    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"


# Read per advance call; a module global reads faster than a member.
_RUNNING = CoreState.RUNNING
_BLOCKED = CoreState.BLOCKED


class MissInfo(NamedTuple):
    """An L2 miss the core needs the bus for."""

    core: CoreId
    block: BlockAddress
    access: AccessType
    at_cycle: Cycle


#: Advance horizon used for next-miss prediction — far beyond any
#: reachable simulation time, so a prediction either finds the next L2
#: miss or replays the trace to completion.
_PREDICTION_HORIZON: Cycle = 1 << 62


class CorePrediction(NamedTuple):
    """What a ``RUNNING`` core will do next, bus-wise.

    Exactly one of the two fields is set: ``miss_at`` when the core's
    next non-private access is an L2 miss at that cycle, ``finish_at``
    when the remaining trace completes on private hits alone.  For a
    ``BLOCKED`` core both are ``None`` — its future depends on the LLC
    response, which only the engine knows.
    """

    miss_at: Optional[Cycle] = None
    finish_at: Optional[Cycle] = None


class TraceDrivenCore:
    """Replays one memory trace through a private stack."""

    def __init__(
        self,
        core_id: CoreId,
        stack: PrivateStack,
        trace: MemoryTrace,
        line_size: int,
        start_cycle: Cycle = 0,
    ) -> None:
        if start_cycle < 0:
            raise SimulationError(
                f"core {core_id}: start_cycle must be non-negative, got {start_cycle}"
            )
        self.core_id = core_id
        self.stack = stack
        self.trace = trace
        require_power_of_two(line_size, "line_size", GeometryError)
        # Byte address -> block address is a shift by the line offset;
        # precomputed so replay does not re-derive it per access.
        self._offset_bits = ilog2(line_size)
        self.state = CoreState.RUNNING if len(trace) else CoreState.DONE
        self.time: Cycle = start_cycle
        self.position = 0
        # Whether the current record's compute gap has been consumed
        # (the gap applies once, even if the access then blocks).
        self._gap_applied = False
        self.finish_time: Optional[Cycle] = (
            start_cycle if self.state is CoreState.DONE else None
        )
        self.private_hits = 0
        self.llc_requests = 0
        # Next-miss prediction cache, keyed on the private stack's
        # version counter (see predict_next_bus_event).
        self._prediction: Optional[CorePrediction] = None
        self._prediction_version: Optional[int] = None

    @property
    def done(self) -> bool:
        """Whether the trace has been fully replayed."""
        return self.state is CoreState.DONE

    @property
    def blocked(self) -> bool:
        """Whether the core waits for an LLC response."""
        return self.state is CoreState.BLOCKED

    def advance(self, until: Cycle) -> Optional[MissInfo]:
        """Run private-hit execution while ``time < until``.

        Returns the first L2 miss encountered (leaving the core
        ``BLOCKED`` at the miss cycle), or ``None`` if the core ran out
        of trace or reached ``until`` on private hits alone.
        """
        time = self.time
        if self.state is not _RUNNING or time >= until:
            return None
        records = self.trace.records
        count = len(records)
        offset_bits = self._offset_bits
        stack = self.stack
        # The replay cursor lives in locals and is written back on every
        # exit: horizon, finish and miss.
        position = self.position
        gap_applied = self._gap_applied
        hits = 0
        miss: Optional[MissInfo] = None
        while time < until:
            if position >= count:
                break
            # Records and stack results are named tuples; unpacking
            # them reads faster than their field descriptors.
            address, access, compute_cycles = records[position]
            if not gap_applied:
                gap_applied = True
                if compute_cycles:
                    # Think time before the access; re-check the horizon
                    # so a long computation does not overshoot it.
                    time += compute_cycles
                    continue
            # TraceRecord rejects negative addresses at construction.
            block = address >> offset_bits
            hit_level, latency = stack.access(block, access)
            if hit_level is not None:
                hits += 1
                time += latency
                position += 1
                gap_applied = False
                continue
            # L2 miss: the core blocks at the current cycle; the engine
            # parks the request in the PRB and wakes us on the response.
            self.state = _BLOCKED
            self.llc_requests += 1
            miss = MissInfo(self.core_id, block, access, time)
            break
        self.time = time
        self.position = position
        self._gap_applied = gap_applied
        self.private_hits += hits
        if miss is None and time < until:
            # Out of trace before the horizon.
            self._finish()
        return miss

    def resume(self, response_cycle: Cycle) -> None:
        """Deliver the LLC response: the blocked access completes.

        The engine has already filled the private stack; the core just
        accounts time and moves to the next trace record.
        """
        if self.state is not CoreState.BLOCKED:
            raise SimulationError(
                f"core {self.core_id}: resume while {self.state.value}"
            )
        if response_cycle < self.time:
            raise SimulationError(
                f"core {self.core_id}: response at cycle {response_cycle} "
                f"before the miss at cycle {self.time}"
            )
        self.time = response_cycle
        self.position += 1
        self._gap_applied = False
        self.state = CoreState.RUNNING
        if self.position >= len(self.trace):
            self._finish()

    def predict_next_bus_event(self) -> CorePrediction:
        """Predict the core's next bus-visible event without side effects.

        Replays the remaining trace against a copy-on-write view of the
        private stack (:meth:`PrivateStack.clone_for_prediction`)
        through the real :meth:`advance` code path (so hit/miss
        decisions, compute-gap handling and latency accounting cannot
        diverge from the live replay), then restores the core's state.
        Returns the cycle of the next L2 miss, or the finish time when
        the rest of the trace completes on private hits alone.

        The result is cached against ``stack.version``: between two
        external stack mutations (an LLC fill or a back-invalidation —
        the only events that bump the version) the core's deterministic
        replay follows exactly the predicted path, so the prediction
        stays exact while the version is unchanged.  Each prediction
        scans only the records up to the next miss, and consecutive
        predictions scan disjoint trace segments, so the total
        prediction cost over a run is linear in the trace length.

        Only valid for deterministic replacement policies: a ``random``
        private stack shares its RNG stream with the rest of the
        system, and the view's draws could not be kept in lock-step
        (the engine forces the reference path in that case).
        """
        if self.state is CoreState.DONE:
            return CorePrediction(finish_at=self.finish_time)
        if self.state is CoreState.BLOCKED:
            return CorePrediction()
        if (
            self._prediction is not None
            and self._prediction_version == self.stack.version
        ):
            return self._prediction
        saved = (
            self.time,
            self.position,
            self._gap_applied,
            self.state,
            self.finish_time,
            self.private_hits,
            self.llc_requests,
        )
        live_stack = self.stack
        self.stack = live_stack.clone_for_prediction()
        try:
            miss = self.advance(_PREDICTION_HORIZON)
            if miss is not None:
                prediction = CorePrediction(miss_at=miss.at_cycle)
            else:
                prediction = CorePrediction(finish_at=self.finish_time)
        finally:
            self.stack = live_stack
            (
                self.time,
                self.position,
                self._gap_applied,
                self.state,
                self.finish_time,
                self.private_hits,
                self.llc_requests,
            ) = saved
        self._prediction = prediction
        self._prediction_version = live_stack.version
        return prediction

    def _finish(self) -> None:
        self.state = CoreState.DONE
        self.finish_time = self.time
