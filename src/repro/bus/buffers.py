"""Pending-request and pending-write-back buffers (PRB / PWB).

Section 3 of the paper: before a core's request or write-back is placed
on the bus, it waits in the core's PRB (requests) or PWB (write-backs).
Each core has **at most one outstanding memory request**, so the PRB
holds at most one entry; the PWB accumulates the dirty lines the core
must push to the LLC — both its own capacity evictions and the
write-backs forced on it by inclusive LLC evictions
(back-invalidations).

The PWB services back-invalidation write-backs before capacity
write-backs (FIFO within each class).  A back-invalidation write-back
is what frees a ``PENDING_EVICT`` LLC entry that another core may be
waiting on; Corollary 4.5's guaranteed decay rate — and with it the
Theorem 4.7/4.8 bounds — assumes the owner's next write-back slot
services exactly that obligation.  Under a plain FIFO a capacity
write-back queued ahead of it delays the freeing by a full extra
period per queued entry, and observed latencies exceed the theorem
(found by differential fuzzing; see
``tests/test_robustness_oracle.py``).  Capacity write-backs free no
entry anyone waits on, so delaying them costs no one.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.common.errors import SimulationError
from repro.common.types import AccessType, BlockAddress, CoreId, Cycle


@dataclass(slots=True)
class PendingRequest:
    """The (single) outstanding LLC request of one core.

    ``enqueued_at`` is when the L2 miss parked the request in the PRB;
    ``first_on_bus_at`` is when the request was first broadcast (used by
    the set sequencer, which records broadcast order); ``completed_at``
    is filled when the LLC response arrives.  Observed latency for the
    WCL experiments is ``completed_at - enqueued_at``.
    """

    core: CoreId
    block: BlockAddress
    access: AccessType
    enqueued_at: Cycle
    first_on_bus_at: Optional[Cycle] = None
    completed_at: Optional[Cycle] = None
    bus_attempts: int = 0
    #: Whether the LLC served the request from a resident line (True)
    #: or had to allocate and fetch from DRAM (False).
    served_by_hit: bool = False

    @property
    def latency(self) -> Cycle:
        """Completion latency in cycles; raises if not completed."""
        if self.completed_at is None:
            raise SimulationError("latency of an incomplete request")
        return self.completed_at - self.enqueued_at


class PendingRequestBuffer:
    """PRB: capacity-one buffer for the core's outstanding request."""

    def __init__(self, core: CoreId) -> None:
        self.core = core
        #: The outstanding request, if any.
        self.entry: Optional[PendingRequest] = None

    @property
    def is_empty(self) -> bool:
        return self.entry is None

    def push(self, request: PendingRequest) -> None:
        """Park a new request; the PRB must be empty.

        A second outstanding request violates the one-outstanding-
        request assumption of the system model and indicates a core
        model bug.
        """
        if self.entry is not None:
            raise SimulationError(
                f"core {self.core}: PRB already holds a request for block "
                f"{self.entry.block:#x}; one outstanding request allowed"
            )
        if request.core != self.core:
            raise SimulationError(
                f"request for core {request.core} pushed into core {self.core}'s PRB"
            )
        self.entry = request

    def pop(self) -> PendingRequest:
        """Remove and return the outstanding request."""
        entry = self.entry
        if entry is None:
            raise SimulationError(f"core {self.core}: pop from empty PRB")
        self.entry = None
        return entry


class WritebackReason(enum.Enum):
    """Why a write-back entered the PWB."""

    #: The core's own L2 displaced a dirty line while filling.
    CAPACITY = "capacity"
    #: The LLC evicted a line this core cached dirty (inclusive
    #: back-invalidation); the LLC entry stays PENDING_EVICT until this
    #: write-back reaches the LLC.
    BACK_INVALIDATION = "back-invalidation"


@dataclass(slots=True)
class WritebackEntry:
    """One dirty line waiting to be written back over the bus."""

    core: CoreId
    block: BlockAddress
    reason: WritebackReason
    enqueued_at: Cycle


class PendingWritebackBuffer:
    """PWB: the core's pending write-backs.

    Back-invalidation write-backs are serviced before capacity
    write-backs, FIFO within each class (module docstring has the
    timing argument).  ``peek``/``pop`` take the slot-start cycle so
    only write-backs already queued *at the beginning of the slot* are
    eligible — entries are pushed in cycle order, so an ineligible
    selection can never shadow an eligible one.
    """

    def __init__(self, core: CoreId) -> None:
        self.core = core
        self._entries: Deque[WritebackEntry] = deque()
        self.max_occupancy = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def push(self, entry: WritebackEntry) -> int:
        """Queue a write-back; returns how many are now queued."""
        if entry.core != self.core:
            raise SimulationError(
                f"write-back for core {entry.core} pushed into core {self.core}'s PWB"
            )
        self._entries.append(entry)
        occupancy = len(self._entries)
        self.max_occupancy = max(self.max_occupancy, occupancy)
        return occupancy

    def pop(self, before: Optional[Cycle] = None) -> WritebackEntry:
        """Remove and return the next write-back to send.

        ``before`` restricts the choice to entries enqueued at or
        before that cycle (the slot-eligibility rule).
        """
        entry = self.peek(before)
        if entry is None:
            raise SimulationError(f"core {self.core}: pop from empty PWB")
        self.remove(entry)
        return entry

    def remove(self, entry: WritebackEntry) -> int:
        """``pop`` for a caller holding what :meth:`peek` returned;
        returns how many write-backs are left."""
        entries = self._entries
        if entries[0] is entry:
            entries.popleft()
        else:
            entries.remove(entry)
        return len(entries)

    def peek(self, before: Optional[Cycle] = None) -> Optional[WritebackEntry]:
        """The write-back ``pop`` would return, without removing it: the
        oldest eligible back-invalidation, else the oldest eligible
        entry, found in one scan."""
        oldest: Optional[WritebackEntry] = None
        for entry in self._entries:
            if before is not None and entry.enqueued_at > before:
                continue
            if entry.reason is WritebackReason.BACK_INVALIDATION:
                return entry
            if oldest is None:
                oldest = entry
        return oldest

    def earliest_enqueue(self) -> Optional[Cycle]:
        """Smallest ``enqueued_at`` among queued entries, or ``None``.

        The cycle from which *some* entry is slot-eligible — the
        fast-forward engine uses it to place this buffer's next
        actionable slot without scanning every intermediate slot.
        """
        if not self._entries:
            return None
        return min(entry.enqueued_at for entry in self._entries)

    def blocks(self) -> list[BlockAddress]:
        """Blocks currently queued, oldest first."""
        return [entry.block for entry in self._entries]
