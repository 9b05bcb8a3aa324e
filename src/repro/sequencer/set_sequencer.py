"""The set sequencer (Figure 6): one FIFO of cores per contended set.

Figure 6 of the paper: "The set sequencer contains one entry in the QLT
for each set in the partition that has at least one pending LLC
request.  The entry maps the set to a queue in SQ."  Here the QLT and
its SQ queues are one table, :attr:`SetSequencer.queues`: set index →
deque of cores, head first, in the order their requests were first
broadcast on the shared bus.  A set is in the table exactly while it
has a queued core.

The table has room for one queue per set, the paper's QLT size, so
ordering is always maintained: a set that needs a new queue has none
in the table yet.

The slot engine talks to this class only:

* :meth:`register` — a request missed and could not complete; record it
  in broadcast order (idempotent per outstanding request).
* :meth:`may_claim` — may this core take a free entry in this set now?
  True iff the core heads the set's queue, or the set has none.
* :meth:`complete` — the core's request finished; pop it and drop the
  set from the table once drained.
* :meth:`cancel` — the request stopped needing an allocation (it became
  a hit because a sharer fetched the same line).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import CoreId
from repro.common.validation import require_positive


@dataclass
class SequencerStats:
    """Occupancy and traffic counters for the set sequencer."""

    registrations: int = 0
    completions: int = 0
    cancellations: int = 0
    head_grants: int = 0
    blocked_not_head: int = 0
    max_active_sets: int = 0


class SetSequencer:
    """Orders pending misses per LLC set in bus-broadcast order."""

    def __init__(self, num_sets: int) -> None:
        require_positive(num_sets, "num_sets", ConfigurationError)
        self.num_sets = num_sets
        #: set index -> queued cores, head first; never holds an empty queue.
        self.queues: Dict[int, Deque[CoreId]] = {}
        self.stats = SequencerStats()
        # core -> set it is queued for (a core has one outstanding request)
        self._queued_set: Dict[CoreId, int] = {}

    def is_queued(self, core: CoreId) -> bool:
        """Whether ``core`` currently has a sequenced pending miss."""
        return core in self._queued_set

    def queued_set_of(self, core: CoreId) -> Optional[int]:
        """The set ``core`` is queued for, if any."""
        return self._queued_set.get(core)

    def register(self, core: CoreId, set_index: int) -> None:
        """Record ``core``'s pending miss on ``set_index`` (idempotent)."""
        if core in self._queued_set:
            return
        if not 0 <= set_index < self.num_sets:
            raise self._range_error(set_index)
        queue = self.queues.get(set_index)
        if queue is None:
            queue = self.queues[set_index] = deque()
            if len(self.queues) > self.stats.max_active_sets:
                self.stats.max_active_sets = len(self.queues)
        elif core in queue:
            # A core has at most one outstanding request (Section 3).
            raise SimulationError(
                f"core {core} already queued for set {set_index}"
            )
        queue.append(core)
        self._queued_set[core] = set_index
        self.stats.registrations += 1

    def may_claim(self, core: CoreId, set_index: int) -> bool:
        """Whether ``core`` may take a free entry in ``set_index`` now."""
        queue = self.queues.get(set_index)
        if queue is None:
            if not 0 <= set_index < self.num_sets:
                raise self._range_error(set_index)
            return True
        if queue[0] == core:
            self.stats.head_grants += 1
            return True
        self.stats.blocked_not_head += 1
        return False

    def complete(self, core: CoreId, set_index: int) -> None:
        """``core``'s request completed; release its queue position."""
        queued_set = self._queued_set.pop(core, None)
        if queued_set is None:
            return  # completed on first attempt; never registered
        queue = self.queues.get(queued_set)
        if queue is not None:
            if queue[0] != core:
                raise SimulationError(
                    f"core {core} completed on set {queued_set} but the "
                    f"head of its queue is {queue[0]}"
                )
            queue.popleft()
            if not queue:
                del self.queues[queued_set]
        self.stats.completions += 1

    def cancel(self, core: CoreId) -> None:
        """``core`` no longer needs an allocation (from any position)."""
        queued_set = self._queued_set.pop(core, None)
        if queued_set is None:
            return
        queue = self.queues.get(queued_set)
        if queue is not None and core in queue:
            queue.remove(core)
            if not queue:
                del self.queues[queued_set]
        self.stats.cancellations += 1

    def queue_snapshot(self, set_index: int) -> Tuple[CoreId, ...]:
        """Cores queued for ``set_index``, head first (for tests/logs)."""
        return tuple(self.queues.get(set_index, ()))

    def _range_error(self, set_index: int) -> SimulationError:
        return SimulationError(
            f"set index {set_index} out of range 0..{self.num_sets - 1}"
        )
