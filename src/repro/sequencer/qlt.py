"""The Queue Lookup Table (QLT).

Figure 6 of the paper: "The set sequencer contains one entry in the QLT
for each set in the partition that has at least one pending LLC
request.  The entry maps the set to a queue in SQ."

The QLT therefore manages a finite pool of queues and the set→queue
association.  A hardware implementation has a fixed queue count; we
model that with an optional ``max_queues`` so experiments can study
overflow, while the default (one queue per possible set) never runs
out — matching the paper's assumption that ordering is always
maintained.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError, SimulationError
from repro.common.validation import require_positive
from repro.sequencer.sq import SequencerQueue


class QueueLookupTable:
    """Maps LLC set indices to sequencer queues, allocating on demand."""

    def __init__(self, num_sets: int, max_queues: Optional[int] = None) -> None:
        require_positive(num_sets, "num_sets", ConfigurationError)
        if max_queues is None:
            max_queues = num_sets
        require_positive(max_queues, "max_queues", ConfigurationError)
        self.num_sets = num_sets
        self.max_queues = max_queues
        self._mapping: Dict[int, SequencerQueue] = {}
        self._free_queues: List[SequencerQueue] = [
            SequencerQueue(queue_id) for queue_id in reversed(range(max_queues))
        ]
        self.overflows = 0

    @property
    def active_entries(self) -> int:
        """Number of sets currently mapped to a queue."""
        return len(self._mapping)

    def queue_for(self, set_index: int) -> Optional[SequencerQueue]:
        """The queue tracking ``set_index``, if one is mapped."""
        queue = self._mapping.get(set_index)
        if queue is None:
            # A mapped set passed this check in acquire().
            self._check_set(set_index)
        return queue

    def acquire(self, set_index: int) -> Optional[SequencerQueue]:
        """Get or allocate the queue for ``set_index``.

        Returns ``None`` — and counts an overflow — when the queue pool
        is exhausted; the caller falls back to best-effort (NSS)
        handling for that request, which is safe (it can only lengthen
        the observed latency, never corrupt state).
        """
        self._check_set(set_index)
        queue = self._mapping.get(set_index)
        if queue is not None:
            return queue
        if not self._free_queues:
            self.overflows += 1
            return None
        queue = self._free_queues.pop()
        self._mapping[set_index] = queue
        return queue

    def release_if_empty(self, set_index: int) -> None:
        """Return the set's queue to the pool once it has drained."""
        queue = self._mapping.get(set_index)
        if queue is None:
            return
        if queue.is_empty:
            del self._mapping[set_index]
            self._free_queues.append(queue)

    def _check_set(self, set_index: int) -> None:
        if not 0 <= set_index < self.num_sets:
            raise SimulationError(
                f"set index {set_index} out of range 0..{self.num_sets - 1}"
            )
