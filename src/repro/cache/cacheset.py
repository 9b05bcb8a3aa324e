"""One set of a private set-associative cache.

Stores up to ``ways`` lines, keyed by block address for O(1) lookup,
with way slots managed explicitly so replacement policies can reason in
way indices (as real hardware does).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.line import CacheLine, EvictedLine
from repro.cache.replacement import ReplacementPolicy
from repro.common.errors import SimulationError
from repro.common.types import BlockAddress


class CacheSet:
    """A single cache set with explicit way slots.

    The set does not know its own index within the cache; the enclosing
    cache handles address decomposition and passes block addresses down.
    """

    def __init__(self, ways: int, policy: ReplacementPolicy) -> None:
        if policy.ways != ways:
            raise SimulationError(
                f"policy manages {policy.ways} ways but set has {ways}"
            )
        self.ways = ways
        self.policy = policy
        self._slots: List[Optional[CacheLine]] = [None] * ways
        # Every way, the candidate list a full set hands the policy.
        self._all_ways = tuple(range(ways))
        self._index: Dict[BlockAddress, int] = {}

    def __len__(self) -> int:
        return len(self._index)

    @property
    def is_full(self) -> bool:
        """Whether every way holds a valid line."""
        return len(self._index) == self.ways

    def resident_blocks(self) -> List[BlockAddress]:
        """Block addresses currently stored in this set."""
        return list(self._index)

    def find(self, block: BlockAddress) -> Optional[CacheLine]:
        """Return the line for ``block`` without touching policy state."""
        way = self._index.get(block)
        return None if way is None else self._slots[way]

    def touch(self, block: BlockAddress, is_write: bool) -> bool:
        """Record a hit on ``block``; returns False if it is absent."""
        way = self._index.get(block)
        if way is None:
            return False
        line = self._slots[way]
        assert line is not None
        if is_write:
            line.dirty = True
        self.policy.on_access(way)
        return True

    def fill(self, block: BlockAddress, dirty: bool) -> Optional[EvictedLine]:
        """Install ``block``; returns the displaced line, if any.

        Filling a block that is already resident is a simulator bug (the
        caller should have hit), so it raises :class:`SimulationError`.
        """
        index = self._index
        if block in index:
            raise SimulationError(f"fill of already-resident block {block:#x}")
        evicted: Optional[EvictedLine] = None
        slots = self._slots
        policy = self.policy
        if len(index) < self.ways:
            # The lowest free way; one exists, since every resident
            # line is indexed.
            way = 0
            while slots[way] is not None:
                way += 1
        else:
            way = policy.victim(self._all_ways)
            victim = slots[way]
            assert victim is not None
            evicted = EvictedLine(victim.block, victim.dirty)
            del index[victim.block]
            policy.on_invalidate(way)
        slots[way] = CacheLine(block, dirty)
        index[block] = way
        policy.on_fill(way)
        return evicted

    def invalidate(self, block: BlockAddress) -> Optional[EvictedLine]:
        """Remove ``block`` if present; returns what was removed."""
        way = self._index.pop(block, None)
        if way is None:
            return None
        slots = self._slots
        line = slots[way]
        assert line is not None
        slots[way] = None
        self.policy.on_invalidate(way)
        return EvictedLine(line.block, line.dirty)

    def mark_clean(self, block: BlockAddress) -> bool:
        """Clear the dirty bit of ``block``; returns False if absent."""
        line = self.find(block)
        if line is None:
            return False
        line.dirty = False
        return True

    def clone(self) -> "CacheSet":
        """An independent copy with identical contents and policy state."""
        dup = CacheSet.__new__(CacheSet)
        dup.ways = self.ways
        dup.policy = self.policy.clone()
        dup._all_ways = self._all_ways
        dup._slots = [
            None if line is None else CacheLine(block=line.block, dirty=line.dirty)
            for line in self._slots
        ]
        dup._index = dict(self._index)
        return dup
