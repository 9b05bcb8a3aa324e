"""A generic set-associative cache for the private levels (L1, L2).

The cache works in *block addresses* — the enclosing private stack
translates byte addresses once, at the L1 boundary.  Fill, touch and
invalidate are separate operations because in the paper's model a miss
does not fill immediately: the fill happens when the LLC response
arrives in the core's bus slot, possibly hundreds of cycles later.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.cache.cacheset import CacheSet
from repro.cache.line import CacheLine, EvictedLine
from repro.cache.replacement import OraclePolicy, make_policy
from repro.cache.stats import CacheStats
from repro.common.errors import GeometryError
from repro.common.types import BlockAddress
from repro.common.validation import require_power_of_two


class SetAssociativeCache:
    """Set-associative cache over block addresses.

    Parameters
    ----------
    name:
        Human-readable identifier used in stats and event logs
        (for example ``"core0.L2"``).
    num_sets, ways:
        Geometry; ``num_sets`` must be a power of two so the set index
        is a bit-field of the block address.
    policy:
        Replacement policy name accepted by
        :func:`repro.cache.replacement.make_policy`.
    rng:
        Seeded stream threaded into stochastic policies.
    """

    def __init__(
        self,
        name: str,
        num_sets: int,
        ways: int,
        policy: str = "lru",
        rng: Optional[random.Random] = None,
    ) -> None:
        require_power_of_two(num_sets, "num_sets", GeometryError)
        if ways <= 0:
            raise GeometryError(f"ways must be positive, got {ways}")
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self.policy_name = policy
        self.stats = CacheStats()
        # Set index = the block's low bits; every per-block operation
        # indexes ``_sets[block & _mask]`` directly.
        self._mask = num_sets - 1
        self._sets: List[CacheSet] = []
        for set_index in range(num_sets):
            set_policy = make_policy(policy, ways, rng)
            if isinstance(set_policy, OraclePolicy):
                set_policy.bind_set(set_index)
            self._sets.append(CacheSet(ways, set_policy))

    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.num_sets * self.ways

    def set_index(self, block: BlockAddress) -> int:
        """Set index of a block address."""
        return block & self._mask

    def contains(self, block: BlockAddress) -> bool:
        """Whether ``block`` is resident (no policy side effects)."""
        return self._sets[block & self._mask].find(block) is not None

    def is_dirty(self, block: BlockAddress) -> bool:
        """Whether ``block`` is resident and dirty."""
        line = self._sets[block & self._mask].find(block)
        return line is not None and line.dirty

    def access(self, block: BlockAddress, is_write: bool) -> bool:
        """Look up ``block``; on a hit, update recency (and dirtiness).

        Returns True on hit.  Misses only bump counters — the caller
        decides when (and whether) to fill.
        """
        stats = self.stats
        stats.accesses += 1
        if self._sets[block & self._mask].touch(block, is_write):
            stats.hits += 1
            return True
        stats.misses += 1
        return False

    def fill(self, block: BlockAddress, dirty: bool) -> Optional[EvictedLine]:
        """Install ``block``, returning any displaced line."""
        evicted = self._sets[block & self._mask].fill(block, dirty)
        stats = self.stats
        stats.fills += 1
        if evicted is not None:
            stats.evictions += 1
            if evicted.dirty:
                stats.dirty_evictions += 1
        return evicted

    def invalidate(self, block: BlockAddress) -> Optional[EvictedLine]:
        """Remove ``block`` (inclusive back-invalidation), if present."""
        removed = self._sets[block & self._mask].invalidate(block)
        if removed is not None:
            stats = self.stats
            stats.invalidations += 1
            if removed.dirty:
                stats.dirty_invalidations += 1
        return removed

    def mark_clean(self, block: BlockAddress) -> bool:
        """Clear ``block``'s dirty bit (after its data was written back)."""
        return self._sets[block & self._mask].mark_clean(block)

    def resident_blocks(self) -> List[BlockAddress]:
        """All block addresses currently resident, set by set."""
        blocks: List[BlockAddress] = []
        for cache_set in self._sets:
            blocks.extend(cache_set.resident_blocks())
        return blocks

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(cache_set) for cache_set in self._sets)

    def find(self, block: BlockAddress) -> Optional[CacheLine]:
        """The resident line record for ``block``, if any."""
        return self._sets[block & self._mask].find(block)


class PredictionView:
    """Copy-on-write stand-in for a live cache during prediction replay.

    Shares the live cache's sets and clones one set the first time a
    hit or a fill lands in it; a miss reads the live set and copies
    nothing.  The view keeps no stats.  It is valid only while the live
    cache does not change — next-miss prediction swaps it in, replays,
    and discards it before the live stack moves again — so a set the
    view never wrote still holds exactly what the view would have.
    """

    __slots__ = ("_shared", "_sets", "_mask")

    def __init__(self, live: SetAssociativeCache) -> None:
        # ``_sets`` starts as the live list's sets; an entry that is
        # still ``_shared[index]`` has not been cloned yet.
        self._shared = live._sets
        self._sets = list(live._sets)
        self._mask = live._mask

    def _own(self, index: int) -> CacheSet:
        """The view's private copy of set ``index``, cloned on demand."""
        cache_set = self._sets[index]
        if cache_set is self._shared[index]:
            cache_set = self._sets[index] = cache_set.clone()
        return cache_set

    def access(self, block: BlockAddress, is_write: bool) -> bool:
        index = block & self._mask
        if block not in self._sets[index]._index:
            return False
        return self._own(index).touch(block, is_write)

    def fill(self, block: BlockAddress, dirty: bool) -> Optional[EvictedLine]:
        return self._own(block & self._mask).fill(block, dirty)
