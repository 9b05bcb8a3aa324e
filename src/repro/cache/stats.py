"""Per-cache statistics counters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache.

    ``invalidations`` counts lines removed by inclusive back-
    invalidation from a lower level, which the paper's model charges to
    the owning core as a pending write-back when the line is dirty.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0
    dirty_invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit; 0.0 when there were none."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return element-wise sums of two counter sets."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            fills=self.fills + other.fills,
            evictions=self.evictions + other.evictions,
            dirty_evictions=self.dirty_evictions + other.dirty_evictions,
            invalidations=self.invalidations + other.invalidations,
            dirty_invalidations=self.dirty_invalidations + other.dirty_invalidations,
        )
