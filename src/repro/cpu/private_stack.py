"""A core's private cache stack: L1I + L1D over a unified L2.

The stack maintains the inclusive discipline the paper's system model
requires (Section 3): the L2 is inclusive of both L1s, and the enclosing
LLC is inclusive of the L2.  Dirtiness lives where the write happened
(an L1 write dirties only the L1 copy); it is merged downward on every
eviction or invalidation, so "is the private copy dirty?" — the question
that decides whether an LLC eviction costs a bus slot — is answered by
OR-ing the levels.

The L1s may be disabled (``l1_sets == 0``), which reproduces analyses
that only model the L2↔LLC boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from repro.cache.line import CacheLine, EvictedLine
from repro.cache.sa_cache import PredictionView, SetAssociativeCache
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import AccessType, BlockAddress, CoreId
from repro.common.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class PrivateStackConfig:
    """Geometry and latencies of one core's private caches.

    Defaults follow the paper's evaluation (Section 5): the L2 is a
    4-way set-associative cache with 16 sets; L1 sizes are not given in
    the paper, so small 2-way, 4-set L1s are used (32 lines total,
    comfortably inside the 64-line L2).
    """

    l1_sets: int = 4
    l1_ways: int = 2
    l2_sets: int = 16
    l2_ways: int = 4
    l1_hit_latency: int = 1
    l2_hit_latency: int = 4
    policy: str = "lru"

    def __post_init__(self) -> None:
        require_non_negative(self.l1_sets, "l1_sets", ConfigurationError)
        if self.l1_sets:
            require_positive(self.l1_ways, "l1_ways", ConfigurationError)
        require_positive(self.l2_sets, "l2_sets", ConfigurationError)
        require_positive(self.l2_ways, "l2_ways", ConfigurationError)
        require_positive(self.l1_hit_latency, "l1_hit_latency", ConfigurationError)
        require_positive(self.l2_hit_latency, "l2_hit_latency", ConfigurationError)

    @property
    def has_l1(self) -> bool:
        """Whether the stack models L1 caches at all."""
        return self.l1_sets > 0

    @property
    def l2_capacity_lines(self) -> int:
        """L2 capacity in lines (``m_cua`` in Theorem 4.7)."""
        return self.l2_sets * self.l2_ways


class StackAccessResult(NamedTuple):
    """Outcome of a core access against the private stack."""

    #: ``"L1"`` or ``"L2"`` on a hit; ``None`` means the access must go
    #: to the LLC.
    hit_level: Optional[str]
    #: Cycles the access costs when it hits privately (0 on a miss; the
    #: engine accounts miss latency via the bus).
    latency: int


# Access types as module constants: the access path compares one per
# access, and a module global reads faster than an enum member.
_WRITE = AccessType.WRITE
_INSTR = AccessType.INSTR

#: The outcome of every private miss; hits share one result per level
#: and stack (see PrivateStack.access), so no access allocates one.
_MISS = StackAccessResult(None, 0)


class FillResult(NamedTuple):
    """Side effects of installing an LLC response into the stack.

    ``l2_victim`` is the line the fill displaced from the L2, with its
    merged (L1 ∪ L2) dirtiness: if dirty it must be written back over
    the bus; if clean the LLC is merely notified the core no longer
    holds it.
    """

    l2_victim: Optional[EvictedLine]


#: The result of every fill that displaced nothing.
_NO_VICTIM = FillResult(None)


class _FrozenL2View:
    """Read-only stand-in for the live L2 during prediction replay.

    Between two external content changes (an LLC fill or a back-
    invalidation — exactly the events that bump ``PrivateStack.version``
    and invalidate a cached prediction) the L2's *membership* is frozen:
    a core's own accesses touch recency and dirty bits but never install
    or remove lines.  Stack-level hit/miss therefore only needs L2
    membership, which this view answers straight from the live cache —
    sparing the prediction clone the dominant cost of copying every L2
    set.  Mutations are absorbed: ``access`` skips recency/dirty/stats
    updates entirely, and ``find`` hands back a throwaway line copy so
    the L1 dirtiness push-down cannot touch the live line.
    """

    __slots__ = ("_live",)

    def __init__(self, live: SetAssociativeCache) -> None:
        self._live = live

    def access(self, block: BlockAddress, is_write: bool) -> bool:
        return self._live.contains(block)

    def contains(self, block: BlockAddress) -> bool:
        return self._live.contains(block)

    def find(self, block: BlockAddress):
        line = self._live.find(block)
        if line is None:
            return None
        return CacheLine(block=line.block, dirty=line.dirty)


class PrivateStack:
    """One core's private L1I/L1D/L2 hierarchy over block addresses."""

    def __init__(
        self,
        core: CoreId,
        config: Optional[PrivateStackConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.core = core
        self.config = config or PrivateStackConfig()
        cfg = self.config
        self.l1i: Optional[SetAssociativeCache] = None
        self.l1d: Optional[SetAssociativeCache] = None
        if cfg.has_l1:
            self.l1i = SetAssociativeCache(
                f"core{core}.L1I", cfg.l1_sets, cfg.l1_ways, cfg.policy, rng
            )
            self.l1d = SetAssociativeCache(
                f"core{core}.L1D", cfg.l1_sets, cfg.l1_ways, cfg.policy, rng
            )
        self.l2 = SetAssociativeCache(
            f"core{core}.L2", cfg.l2_sets, cfg.l2_ways, cfg.policy, rng
        )
        # The L1s that exist (both or neither), for walks over them.
        self._l1s = () if self.l1i is None else (self.l1i, self.l1d)
        self._l1_hit = StackAccessResult("L1", cfg.l1_hit_latency)
        self._l2_hit = StackAccessResult("L2", cfg.l2_hit_latency)
        #: Bumped on every externally-driven content change — an LLC
        #: fill (:meth:`fill_from_llc`) or inclusive back-invalidation
        #: (:meth:`invalidate_block`).  Ordinary :meth:`access` calls do
        #: NOT bump it: between two external changes the stack's hit/miss
        #: answers are a pure function of the core's own access stream,
        #: which is what lets the fast-forward engine cache its
        #: next-miss prediction (:meth:`repro.cpu.core.TraceDrivenCore.
        #: predict_next_bus_event`) against this counter.
        self.version = 0

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, block: BlockAddress, access: AccessType) -> StackAccessResult:
        """Run one access through L1 then L2.

        On an L2 hit the L1 is refilled; on an L2 miss nothing is
        installed — the fill happens later via :meth:`fill_from_llc`
        when the LLC response arrives over the bus.
        """
        is_write = access is _WRITE
        # Both L1s are None when the stack models no L1 at all.
        l1 = self.l1i if access is _INSTR else self.l1d
        if l1 is not None and l1.access(block, is_write):
            return self._l1_hit
        if self.l2.access(block, is_write):
            if l1 is not None:
                self._fill_l1(l1, block, is_write)
            return self._l2_hit
        return _MISS

    def fill_from_llc(self, block: BlockAddress, access: AccessType) -> FillResult:
        """Install the LLC response for ``block`` into L2 (and L1)."""
        self.version += 1
        is_write = access is _WRITE
        l2_victim = self.l2.fill(block, is_write)
        # The victim leaves the L1s before the new block enters one.
        result = _NO_VICTIM
        if l2_victim is not None:
            result = FillResult(self._back_invalidate_l1(l2_victim))
        l1 = self.l1i if access is _INSTR else self.l1d
        if l1 is not None:
            self._fill_l1(l1, block, is_write)
        return result

    def _fill_l1(self, l1: SetAssociativeCache, block: BlockAddress, dirty: bool) -> None:
        # ``block`` is never in ``l1`` here: it either just missed there
        # or was not in the L2, which holds every L1 line.
        victim = l1.fill(block, dirty)
        if victim is not None and victim.dirty:
            # Inclusive: the victim must still be in L2; push dirtiness down.
            line = self.l2.find(victim.block)
            if line is None:
                raise SimulationError(
                    f"core {self.core}: L1 victim {victim.block:#x} absent from "
                    "inclusive L2"
                )
            line.dirty = True

    def _back_invalidate_l1(self, l2_victim: EvictedLine) -> EvictedLine:
        """Remove an L2 victim's copies from both L1s, merging dirtiness."""
        dirty = l2_victim.dirty
        for l1 in self._l1s:
            removed = l1.invalidate(l2_victim.block)
            if removed is not None and removed.dirty:
                dirty = True
        if dirty == l2_victim.dirty:
            return l2_victim
        return EvictedLine(l2_victim.block, dirty)

    # ------------------------------------------------------------------
    # Inclusive back-invalidation from the LLC
    # ------------------------------------------------------------------
    def invalidate_block(self, block: BlockAddress) -> Optional[EvictedLine]:
        """Evict ``block`` everywhere (LLC chose it as a victim).

        Returns the removed line with merged dirtiness, or ``None`` if
        the stack no longer held it.  The L2 holds every L1 line, so a
        block it lacks is nowhere in the stack and the L1s are skipped.
        """
        removed_l2 = self.l2.invalidate(block)
        if removed_l2 is None:
            return None
        self.version += 1
        return self._back_invalidate_l1(removed_l2)

    # ------------------------------------------------------------------
    # Next-miss prediction
    # ------------------------------------------------------------------
    def clone_for_prediction(self) -> "PrivateStack":
        """A throwaway stack for next-miss prediction replay.

        Copies nothing up front: each L1 is a copy-on-write
        :class:`PredictionView` that clones a set only when a hit or a
        fill lands in it, and the L2 is a :class:`_FrozenL2View` over
        the live cache (prediction only runs while the L2's membership
        is frozen, see the view's docstring).  Both views read the live
        caches, so the result is valid only while the live stack does
        not change: :meth:`repro.cpu.core.TraceDrivenCore.
        predict_next_bus_event` swaps it in, replays, and discards it.
        """
        dup = PrivateStack.__new__(PrivateStack)
        dup.core = self.core
        dup.config = self.config
        # The views stand in for the caches they wrap (duck-typed).
        l1i, l1d = self.l1i, self.l1d
        dup.l1i = None if l1i is None else PredictionView(l1i)  # type: ignore
        dup.l1d = None if l1d is None else PredictionView(l1d)  # type: ignore
        dup.l2 = _FrozenL2View(self.l2)  # type: ignore[assignment]
        dup._l1s = () if dup.l1i is None else (dup.l1i, dup.l1d)
        dup._l1_hit = self._l1_hit
        dup._l2_hit = self._l2_hit
        dup.version = self.version
        return dup

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def contains(self, block: BlockAddress) -> bool:
        """Whether any private level holds ``block``."""
        if self.l2.contains(block):
            return True
        return any(l1.contains(block) for l1 in self._l1s)

    def is_dirty(self, block: BlockAddress) -> bool:
        """Whether the private copy of ``block`` is dirty at any level."""
        if self.l2.is_dirty(block):
            return True
        return any(l1.is_dirty(block) for l1 in self._l1s)

    def resident_blocks(self) -> List[BlockAddress]:
        """Blocks resident in the L2 (superset of the L1s, inclusive)."""
        return self.l2.resident_blocks()

    def check_l1_inclusion(self) -> None:
        """Assert every L1-resident block is also in L2."""
        for l1 in self._l1s:
            for block in l1.resident_blocks():
                if not self.l2.contains(block):
                    raise SimulationError(
                        f"core {self.core}: block {block:#x} in {l1.name} "
                        "but not in inclusive L2"
                    )
