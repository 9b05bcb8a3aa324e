"""The partitioned, inclusive last-level cache.

This is the model's centrepiece: a set-associative L3 whose entries move
through the ``FREE`` → ``VALID`` → ``PENDING_EVICT`` lifecycle described
in DESIGN.md.  The slow path that the paper analyses arises entirely
from one rule encoded here: **an entry whose line is cached dirty by
some core cannot be reused until that core spends one of its own bus
slots writing the line back** (the inclusive property of Section 3).

The LLC itself is passive: it never advances time.  The slot engine
(:mod:`repro.sim.engine`) drives it — looking lines up, asking for
victims, invalidating private copies, and delivering write-backs — and
the LLC keeps the storage, the replacement state, the owner directory
and the statistics consistent.
"""

from __future__ import annotations

import enum
import random
import weakref
from dataclasses import dataclass, field
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.cache.replacement import OraclePolicy, ReplacementPolicy, make_policy
from repro.cache.stats import CacheStats
from repro.common.errors import GeometryError, PartitionError, SimulationError
from repro.common.types import BlockAddress, CoreId, EntryState
from repro.common.validation import require_positive
from repro.llc.directory import OwnerDirectory
from repro.llc.partition import PartitionMap, PartitionSpec

# The entry states as module constants: on CPython 3.11, reading an
# enum member off its class costs about ten global reads, and the miss
# chain's way scans compare states dozens of times per request.
_FREE = EntryState.FREE
_VALID = EntryState.VALID
_PENDING_EVICT = EntryState.PENDING_EVICT


@dataclass(slots=True)
class LlcEntry:
    """One way of one physical LLC set.

    Slotted: every system build makes one per LLC way (512 for the
    paper's 32 x 16 LLC).
    """

    set_index: int
    way: int
    state: EntryState = EntryState.FREE
    block: Optional[BlockAddress] = None
    dirty: bool = False
    #: When ``PENDING_EVICT``: dirty private owners whose write-back the
    #: entry still waits for.
    pending_writers: Set[CoreId] = field(default_factory=set)
    #: Weak reference to the entry's region (see ``region``); the LLC's
    #: own hot paths call it directly instead of the property.
    _region: Optional["weakref.ReferenceType[LlcRegion]"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def region(self) -> Optional["LlcRegion"]:
        """The (partition × set) region the entry belongs to; ``None``
        for cells no partition covers.  Fixed at construction.

        Held weakly: the region lists its entries, so a strong
        back-reference would make every LLC a reference cycle that
        only the cyclic garbage collector frees, long after its run.
        """
        return None if self._region is None else self._region()

    @property
    def is_free(self) -> bool:
        # No model caller; perf/layers.py counts its calls per slot step
        # (``llc.is_free_per_step``), so it stays while that metric does.
        return self.state is _FREE

    @property
    def is_valid(self) -> bool:
        return self.state is _VALID

    @property
    def is_pending(self) -> bool:
        return self.state is _PENDING_EVICT


@dataclass(eq=False)
class LlcRegion:
    """One (partition × physical set) region and its availability counts.

    ``entries`` are the region's ways in ascending order.  ``free`` and
    ``pending`` count its ``FREE`` and ``PENDING_EVICT`` entries; they
    are derived bookkeeping, not model state — kept in step at the
    lifecycle transitions so the engine reads them in O(1), rebuilt from
    the entries by :meth:`PartitionedLlc._reindex`, and checked against
    a scan by :meth:`PartitionedLlc.validate`.
    """

    partition: PartitionSpec
    set_index: int
    entries: List[LlcEntry]
    free: int = 0
    pending: int = 0


class VictimInfo:
    """A victim chosen for eviction, before its effects are applied.

    Built once per eviction on the miss chain, so a plain slotted class
    filled positionally rather than a frozen dataclass.
    """

    __slots__ = ("set_index", "way", "block", "owners", "llc_dirty")

    def __init__(
        self,
        set_index: int,
        way: int,
        block: BlockAddress,
        owners: FrozenSet[CoreId],
        llc_dirty: bool,
    ) -> None:
        self.set_index = set_index
        self.way = way
        self.block = block
        self.owners = owners
        self.llc_dirty = llc_dirty


class WritebackOutcome(enum.Enum):
    """What a write-back arriving at the LLC did."""

    #: It was the last awaited write-back of a ``PENDING_EVICT`` entry;
    #: the entry is now ``FREE``.
    FREED = "freed"
    #: A write-back for a still-``PENDING_EVICT`` entry that awaits
    #: further owners (only possible with shared data).
    PENDING = "pending"
    #: It updated a ``VALID`` entry (an ordinary capacity write-back).
    UPDATED = "updated"
    #: The block is no longer resident; the data went straight to DRAM.
    DRAM_DIRECT = "dram-direct"


@dataclass
class LlcExtraStats:
    """LLC-specific counters beyond the generic :class:`CacheStats`."""

    back_invalidations: int = 0
    silent_back_invalidations: int = 0
    evictions_started: int = 0
    entries_freed: int = 0
    dram_writebacks: int = 0
    blocked_no_free_entry: int = 0


class PartitionedLlc:
    """Inclusive set-associative LLC carved into partitions.

    Parameters
    ----------
    num_sets, num_ways:
        Physical geometry (the paper's evaluation uses 32 sets × 16
        ways).
    partition_map:
        The carving; every allocating core must appear in it.
    policy:
        Replacement policy name (per physical set); ``"oracle"``
        installs :class:`~repro.cache.replacement.OraclePolicy` hooks
        used by adversarial workloads.
    rng:
        Seeded stream for stochastic policies.
    """

    def __init__(
        self,
        num_sets: int,
        num_ways: int,
        partition_map: PartitionMap,
        policy: str = "lru",
        rng: Optional[random.Random] = None,
        name: str = "LLC",
    ) -> None:
        require_positive(num_sets, "num_sets", GeometryError)
        require_positive(num_ways, "num_ways", GeometryError)
        if partition_map.num_sets != num_sets or partition_map.num_ways != num_ways:
            raise GeometryError(
                f"partition map was validated against {partition_map.num_sets}x"
                f"{partition_map.num_ways} but LLC is {num_sets}x{num_ways}"
            )
        self.name = name
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.partition_map = partition_map
        self.policy_name = policy
        self.stats = CacheStats()
        self.extra = LlcExtraStats()
        self.directory = OwnerDirectory()
        self._entries: List[List[LlcEntry]] = [
            [LlcEntry(s, w) for w in range(num_ways)]
            for s in range(num_sets)
        ]
        self._policies: List[ReplacementPolicy] = []
        for set_index in range(num_sets):
            set_policy = make_policy(policy, num_ways, rng)
            if isinstance(set_policy, OraclePolicy):
                set_policy.bind_set(set_index)
            self._policies.append(set_policy)
        # block -> entry, for VALID and PENDING_EVICT entries respectively
        self._valid_index: Dict[BlockAddress, LlcEntry] = {}
        self._pending_index: Dict[BlockAddress, LlcEntry] = {}
        # Partitions are immutable, so each core's partition and its
        # (partition, set) regions are precomputed — these sit on the
        # engine's hottest path.  A partition's regions are listed in
        # fold order: block b lands in regions[b % len(regions)].
        self._regions: Dict[str, Tuple[LlcRegion, ...]] = {}
        self._core_regions: Dict[CoreId, Tuple[LlcRegion, ...]] = {}
        for spec in partition_map.partitions:
            regions = []
            for set_index in spec.sets:
                region = LlcRegion(
                    partition=spec,
                    set_index=set_index,
                    entries=[self._entries[set_index][way] for way in spec.ways()],
                )
                for entry in region.entries:
                    entry._region = weakref.ref(region)
                regions.append(region)
            self._regions[spec.name] = tuple(regions)
            for core in spec.cores:
                self._core_regions[core] = self._regions[spec.name]
        self._reindex()

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def partition_of(self, core: CoreId) -> PartitionSpec:
        """The partition ``core`` allocates into."""
        return self.region(core, 0).partition

    def region(self, core: CoreId, block: BlockAddress) -> LlcRegion:
        """The (partition × set) region ``block`` folds onto for ``core``.

        The engine resolves this once per bus request and hands it to
        every LLC query the request makes.
        """
        regions = self._core_regions.get(core)
        if regions is None:
            raise PartitionError(f"core {core} has no LLC partition")
        return regions[block % len(regions)]

    def regions(self) -> List[LlcRegion]:
        """Every region of every partition."""
        return [region for group in self._regions.values() for region in group]

    def fold(self, core: CoreId, block: BlockAddress) -> int:
        """Physical set ``block`` maps to for ``core``'s partition."""
        return self.region(core, block).set_index

    def entry(self, set_index: int, way: int) -> LlcEntry:
        """Direct access to one entry (tests and invariants)."""
        return self._entries[set_index][way]

    def oracle_policy(self, set_index: int) -> OraclePolicy:
        """The oracle policy of a set (adversarial steering hook)."""
        set_policy = self._policies[set_index]
        if not isinstance(set_policy, OraclePolicy):
            raise SimulationError(
                f"set {set_index} uses policy {self.policy_name!r}, not 'oracle'"
            )
        return set_policy

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def lookup(self, region: LlcRegion, block: BlockAddress) -> Optional[LlcEntry]:
        """Probe ``region`` for a hit on ``block``; counts stats.

        Only ``VALID`` entries hit: a ``PENDING_EVICT`` line is logically
        gone (its eviction is merely waiting for the bus).
        """
        self.stats.accesses += 1
        entry = self._valid_index.get(block)
        if entry is not None and entry._region() is region:
            self.stats.hits += 1
            self._policies[entry.set_index].on_access(entry.way)
            return entry
        self.stats.misses += 1
        return None

    def probe(self, region: LlcRegion, block: BlockAddress) -> Optional[LlcEntry]:
        """Like :meth:`lookup` but with no statistics or policy effects."""
        entry = self._valid_index.get(block)
        if entry is not None and entry._region() is region:
            return entry
        return None

    def free_entry(self, region: LlcRegion) -> Optional[LlcEntry]:
        """The lowest-way ``FREE`` entry of ``region``, if any.

        ``None`` at once when the region's ``free`` count is zero;
        otherwise the entry states decide, so a count that drifted from
        them never yields an entry :meth:`allocate` would refuse.
        """
        if not region.free:
            return None
        for entry in region.entries:
            if entry.state is _FREE:
                return entry
        return None

    def pending_entry(self, block: BlockAddress) -> Optional[LlcEntry]:
        """The ``PENDING_EVICT`` entry holding ``block``, if any."""
        return self._pending_index.get(block)

    def valid_entry(self, block: BlockAddress) -> Optional[LlcEntry]:
        """The ``VALID`` entry holding ``block``, if any (no stats)."""
        return self._valid_index.get(block)

    def pending_entries(self) -> List[LlcEntry]:
        """All ``PENDING_EVICT`` entries (invariant monitors iterate these)."""
        return list(self._pending_index.values())

    def block_is_pending(self, block: BlockAddress) -> bool:
        """Whether ``block`` itself sits in a ``PENDING_EVICT`` entry.

        A request for such a block cannot allocate (the block would be
        resident twice); it must wait for the eviction's write-back to
        free the entry.
        """
        return block in self._pending_index

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(
        self,
        region: LlcRegion,
        entry: LlcEntry,
        core: CoreId,
        block: BlockAddress,
    ) -> LlcEntry:
        """Install ``block`` into ``entry``, a ``FREE`` entry of ``region``.

        ``region`` is ``core``'s region for ``block`` and ``entry`` is
        what :meth:`free_entry` returned for it; the caller resolves it
        once (and, under SS, checks that ``core`` is at the head of the
        set's sequencer queue) before installing.  The new line is clean
        at the LLC (just fetched from DRAM) and ``core`` becomes its
        private owner.
        """
        existing = self._valid_index.get(block) or self._pending_index.get(block)
        if existing is not None:
            raise SimulationError(
                f"block {block:#x} already resident at set {existing.set_index} "
                f"way {existing.way} ({existing.state.value}); workloads must "
                "keep partition address ranges disjoint"
            )
        if entry.state is not _FREE:
            raise SimulationError(
                f"allocate for core {core} block {block:#x}: entry at set "
                f"{entry.set_index} way {entry.way} is {entry.state.value}, "
                f"not free, in partition {region.partition.name!r}"
            )
        region.free -= 1
        entry.state = _VALID
        entry.block = block
        entry.dirty = False
        if entry.pending_writers:
            entry.pending_writers.clear()
        self._valid_index[block] = entry
        self._policies[entry.set_index].on_fill(entry.way)
        self.directory.add_owner(core, block)
        self.stats.fills += 1
        return entry

    def add_owner(self, core: CoreId, block: BlockAddress) -> None:
        """Record that ``core`` filled its private caches with ``block``."""
        if block not in self._valid_index:
            raise SimulationError(
                f"add_owner for block {block:#x} which is not VALID in the LLC"
            )
        self.directory.add_owner(core, block)

    def note_private_drop(self, core: CoreId, block: BlockAddress) -> None:
        """``core``'s private caches no longer hold ``block``.

        Called when the L2 displaces a line by capacity — clean or
        dirty.  For a dirty victim the write-back data is still in
        flight in the PWB; ownership ends now regardless, because the
        *copy* is gone (a later LLC eviction of the block must not wait
        on this core, whose data will arrive as ``DRAM_DIRECT``).
        """
        self.directory.remove_owner(core, block)

    # ------------------------------------------------------------------
    # Eviction lifecycle
    # ------------------------------------------------------------------
    def choose_victim(self, region: LlcRegion) -> Optional[VictimInfo]:
        """Pick a victim for a miss in ``region``; no mutation.

        Candidates are the ``VALID`` entries of the region; ``None``
        when the region has no valid entry to evict (everything is
        already free or pending).
        """
        set_index = region.set_index
        candidates = [
            entry.way
            for entry in region.entries
            if entry.state is _VALID
        ]
        if not candidates:
            return None
        way = self._policies[set_index].victim(candidates)
        if way not in candidates:
            raise SimulationError(
                f"policy for set {set_index} chose way {way} outside "
                f"candidates {candidates}"
            )
        victim = self._entries[set_index][way]
        assert victim.block is not None
        return VictimInfo(
            set_index,
            way,
            victim.block,
            self.directory.owners_of(victim.block),
            victim.dirty,
        )

    def begin_eviction(
        self, victim: VictimInfo, dirty_owners: Collection[CoreId]
    ) -> bool:
        """Apply an eviction decision.

        ``dirty_owners`` are the private owners whose copy was dirty (as
        discovered by the engine when it back-invalidated the private
        stacks); each will later deliver a write-back.  Returns ``True``
        when the entry is immediately ``FREE`` (no dirty owner), in
        which case an LLC-dirty line has gone straight to DRAM —
        the LLC↔DRAM interface does not use the TDM bus.
        """
        entry = self._entries[victim.set_index][victim.way]
        if entry.state is not _VALID or entry.block != victim.block:
            raise SimulationError(
                f"begin_eviction on stale victim: entry holds "
                f"{entry.block!r} ({entry.state.value}), victim was {victim.block:#x}"
            )
        self.stats.evictions += 1
        self.extra.evictions_started += 1
        del self._valid_index[victim.block]
        # The owners are in ``victim.owners``; drop them without the
        # copy drop_block would return.
        self.directory._owners.pop(victim.block, None)
        self._policies[victim.set_index].on_invalidate(victim.way)
        if dirty_owners:
            writers = set(dirty_owners)
            entry.state = _PENDING_EVICT
            entry.pending_writers = writers
            entry._region().pending += 1
            self._pending_index[victim.block] = entry
            self.extra.back_invalidations += len(writers)
            return False
        if victim.llc_dirty:
            self.stats.dirty_evictions += 1
            self.extra.dram_writebacks += 1
        if victim.owners:
            self.extra.silent_back_invalidations += len(victim.owners)
        self._free_entry(entry)
        return True

    def complete_writeback(
        self, core: CoreId, block: BlockAddress
    ) -> WritebackOutcome:
        """Deliver ``core``'s write-back of ``block`` to the LLC."""
        pending = self._pending_index.get(block)
        if pending is not None:
            if core not in pending.pending_writers:
                # An in-flight capacity write-back from a core whose
                # ownership already ended: it cannot free the entry —
                # its data goes straight to DRAM.
                self.extra.dram_writebacks += 1
                return WritebackOutcome.DRAM_DIRECT
            pending.pending_writers.discard(core)
            if pending.pending_writers:
                return WritebackOutcome.PENDING
            del self._pending_index[block]
            pending._region().pending -= 1
            self.extra.dram_writebacks += 1
            self.stats.dirty_evictions += 1
            self._free_entry(pending)
            return WritebackOutcome.FREED
        valid = self._valid_index.get(block)
        if valid is not None:
            # Ownership already ended when the private copy left the L2
            # (note_private_drop); if the core has re-fetched the block
            # since, it is a legitimate owner again and must stay one.
            valid.dirty = True
            return WritebackOutcome.UPDATED
        # The line left the LLC while this write-back sat in the PWB;
        # the data still has a home in DRAM.
        self.extra.dram_writebacks += 1
        return WritebackOutcome.DRAM_DIRECT

    def forget_line(self, block: BlockAddress) -> LlcEntry:
        """Free ``block``'s ``VALID`` entry without back-invalidation.

        Not a model transition: it leaves any private copies stale,
        breaking inclusivity.  Fault injection uses it to model a
        spurious eviction while keeping the LLC's own bookkeeping
        consistent.
        """
        entry = self._valid_index.pop(block)
        self.directory.drop_block(block)
        self._free_entry(entry)
        return entry

    def _free_entry(self, entry: LlcEntry) -> None:
        entry.state = _FREE
        entry.block = None
        entry.dirty = False
        if entry.pending_writers:
            entry.pending_writers.clear()
        entry._region().free += 1
        self.extra.entries_freed += 1

    def _reindex(self) -> None:
        """Rebuild the block indexes and region counts from the entries.

        Construction starts from it, and checkpoint restore calls it
        after rewriting the entries in place.
        """
        self._valid_index = {}
        self._pending_index = {}
        for row in self._entries:
            for entry in row:
                if entry.state is _VALID:
                    self._valid_index[entry.block] = entry
                elif entry.state is _PENDING_EVICT:
                    self._pending_index[entry.block] = entry
        for region in self.regions():
            region.free, region.pending = _scan_counts(region)

    # ------------------------------------------------------------------
    # Introspection and invariants
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of ``VALID`` entries LLC-wide."""
        return len(self._valid_index)

    def pending_evictions(self) -> int:
        """Number of ``PENDING_EVICT`` entries LLC-wide."""
        return len(self._pending_index)

    def resident_blocks(self) -> List[BlockAddress]:
        """All ``VALID`` blocks."""
        return list(self._valid_index)

    def validate(self, sets: Optional[Iterable[int]] = None) -> None:
        """Check internal invariants; raises :class:`SimulationError`.

        Verified properties: index consistency, exclusive state per
        entry, that ``PENDING_EVICT`` entries await at least one writer,
        and that every region's ``(free, pending)`` counts match a scan
        of its entries.

        ``sets`` restricts the entry scan to the given set rows (the
        per-slot checked-mode monitor passes the partition-covered sets
        — the only rows that can ever hold a line — to avoid sweeping
        the whole geometry every slot).  The restricted form swaps the
        full-scan entry counts for reverse checks over both indexes, so
        its coverage matches the full scan whenever every resident line
        lives in ``sets``.  Both forms check every region's counts.
        """
        if sets is not None:
            for set_index in sets:
                for entry in self._entries[set_index]:
                    self._validate_entry(entry)
            for block, entry in self._valid_index.items():
                if not entry.is_valid or entry.block != block:
                    raise SimulationError(
                        f"valid index out of sync for block {block:#x}"
                    )
            for block, entry in self._pending_index.items():
                if not entry.is_pending or entry.block != block:
                    raise SimulationError(
                        f"pending index out of sync for block {block:#x}"
                    )
            self._validate_region_counts()
            return
        valid_seen = 0
        pending_seen = 0
        for row in self._entries:
            for entry in row:
                self._validate_entry(entry)
                if entry.state is _VALID:
                    valid_seen += 1
                elif entry.state is _PENDING_EVICT:
                    pending_seen += 1
        if valid_seen != len(self._valid_index):
            raise SimulationError("valid index size mismatch")
        if pending_seen != len(self._pending_index):
            raise SimulationError("pending index size mismatch")
        self._validate_region_counts()

    def _validate_region_counts(self) -> None:
        for region in self.regions():
            counts = _scan_counts(region)
            if counts != (region.free, region.pending):
                raise SimulationError(
                    f"region counts out of sync for partition "
                    f"{region.partition.name!r} set {region.set_index}: "
                    f"(free, pending) kept as {(region.free, region.pending)}, "
                    f"scan finds {counts}"
                )

    def _validate_entry(self, entry: LlcEntry) -> None:
        if entry.is_valid:
            if entry.block is None:
                raise SimulationError("VALID entry without a block")
            if self._valid_index.get(entry.block) is not entry:
                raise SimulationError(
                    f"valid index out of sync for block {entry.block:#x}"
                )
        elif entry.is_pending:
            if entry.block is None:
                raise SimulationError("PENDING_EVICT entry without a block")
            if not entry.pending_writers:
                raise SimulationError(
                    f"PENDING_EVICT entry for block {entry.block:#x} "
                    "awaits no writer"
                )
            if self._pending_index.get(entry.block) is not entry:
                raise SimulationError(
                    f"pending index out of sync for block {entry.block:#x}"
                )
        else:
            if entry.block is not None or entry.pending_writers:
                raise SimulationError("FREE entry with residual state")


def _scan_counts(region: LlcRegion) -> Tuple[int, int]:
    """``(free, pending)`` of ``region`` counted from its entries."""
    free = pending = 0
    for entry in region.entries:
        if entry.state is _FREE:
            free += 1
        elif entry.state is _PENDING_EVICT:
            pending += 1
    return free, pending
