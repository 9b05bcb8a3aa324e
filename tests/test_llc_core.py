"""Unit tests for the partitioned LLC entry lifecycle and the directory."""

import pytest

from repro.common.errors import GeometryError, PartitionError, SimulationError
from repro.common.types import EntryState
from repro.llc.directory import OwnerDirectory
from repro.llc.llc import PartitionedLlc, WritebackOutcome
from repro.llc.partition import PartitionMap, PartitionSpec


def make_llc(num_sets=2, num_ways=2, cores=(0, 1), policy="lru"):
    partition = PartitionSpec(
        "shared", list(range(num_sets)), (0, num_ways), cores
    )
    pmap = PartitionMap([partition], num_sets, num_ways)
    return PartitionedLlc(num_sets, num_ways, pmap, policy=policy)


def allocate(llc, core, block):
    """Allocate ``block`` into the free entry of ``core``'s region for it."""
    region = llc.region(core, block)
    return llc.allocate(region, llc.free_entry(region), core, block)


class TestOwnerDirectory:
    def test_add_and_query(self):
        directory = OwnerDirectory()
        directory.add_owner(0, 10)
        directory.add_owner(1, 10)
        assert directory.owners_of(10) == frozenset({0, 1})
        assert directory.is_owner(0, 10)
        assert directory.has_owner(10)

    def test_remove_owner(self):
        directory = OwnerDirectory()
        directory.add_owner(0, 10)
        directory.remove_owner(0, 10)
        assert not directory.has_owner(10)
        assert directory.tracked_blocks() == 0

    def test_remove_nonowner_is_idempotent(self):
        directory = OwnerDirectory()
        directory.remove_owner(0, 10)
        directory.add_owner(1, 10)
        directory.remove_owner(0, 10)
        assert directory.owners_of(10) == frozenset({1})

    def test_drop_block_returns_owners(self):
        directory = OwnerDirectory()
        directory.add_owner(0, 10)
        assert directory.drop_block(10) == frozenset({0})
        assert directory.drop_block(10) == frozenset()

    def test_require_no_owner(self):
        directory = OwnerDirectory()
        directory.add_owner(2, 5)
        with pytest.raises(SimulationError):
            directory.require_no_owner(5)


class TestLlcLookupAndAllocate:
    def test_miss_then_allocate_then_hit(self):
        llc = make_llc()
        assert llc.lookup(llc.region(0, 10), 10) is None
        entry = allocate(llc, 0, 10)
        assert entry.state is EntryState.VALID
        hit = llc.lookup(llc.region(0, 10), 10)
        assert hit is entry
        assert llc.stats.hits == 1 and llc.stats.misses == 1

    def test_allocate_sets_owner(self):
        llc = make_llc()
        allocate(llc, 0, 10)
        assert llc.directory.is_owner(0, 10)

    def test_fold_places_block(self):
        llc = make_llc(num_sets=2)
        entry = allocate(llc, 0, 5)  # 5 % 2 == 1
        assert entry.set_index == 1

    def test_allocate_without_free_entry_rejected(self):
        llc = make_llc(num_sets=1, num_ways=1)
        entry = allocate(llc, 0, 0)
        region = llc.region(0, 1)
        assert llc.free_entry(region) is None
        with pytest.raises(SimulationError, match="not free"):
            llc.allocate(region, entry, 0, 1)

    def test_double_allocate_rejected(self):
        llc = make_llc()
        allocate(llc, 0, 10)
        with pytest.raises(SimulationError, match="already resident"):
            allocate(llc, 1, 10)

    def test_free_entry_reports_availability(self):
        llc = make_llc(num_sets=1, num_ways=2)
        assert llc.free_entry(llc.region(0, 0)) is not None
        allocate(llc, 0, 0)
        allocate(llc, 0, 1)
        assert llc.free_entry(llc.region(0, 2)) is None

    def test_probe_has_no_stat_effect(self):
        llc = make_llc()
        llc.probe(llc.region(0, 10), 10)
        assert llc.stats.accesses == 0

    def test_add_owner_requires_valid_block(self):
        llc = make_llc()
        with pytest.raises(SimulationError):
            llc.add_owner(0, 99)


class TestEvictionLifecycle:
    def fill_set(self, llc, blocks=(0, 2)):
        for block in blocks:
            allocate(llc, 0, block)

    def test_choose_victim_none_when_empty(self):
        llc = make_llc()
        assert llc.choose_victim(llc.region(0, 0)) is None

    def test_choose_victim_reports_owners(self):
        llc = make_llc(num_sets=1, num_ways=1)
        allocate(llc, 1, 0)
        victim = llc.choose_victim(llc.region(0, 4))
        assert victim.block == 0
        assert victim.owners == frozenset({1})

    def test_eviction_with_dirty_owner_goes_pending(self):
        llc = make_llc(num_sets=1, num_ways=1)
        allocate(llc, 1, 0)
        victim = llc.choose_victim(llc.region(0, 4))
        freed = llc.begin_eviction(victim, dirty_owners=[1])
        assert not freed
        entry = llc.entry(0, 0)
        assert entry.state is EntryState.PENDING_EVICT
        assert entry.pending_writers == {1}
        assert llc.block_is_pending(0)

    def test_eviction_without_dirty_owner_frees_now(self):
        llc = make_llc(num_sets=1, num_ways=1)
        allocate(llc, 1, 0)
        victim = llc.choose_victim(llc.region(0, 4))
        freed = llc.begin_eviction(victim, dirty_owners=[])
        assert freed
        assert llc.entry(0, 0).state is EntryState.FREE
        assert not llc.directory.has_owner(0)

    def test_pending_entry_does_not_hit(self):
        llc = make_llc(num_sets=1, num_ways=1)
        allocate(llc, 1, 0)
        llc.begin_eviction(llc.choose_victim(llc.region(0, 4)), dirty_owners=[1])
        assert llc.lookup(llc.region(1, 0), 0) is None

    def test_writeback_frees_pending_entry(self):
        llc = make_llc(num_sets=1, num_ways=1)
        allocate(llc, 1, 0)
        llc.begin_eviction(llc.choose_victim(llc.region(0, 4)), dirty_owners=[1])
        outcome = llc.complete_writeback(1, 0)
        assert outcome is WritebackOutcome.FREED
        assert llc.entry(0, 0).state is EntryState.FREE

    def test_multi_owner_pending_until_last_writer(self):
        llc = make_llc(num_sets=1, num_ways=1)
        allocate(llc, 0, 0)
        llc.add_owner(1, 0)
        victim = llc.choose_victim(llc.region(0, 4))
        llc.begin_eviction(victim, dirty_owners=[0, 1])
        assert llc.complete_writeback(0, 0) is WritebackOutcome.PENDING
        assert llc.complete_writeback(1, 0) is WritebackOutcome.FREED

    def test_capacity_writeback_updates_valid_entry(self):
        llc = make_llc()
        allocate(llc, 0, 10)
        outcome = llc.complete_writeback(0, 10)
        assert outcome is WritebackOutcome.UPDATED
        assert llc.entry(llc.fold(0, 10), 0).dirty

    def test_writeback_for_absent_block_goes_dram_direct(self):
        llc = make_llc()
        assert llc.complete_writeback(0, 77) is WritebackOutcome.DRAM_DIRECT

    def test_stale_victim_rejected(self):
        llc = make_llc(num_sets=1, num_ways=1)
        allocate(llc, 1, 0)
        victim = llc.choose_victim(llc.region(0, 4))
        llc.begin_eviction(victim, dirty_owners=[])
        with pytest.raises(SimulationError, match="stale victim"):
            llc.begin_eviction(victim, dirty_owners=[])

    def test_region_availability(self):
        llc = make_llc(num_sets=1, num_ways=2)
        region = llc.region(0, 0)
        assert (region.free, region.pending) == (2, 0)
        allocate(llc, 0, 0)
        allocate(llc, 1, 1)
        assert (region.free, region.pending) == (0, 0)
        llc.begin_eviction(llc.choose_victim(llc.region(0, 2)), dirty_owners=[0])
        assert (region.free, region.pending) == (0, 1)

    def test_note_private_drop_clears_ownership(self):
        llc = make_llc()
        allocate(llc, 0, 10)
        llc.note_private_drop(0, 10)
        assert not llc.directory.is_owner(0, 10)


class TestStaleRegionCounts:
    """Counts that drifted from the entry states never hand out a
    non-``FREE`` entry, and a state flipped behind the counts' back
    (the corrupted-line fault) is neither allocated nor victimised."""

    def full_region(self):
        llc = make_llc(num_sets=1, num_ways=2)
        allocate(llc, 0, 0)
        allocate(llc, 1, 1)
        return llc, llc.region(0, 0)

    def test_state_flipped_to_free_is_not_handed_out(self):
        llc, region = self.full_region()
        # Way 0 is the LRU line, the victim an intact region would give.
        assert llc.choose_victim(region).way == 0
        llc.entry(0, 0).state = EntryState.FREE
        assert region.free == 0
        assert llc.free_entry(region) is None
        victim = llc.choose_victim(region)
        assert victim.way == 1 and victim.block == 1

    def test_inflated_free_count_finds_no_entry(self):
        llc, region = self.full_region()
        region.free += 1
        assert llc.free_entry(region) is None


class TestWayPartitionIsolation:
    def make_two_partition_llc(self):
        parts = [
            PartitionSpec("a", [0], (0, 1), (0,)),
            PartitionSpec("b", [0], (1, 2), (1,)),
        ]
        pmap = PartitionMap(parts, 1, 2)
        return PartitionedLlc(1, 2, pmap)

    def test_allocation_restricted_to_partition_ways(self):
        llc = self.make_two_partition_llc()
        entry = allocate(llc, 0, 10)
        assert entry.way == 0
        entry_b = allocate(llc, 1, 11)
        assert entry_b.way == 1

    def test_lookup_does_not_cross_partition(self):
        llc = self.make_two_partition_llc()
        allocate(llc, 0, 10)
        assert llc.lookup(llc.region(1, 10), 10) is None

    def test_victims_chosen_within_partition(self):
        llc = self.make_two_partition_llc()
        allocate(llc, 0, 10)
        allocate(llc, 1, 11)
        victim = llc.choose_victim(llc.region(0, 12))
        assert victim.way == 0 and victim.block == 10


class TestInvariantsAndValidation:
    def test_validate_clean_llc(self):
        llc = make_llc()
        allocate(llc, 0, 0)
        llc.validate()

    @pytest.mark.parametrize("sets", [None, [0]])
    def test_validate_detects_region_count_drift(self, sets):
        llc = make_llc(num_sets=1, num_ways=2)
        allocate(llc, 0, 0)
        llc.validate(sets=sets)
        llc.region(0, 0).pending += 1
        with pytest.raises(SimulationError, match="region counts"):
            llc.validate(sets=sets)

    def test_forget_line_frees_without_back_invalidation(self):
        llc = make_llc(num_sets=1, num_ways=2)
        allocate(llc, 0, 0)
        entry = llc.forget_line(0)
        assert entry.state is EntryState.FREE
        assert llc.valid_entry(0) is None
        assert not llc.directory.has_owner(0)
        region = llc.region(0, 0)
        assert (region.free, region.pending) == (2, 0)
        llc.validate()

    def test_region_is_resolved_per_core_partition(self):
        llc = make_llc(num_sets=2)
        assert llc.region(0, 5) is llc.region(1, 3)
        assert llc.region(0, 5).set_index == llc.fold(0, 5) == 1
        with pytest.raises(PartitionError):
            llc.region(7, 0)
        with pytest.raises(PartitionError):
            llc.partition_of(7)

    def test_validate_detects_corruption(self):
        llc = make_llc()
        allocate(llc, 0, 0)
        llc.entry(0, 0).block = 99  # corrupt behind the index's back
        with pytest.raises(SimulationError):
            llc.validate()

    def test_occupancy_counts(self):
        llc = make_llc(num_sets=2, num_ways=2)
        allocate(llc, 0, 0)
        allocate(llc, 0, 1)
        assert llc.occupancy() == 2
        assert llc.pending_evictions() == 0

    def test_geometry_mismatch_with_map_rejected(self):
        partition = PartitionSpec("p", [0], (0, 2), (0,))
        pmap = PartitionMap([partition], 1, 2)
        with pytest.raises(GeometryError):
            PartitionedLlc(2, 2, pmap)

    def test_oracle_policy_accessor(self):
        llc = make_llc(policy="oracle")
        llc.oracle_policy(0).set_chooser(lambda candidates, _s: candidates[-1])
        allocate(llc, 0, 0)
        allocate(llc, 0, 2)
        victim = llc.choose_victim(llc.region(0, 4))
        assert victim.way == 1

    def test_oracle_accessor_rejected_for_other_policies(self):
        llc = make_llc(policy="lru")
        with pytest.raises(SimulationError):
            llc.oracle_policy(0)
