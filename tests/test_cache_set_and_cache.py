"""Unit tests for CacheSet and SetAssociativeCache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cacheset import CacheSet
from repro.cache.replacement import LruPolicy
from repro.cache.sa_cache import SetAssociativeCache
from repro.common.errors import GeometryError, SimulationError


def make_set(ways: int = 2) -> CacheSet:
    return CacheSet(ways, LruPolicy(ways))


class TestCacheSet:
    def test_starts_empty(self):
        cache_set = make_set()
        assert len(cache_set) == 0
        assert not cache_set.is_full

    def test_fill_and_find(self):
        cache_set = make_set()
        assert cache_set.fill(10, dirty=False) is None
        line = cache_set.find(10)
        assert line is not None and not line.dirty

    def test_fill_dirty(self):
        cache_set = make_set()
        cache_set.fill(10, dirty=True)
        assert cache_set.find(10).dirty

    def test_fill_evicts_lru_when_full(self):
        cache_set = make_set(2)
        cache_set.fill(1, dirty=False)
        cache_set.fill(2, dirty=True)
        evicted = cache_set.fill(3, dirty=False)
        assert evicted is not None
        assert evicted.block == 1
        assert not evicted.dirty

    def test_eviction_reports_dirtiness(self):
        cache_set = make_set(1)
        cache_set.fill(1, dirty=True)
        evicted = cache_set.fill(2, dirty=False)
        assert evicted.block == 1 and evicted.dirty

    def test_touch_marks_dirty_on_write(self):
        cache_set = make_set()
        cache_set.fill(1, dirty=False)
        assert cache_set.touch(1, is_write=True)
        assert cache_set.find(1).dirty

    def test_touch_miss_returns_false(self):
        assert not make_set().touch(99, is_write=False)

    def test_touch_refreshes_lru(self):
        cache_set = make_set(2)
        cache_set.fill(1, dirty=False)
        cache_set.fill(2, dirty=False)
        cache_set.touch(1, is_write=False)
        evicted = cache_set.fill(3, dirty=False)
        assert evicted.block == 2

    def test_double_fill_is_a_bug(self):
        cache_set = make_set()
        cache_set.fill(1, dirty=False)
        with pytest.raises(SimulationError):
            cache_set.fill(1, dirty=False)

    def test_invalidate_removes(self):
        cache_set = make_set()
        cache_set.fill(1, dirty=True)
        removed = cache_set.invalidate(1)
        assert removed.block == 1 and removed.dirty
        assert cache_set.find(1) is None

    def test_invalidate_absent_returns_none(self):
        assert make_set().invalidate(5) is None

    def test_invalidate_frees_capacity(self):
        cache_set = make_set(1)
        cache_set.fill(1, dirty=False)
        cache_set.invalidate(1)
        assert cache_set.fill(2, dirty=False) is None

    def test_mark_clean(self):
        cache_set = make_set()
        cache_set.fill(1, dirty=True)
        assert cache_set.mark_clean(1)
        assert not cache_set.find(1).dirty

    def test_mark_clean_absent(self):
        assert not make_set().mark_clean(9)

    def test_resident_blocks(self):
        cache_set = make_set(4)
        for block in (5, 6, 7):
            cache_set.fill(block, dirty=False)
        assert sorted(cache_set.resident_blocks()) == [5, 6, 7]

    def test_policy_way_count_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            CacheSet(4, LruPolicy(2))


class TestSetAssociativeCache:
    def make(self, sets=4, ways=2, policy="lru"):
        return SetAssociativeCache("test", sets, ways, policy)

    def test_capacity(self):
        assert self.make(4, 2).capacity_lines == 8

    def test_set_index_is_block_mod_sets(self):
        cache = self.make(4, 2)
        assert cache.set_index(0) == 0
        assert cache.set_index(5) == 1
        assert cache.set_index(7) == 3

    def test_miss_then_fill_then_hit(self):
        cache = self.make()
        assert not cache.access(10, is_write=False)
        cache.fill(10, dirty=False)
        assert cache.access(10, is_write=False)

    def test_stats_counting(self):
        cache = self.make()
        cache.access(1, False)
        cache.fill(1, False)
        cache.access(1, False)
        assert cache.stats.accesses == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.fills == 1

    def test_conflict_eviction_within_set(self):
        cache = self.make(sets=2, ways=1)
        cache.fill(0, dirty=False)
        evicted = cache.fill(2, dirty=False)  # same set (2 % 2 == 0)
        assert evicted.block == 0
        assert cache.stats.evictions == 1

    def test_different_sets_do_not_conflict(self):
        cache = self.make(sets=2, ways=1)
        cache.fill(0, dirty=False)
        assert cache.fill(1, dirty=False) is None

    def test_dirty_eviction_counted(self):
        cache = self.make(sets=1, ways=1)
        cache.fill(0, dirty=True)
        cache.fill(1, dirty=False)
        assert cache.stats.dirty_evictions == 1

    def test_write_access_dirties(self):
        cache = self.make()
        cache.fill(3, dirty=False)
        cache.access(3, is_write=True)
        assert cache.is_dirty(3)

    def test_invalidate_counts(self):
        cache = self.make()
        cache.fill(3, dirty=True)
        cache.invalidate(3)
        assert cache.stats.invalidations == 1
        assert cache.stats.dirty_invalidations == 1

    def test_occupancy_and_resident_blocks(self):
        cache = self.make(4, 2)
        for block in (0, 1, 2):
            cache.fill(block, dirty=False)
        assert cache.occupancy() == 3
        assert sorted(cache.resident_blocks()) == [0, 1, 2]

    def test_contains_has_no_side_effects(self):
        cache = self.make()
        cache.fill(1, dirty=False)
        cache.contains(1)
        assert cache.stats.accesses == 0

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(GeometryError):
            self.make(sets=3)

    def test_rejects_zero_ways(self):
        with pytest.raises(GeometryError):
            SetAssociativeCache("x", 4, 0)

    def test_hit_rate(self):
        cache = self.make()
        cache.fill(1, dirty=False)
        cache.access(1, False)
        cache.access(2, False)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_stats_merge(self):
        first = self.make()
        second = self.make()
        first.access(1, False)
        second.fill(1, False)
        second.access(1, False)
        merged = first.stats.merge(second.stats)
        assert merged.accesses == 2
        assert merged.hits == 1
        assert merged.misses == 1


class RecordingLru(LruPolicy):
    """LRU that records the ways it fills and every victim query."""

    def __init__(self, ways):
        super().__init__(ways)
        self.filled = []
        self.queries = []

    def on_fill(self, way):
        self.filled.append(way)
        super().on_fill(way)

    def victim(self, candidates):
        self.queries.append(tuple(candidates))
        return super().victim(candidates)


@given(
    ways=st.integers(min_value=1, max_value=4),
    operations=st.lists(
        st.tuples(st.sampled_from(["fill", "invalidate"]), st.integers(0, 7)),
        max_size=60,
    ),
)
@settings(max_examples=200)
def test_fill_takes_lowest_free_way_and_queries_policy_only_when_full(
    ways, operations
):
    policy = RecordingLru(ways)
    cache_set = CacheSet(ways, policy)
    slots = [None] * ways  # brute-force model: block held by each way
    for op, block in operations:
        if op == "invalidate":
            removed = cache_set.invalidate(block)
            assert (removed is not None) == (block in slots)
            if block in slots:
                slots[slots.index(block)] = None
            continue
        if block in slots:
            continue
        queries_before = len(policy.queries)
        evicted = cache_set.fill(block, dirty=False)
        way = policy.filled[-1]
        if None in slots:
            assert way == slots.index(None)
            assert evicted is None
            assert len(policy.queries) == queries_before
        else:
            assert policy.queries[queries_before:] == [tuple(range(ways))]
            assert evicted is not None and evicted.block == slots[way]
        slots[way] = block
        assert sorted(cache_set.resident_blocks()) == sorted(
            b for b in slots if b is not None
        )
