"""Property-based test of the LLC entry lifecycle against a mirror model.

Drives the :class:`PartitionedLlc` with random—but protocol-legal—
operation sequences while a plain-dict mirror tracks what *should* be
resident, pending and owned, and how many entries each (partition × set)
region has free and pending.  Catches lifecycle bugs (double frees,
stale indexes, lost owners, drifting region counters) that scripted
tests can miss.

The geometry has two partitions that share no cell but do share a
physical set: ``shared`` (sets 0 and 2, ways 0–1, cores 0 and 1) and
``solo`` (sets 1–3, ways 2–3, core 2).  Their address ranges are
disjoint, as the model requires.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import EntryState
from repro.llc.llc import PartitionedLlc, WritebackOutcome
from repro.llc.partition import PartitionMap, PartitionSpec

SETS = 4
WAYS = 4
SHARED = PartitionSpec("shared", [0, 2], (0, 2), (0, 1))
SOLO = PartitionSpec("solo", [1, 2, 3], (2, 4), (2,))
PARTITION_OF = {0: SHARED, 1: SHARED, 2: SOLO}
#: Blocks per partition; core 2's range starts after the shared one.
BLOCKS_PER_PARTITION = 8


def make_llc():
    return PartitionedLlc(SETS, WAYS, PartitionMap([SHARED, SOLO], SETS, WAYS))


def block_of(core, index):
    return index + (BLOCKS_PER_PARTITION if PARTITION_OF[core] is SOLO else 0)


def region_key(core, block):
    partition = PARTITION_OF[core]
    return partition.name, partition.fold_set(block)


operations = st.lists(
    st.tuples(
        st.sampled_from(["request", "writeback"]),
        st.sampled_from(sorted(PARTITION_OF)),
        st.integers(0, BLOCKS_PER_PARTITION - 1),
    ),
    min_size=1,
    max_size=150,
)


class Mirror:
    """What the LLC should contain, tracked independently."""

    def __init__(self) -> None:
        self.valid: dict[int, set] = {}     # block -> owners
        self.pending: dict[int, set] = {}   # block -> awaited writers
        self.home: dict[int, tuple] = {}    # resident block -> region key
        self.free = {
            (partition.name, set_index): partition.num_ways
            for partition in (SHARED, SOLO)
            for set_index in partition.sets
        }

    def pending_in(self, key) -> int:
        return sum(1 for block in self.pending if self.home[block] == key)


def lowest_free_way(region):
    return min(
        entry.way for entry in region.entries if entry.state is EntryState.FREE
    )


@given(ops=operations)
@settings(max_examples=100)
def test_lifecycle_matches_mirror(ops):
    llc = make_llc()
    mirror = Mirror()
    for op, core, index in ops:
        block = block_of(core, index)
        key = region_key(core, block)
        if op == "request":
            if block in mirror.pending:
                continue  # own-block-pending: the engine would wait
            region = llc.region(core, block)
            assert (region.partition.name, region.set_index) == key
            if llc.lookup(region, block) is not None:
                assert block in mirror.valid
                llc.add_owner(core, block)
                mirror.valid[block].add(core)
                continue
            assert block not in mirror.valid
            if mirror.free[key] == 0:
                assert llc.free_entry(region) is None
                victim = llc.choose_victim(region)
                if victim is None:
                    continue  # everything pending; a real engine waits
                assert mirror.home[victim.block] == key
                owners = set(victim.owners)
                freed = llc.begin_eviction(victim, dirty_owners=owners)
                assert victim.block in mirror.valid
                del mirror.valid[victim.block]
                if owners:
                    assert not freed
                    mirror.pending[victim.block] = owners
                else:
                    assert freed
                    del mirror.home[victim.block]
                    mirror.free[key] += 1
            if mirror.free[key] > 0:
                entry = llc.free_entry(region)
                assert entry.way == lowest_free_way(region)
                assert llc.allocate(region, entry, core, block) is entry
                assert entry.region is region
                mirror.valid[block] = {core}
                mirror.home[block] = key
                mirror.free[key] -= 1
        else:  # writeback
            outcome = llc.complete_writeback(core, block)
            if block in mirror.pending and core in mirror.pending[block]:
                mirror.pending[block].discard(core)
                if mirror.pending[block]:
                    assert outcome is WritebackOutcome.PENDING
                else:
                    assert outcome is WritebackOutcome.FREED
                    del mirror.pending[block]
                    mirror.free[mirror.home.pop(block)] += 1
            elif block in mirror.valid:
                assert outcome is WritebackOutcome.UPDATED
            else:
                assert outcome is WritebackOutcome.DRAM_DIRECT

        # Mirror and LLC agree after every step.
        llc.validate()
        assert llc.occupancy() == len(mirror.valid)
        assert llc.pending_evictions() == len(mirror.pending)
        assert sorted(llc.resident_blocks()) == sorted(mirror.valid)
        for resident, owners in mirror.valid.items():
            assert llc.directory.owners_of(resident) == frozenset(owners)
        for region in llc.regions():
            region_id = (region.partition.name, region.set_index)
            assert (region.free, region.pending) == (
                mirror.free[region_id],
                mirror.pending_in(region_id),
            )


@given(ops=operations)
@settings(max_examples=50)
def test_states_partition_the_ways(ops):
    """FREE + VALID + PENDING always account for every partition cell."""
    llc = make_llc()
    for op, core, index in ops:
        block = block_of(core, index)
        region = llc.region(core, block)
        if op == "request" and llc.probe(region, block) is None:
            if llc.block_is_pending(block):
                continue
            if llc.free_entry(region) is None:
                victim = llc.choose_victim(region)
                if victim is not None:
                    llc.begin_eviction(victim, dirty_owners=set(victim.owners))
            entry = llc.free_entry(region)
            if entry is not None:
                llc.allocate(region, entry, core, block)
        elif op == "writeback":
            llc.complete_writeback(core, block)
        states = [entry.state for r in llc.regions() for entry in r.entries]
        assert len(states) == SHARED.capacity_lines + SOLO.capacity_lines
        assert all(isinstance(state, EntryState) for state in states)
        assert (
            llc.occupancy() + llc.pending_evictions()
            + sum(1 for s in states if s is EntryState.FREE)
            == len(states)
        )
