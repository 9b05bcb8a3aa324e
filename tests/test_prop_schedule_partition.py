"""Property-based tests: TDM schedule algebra and partition geometry."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.schedule import TdmSchedule, distance, one_slot_tdm
from repro.sim.codec import config_document
from repro.llc.partition import PartitionNotation, PartitionSpec

core_counts = st.integers(min_value=1, max_value=12)
slot_widths = st.integers(min_value=1, max_value=200)


@given(num_cores=core_counts, slot_width=slot_widths, data=st.data())
def test_corollary_4_3_distance_bounds(num_cores, slot_width, data):
    """1 <= d_{c_j}^{c_i} <= N for every pair under any 1S-TDM order."""
    order = data.draw(st.permutations(range(num_cores)))
    schedule = one_slot_tdm(num_cores, slot_width, order)
    for i in range(num_cores):
        for j in range(num_cores):
            d = distance(schedule, i, j)
            assert 1 <= d <= num_cores


@given(num_cores=st.integers(min_value=2, max_value=10), data=st.data())
def test_distance_triangle_around_ring(num_cores, data):
    """d(i->j) + d(j->i) == N for distinct cores (they sit on a ring)."""
    order = data.draw(st.permutations(range(num_cores)))
    schedule = one_slot_tdm(num_cores, 10, order)
    for i in range(num_cores):
        for j in range(num_cores):
            if i == j:
                continue
            assert distance(schedule, i, j) + distance(schedule, j, i) == num_cores


@given(
    owners=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12),
    slot_width=slot_widths,
    slot=st.integers(min_value=0, max_value=10_000),
)
def test_slot_arithmetic_consistency(owners, slot_width, slot):
    schedule = TdmSchedule(owners, slot_width)
    start = schedule.slot_start(slot)
    assert schedule.slot_of_cycle(start) == slot
    assert schedule.slot_of_cycle(schedule.slot_end(slot) - 1) == slot
    assert schedule.owner_of_slot(slot) == owners[slot % len(owners)]


@given(
    owners=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=10),
    from_slot=st.integers(min_value=0, max_value=500),
)
def test_next_slot_of_is_first_owned_slot(owners, from_slot):
    schedule = TdmSchedule(owners, 10)
    for core in set(owners):
        next_slot = schedule.next_slot_of(core, from_slot)
        assert next_slot >= from_slot
        assert schedule.owner_of_slot(next_slot) == core
        # No earlier owned slot in between.
        for candidate in range(from_slot, next_slot):
            assert schedule.owner_of_slot(candidate) != core


@given(
    sets=st.lists(
        st.integers(min_value=0, max_value=63), min_size=1, max_size=16, unique=True
    ),
    way_lo=st.integers(min_value=0, max_value=14),
    way_span=st.integers(min_value=1, max_value=8),
    block=st.integers(min_value=0, max_value=10**9),
)
def test_fold_set_always_lands_in_partition(sets, way_lo, way_span, block):
    partition = PartitionSpec(
        "p", sets, (way_lo, way_lo + way_span), (0,)
    )
    assert partition.fold_set(block) in set(sets)


@given(
    sets=st.integers(min_value=1, max_value=64),
    ways=st.integers(min_value=1, max_value=32),
    cores=st.integers(min_value=1, max_value=16),
    kind=st.sampled_from(["SS", "NSS"]),
)
def test_notation_roundtrip_shared(sets, ways, cores, kind):
    text = f"{kind}({sets},{ways},{cores})"
    assert str(PartitionNotation.parse(text)) == text


@given(sets=st.integers(min_value=1, max_value=64), ways=st.integers(min_value=1, max_value=32))
def test_notation_roundtrip_private(sets, ways):
    text = f"P({sets},{ways})"
    assert str(PartitionNotation.parse(text)) == text


@given(
    owners=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
    slot_width=slot_widths,
)
def test_schedule_memos_leave_identity_unchanged(owners, slot_width):
    fresh = TdmSchedule(owners, slot_width)
    used = TdmSchedule(owners, slot_width)
    one_slot = used.is_one_slot
    for core in used.cores:
        used.slots_of(core)
        if one_slot:
            distance(used, core, used.cores[0])
    # 1S-TDM by brute force: every core owns exactly one slot.
    assert one_slot == all(owners.count(core) == 1 for core in set(owners))
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert config_document(used) == {"slot_owners": owners, "slot_width": slot_width}
