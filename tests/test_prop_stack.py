"""Property-based tests of the private stack's inclusive discipline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import AccessType
from repro.cpu.private_stack import (
    PrivateStack,
    PrivateStackConfig,
    StackAccessResult,
)

CONFIGS = [
    PrivateStackConfig(l1_sets=1, l1_ways=1, l2_sets=2, l2_ways=2),
    PrivateStackConfig(l1_sets=2, l1_ways=2, l2_sets=4, l2_ways=2),
    PrivateStackConfig(l1_sets=0, l2_sets=2, l2_ways=2),
]

operations = st.lists(
    st.tuples(
        st.sampled_from(["access", "fill", "invalidate"]),
        st.integers(min_value=0, max_value=15),
        st.sampled_from([AccessType.READ, AccessType.WRITE, AccessType.INSTR]),
    ),
    min_size=1,
    max_size=120,
)


def drive(stack: PrivateStack, ops) -> None:
    for op, block, access in ops:
        if op == "access":
            stack.access(block, access)
        elif op == "fill":
            if not stack.l2.contains(block):
                stack.fill_from_llc(block, access)
            else:
                stack.access(block, access)
        elif stack.l2.contains(block):
            stack.invalidate_block(block)
        else:
            # Absent from the L2, hence (inclusion) from the whole stack.
            version = stack.version
            assert stack.invalidate_block(block) is None
            assert stack.version == version
        stack.check_l1_inclusion()


@given(ops=operations, config_index=st.integers(0, len(CONFIGS) - 1))
@settings(max_examples=80)
def test_l1_always_subset_of_l2(ops, config_index):
    stack = PrivateStack(0, CONFIGS[config_index])
    drive(stack, ops)
    stack.check_l1_inclusion()


@given(ops=operations, config_index=st.integers(0, len(CONFIGS) - 1))
@settings(max_examples=80)
def test_occupancy_never_exceeds_l2_capacity(ops, config_index):
    config = CONFIGS[config_index]
    stack = PrivateStack(0, config)
    drive(stack, ops)
    assert stack.l2.occupancy() <= config.l2_capacity_lines


@given(ops=operations)
@settings(max_examples=80)
def test_invalidate_removes_everywhere(ops):
    stack = PrivateStack(0, CONFIGS[1])
    drive(stack, ops)
    for block in list(stack.resident_blocks()):
        removed = stack.invalidate_block(block)
        assert removed is not None
        assert not stack.contains(block)


@given(ops=operations, config_index=st.integers(0, len(CONFIGS) - 1))
@settings(max_examples=80)
def test_invalidating_an_absent_block_changes_nothing(ops, config_index):
    stack = PrivateStack(0, CONFIGS[config_index])
    drive(stack, ops)
    before = contents(stack)
    version = stack.version
    for block in range(32):
        if not stack.l2.contains(block):
            assert stack.invalidate_block(block) is None
    assert stack.version == version
    assert contents(stack) == before
    stack.check_l1_inclusion()


@given(ops=operations)
@settings(max_examples=60)
def test_dirtiness_only_from_writes(ops):
    """A stack that never sees a write never holds a dirty line."""
    read_only = [
        (op, block, AccessType.READ if access is AccessType.WRITE else access)
        for op, block, access in ops
    ]
    stack = PrivateStack(0, CONFIGS[1])
    drive(stack, read_only)
    for block in stack.resident_blocks():
        assert not stack.is_dirty(block)


@given(ops=operations)
@settings(max_examples=60)
def test_write_fill_leaves_dirty_copy(ops):
    stack = PrivateStack(0, CONFIGS[1])
    drive(stack, ops)
    if not stack.l2.contains(99):
        stack.fill_from_llc(99, AccessType.WRITE)
        assert stack.is_dirty(99)


def reference_access(stack: PrivateStack, block, access) -> StackAccessResult:
    """The access path spelled out level by level, a fresh result each
    time: the L1 by access type, then the L2, refilling the L1 on an L2
    hit and pushing an L1 victim's dirtiness down."""
    config = stack.config
    l1 = None
    if config.has_l1:
        l1 = stack.l1i if access.is_instruction else stack.l1d
    if l1 is not None and l1.access(block, access.is_write):
        return StackAccessResult("L1", config.l1_hit_latency)
    if stack.l2.access(block, access.is_write):
        if l1 is not None:
            victim = l1.fill(block, access.is_write)  # it just missed
            if victim is not None and victim.dirty:
                stack.l2.find(victim.block).dirty = True
        return StackAccessResult("L2", config.l2_hit_latency)
    return StackAccessResult(None, 0)


def contents(stack: PrivateStack):
    return [
        None
        if cache is None
        else sorted((b, cache.is_dirty(b)) for b in cache.resident_blocks())
        for cache in (stack.l1i, stack.l1d, stack.l2)
    ]


accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),
        st.sampled_from([AccessType.READ, AccessType.WRITE, AccessType.INSTR]),
    ),
    max_size=60,
)


@given(
    ops=operations,
    tail=accesses,
    config_index=st.integers(0, len(CONFIGS) - 1),
)
@settings(max_examples=80)
def test_access_matches_the_reference_path_and_survives_cloning(
    ops, tail, config_index
):
    config = CONFIGS[config_index]
    stack = PrivateStack(0, config)
    twin = PrivateStack(0, config)
    for op, block, access in ops:
        if op == "access":
            assert stack.access(block, access) == reference_access(
                twin, block, access
            )
        elif not stack.l2.contains(block):
            assert stack.fill_from_llc(block, access) == twin.fill_from_llc(
                block, access
            )
        else:
            assert stack.invalidate_block(block) == twin.invalidate_block(block)
    assert contents(stack) == contents(twin)
    # A prediction stack replays the tail exactly like the reference
    # while the live stack stands still, and leaves no trace on it.
    before = contents(stack)
    prediction = stack.clone_for_prediction()
    expected = []
    for block, access in tail:
        expected.append(reference_access(twin, block, access))
        assert prediction.access(block, access) == expected[-1]
    assert contents(stack) == before
    # The live stack then gives the same answers itself.
    for (block, access), answer in zip(tail, expected):
        assert stack.access(block, access) == answer
    assert contents(stack) == contents(twin)
