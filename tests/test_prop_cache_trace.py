"""Property-based tests: cache behaviour vs a reference model, trace IO."""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.sa_cache import SetAssociativeCache
from repro.common.types import AccessType
from repro.workloads.trace import MemoryTrace, TraceRecord, read_trace, write_trace


class ReferenceLruCache:
    """A dict-based LRU reference model for one set-associative cache."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def _set(self, block):
        return self.sets[block % self.num_sets]

    def access(self, block) -> bool:
        target = self._set(block)
        if block in target:
            target.move_to_end(block)
            return True
        return False

    def fill(self, block):
        target = self._set(block)
        evicted = None
        if len(target) == self.ways:
            evicted, _ = target.popitem(last=False)
        target[block] = True
        return evicted


ops = st.lists(
    st.tuples(st.sampled_from(["access", "fill"]), st.integers(0, 40)),
    min_size=1,
    max_size=200,
)


@given(
    num_sets=st.sampled_from([1, 2, 4, 8]),
    ways=st.integers(min_value=1, max_value=8),
    operations=ops,
)
@settings(max_examples=60)
def test_lru_cache_matches_reference_model(num_sets, ways, operations):
    cache = SetAssociativeCache("sut", num_sets, ways, "lru")
    reference = ReferenceLruCache(num_sets, ways)
    for op, block in operations:
        if op == "access":
            assert cache.access(block, False) == reference.access(block)
        else:
            if cache.contains(block):
                # A fill of a resident block is illegal; model as access.
                cache.access(block, False)
                reference.access(block)
                continue
            evicted = cache.fill(block, dirty=False)
            ref_evicted = reference.fill(block)
            assert (evicted.block if evicted else None) == ref_evicted
    assert sorted(cache.resident_blocks()) == sorted(
        block for target in reference.sets for block in target
    )


@given(
    num_sets=st.sampled_from([1, 2, 4]),
    ways=st.integers(min_value=1, max_value=4),
    blocks=st.lists(st.integers(0, 30), min_size=1, max_size=100),
)
@settings(max_examples=60)
def test_occupancy_never_exceeds_capacity(num_sets, ways, blocks):
    cache = SetAssociativeCache("sut", num_sets, ways, "lru")
    for block in blocks:
        if not cache.access(block, False):
            if not cache.contains(block):
                cache.fill(block, dirty=False)
    assert cache.occupancy() <= cache.capacity_lines
    for set_index in range(num_sets):
        resident = [b for b in cache.resident_blocks() if b % num_sets == set_index]
        assert len(resident) <= ways


@given(
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**40),
            st.sampled_from(list(AccessType)),
        ),
        max_size=200,
    )
)
@settings(max_examples=40)
def test_trace_file_roundtrip(tmp_path_factory, records):
    trace = MemoryTrace(
        [TraceRecord(address, access) for address, access in records], name="prop"
    )
    path = tmp_path_factory.mktemp("traces") / "trace.txt"
    write_trace(trace, path)
    assert read_trace(path) == trace


@given(
    line=st.sampled_from([32, 64, 128]),
    addresses=st.lists(st.integers(0, 2**20), min_size=1, max_size=50),
)
def test_footprint_blocks_matches_set_arithmetic(line, addresses):
    trace = MemoryTrace([TraceRecord(address) for address in addresses])
    assert trace.footprint_blocks(line) == len({a // line for a in addresses})
