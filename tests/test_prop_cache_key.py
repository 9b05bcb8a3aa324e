"""Property tests of the result-cache fingerprint canonicalization.

The cache key must be a *canonical* function of the simulation's
semantic inputs and nothing else:

* invariant to representation noise — mapping iteration order, how a
  trace's record list was chunked together, the trace's display name,
  explicitly-passed default field values;
* injective over semantics — any two configs, trace sequences or engine
  selections that could produce different reports must produce
  different keys (no silent collisions, even on default-valued fields).

A collision would silently replay the wrong run's report; an
instability would silently miss, costing only time — both are stated
here as Hypothesis properties over generated configs and traces.
"""

import dataclasses
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from sim_helpers import shared_partition, small_config

from repro.common.types import AccessType
from repro.sim.codec import config_document, run_key, trace_fingerprint
from repro.workloads.trace import MemoryTrace, TraceRecord

LINE = 64

records_st = st.lists(
    st.builds(
        TraceRecord,
        address=st.integers(0, 255).map(lambda block: block * LINE),
        access=st.sampled_from([AccessType.READ, AccessType.WRITE]),
        compute_cycles=st.integers(0, 400),
    ),
    min_size=0,
    max_size=12,
)


def _config(num_cores: int = 2, **overrides):
    return dataclasses.replace(small_config(num_cores=num_cores), **overrides)


@st.composite
def per_core_records(draw, num_cores=2):
    return {core: draw(records_st) for core in range(num_cores)}


# ----------------------------------------------------------------------
# Invariance: representation noise never changes the key
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(per_core=per_core_records())
def test_key_invariant_to_mapping_insertion_order(per_core):
    config = _config()
    forward = {
        core: MemoryTrace(records, name=f"fwd{core}")
        for core, records in per_core.items()
    }
    backward = {
        core: MemoryTrace(per_core[core], name=f"bwd{core}")
        for core in sorted(per_core, reverse=True)
    }
    assert list(forward) != list(backward) or len(per_core) < 2
    assert run_key(config, forward) == run_key(
        config, backward
    )


@settings(max_examples=40, deadline=None)
@given(
    per_core=per_core_records(),
    starts=st.fixed_dictionaries({0: st.integers(0, 500), 1: st.integers(0, 500)}),
)
def test_key_invariant_to_start_cycle_mapping_order(per_core, starts):
    config = _config()
    traces = {c: MemoryTrace(r) for c, r in per_core.items()}
    reversed_starts = {c: starts[c] for c in sorted(starts, reverse=True)}
    assert run_key(config, traces, starts) == run_key(
        config, traces, reversed_starts
    )


@settings(max_examples=40, deadline=None)
@given(records=records_st, data=st.data())
def test_trace_fingerprint_invariant_to_chunking_and_name(records, data):
    """However the record sequence was assembled, one fingerprint."""
    cut_a = data.draw(st.integers(0, len(records)), label="cut_a")
    cut_b = data.draw(st.integers(cut_a, len(records)), label="cut_b")
    whole = MemoryTrace(records, name="whole")
    chunked = MemoryTrace(
        itertools.chain(
            records[:cut_a], records[cut_a:cut_b], records[cut_b:]
        ),
        name="chunked-and-renamed",
    )
    assert trace_fingerprint(whole) == trace_fingerprint(chunked)


@settings(max_examples=25, deadline=None)
@given(per_core=per_core_records())
def test_key_invariant_to_explicit_default_field_values(per_core):
    """Re-stating a field's default never changes the key."""
    config = _config()
    traces = {c: MemoryTrace(r) for c, r in per_core.items()}
    restated = dataclasses.replace(
        config,
        seed=config.seed,
        engine=config.engine,
        drain_writebacks=config.drain_writebacks,
        llc_policy=config.llc_policy,
    )
    assert run_key(config, traces) == run_key(
        restated, traces
    )
    assert config_document(config) == config_document(restated)


# ----------------------------------------------------------------------
# Injectivity: semantic differences always change the key
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    records_a=records_st,
    records_b=records_st,
)
def test_distinct_record_sequences_get_distinct_fingerprints(
    records_a, records_b
):
    """Length-framed hashing is injective over record *sequences*.

    This subsumes the re-chunking attack: two different sequences whose
    concatenated text bytes happen to agree still frame differently.
    """
    same = records_a == records_b
    equal = trace_fingerprint(
        MemoryTrace(records_a)
    ) == trace_fingerprint(MemoryTrace(records_b))
    assert equal == same


# One mutation per scalar config field the report can depend on — the
# default-valued ones included, which is exactly where a lazy "only
# hash the non-default fields" scheme would silently collide.
FIELD_MUTATIONS = [
    ("seed", lambda v: v + 1),
    ("slot_width", lambda v: v + 1),
    ("line_size", lambda v: v * 2),
    ("llc_sets", lambda v: v * 2),
    ("llc_ways", lambda v: v + 1),
    ("llc_policy", lambda v: "fifo" if v != "fifo" else "lru"),
    ("llc_hit_latency", lambda v: v + 1),
    ("llc_miss_latency", lambda v: v + 1),
    ("max_slots", lambda v: v + 1),
    ("record_events", lambda v: not v),
    ("drain_writebacks", lambda v: not v),
    ("checked", lambda v: not v),
    ("record_metrics", lambda v: not v),
    ("engine", lambda v: "reference" if v == "fast" else "fast"),
]


@settings(max_examples=60, deadline=None)
@given(
    per_core=per_core_records(),
    mutation=st.sampled_from(FIELD_MUTATIONS),
)
def test_any_mutated_config_field_changes_the_key(per_core, mutation):
    field, mutate = mutation
    config = _config()
    traces = {c: MemoryTrace(r) for c, r in per_core.items()}
    mutated = dataclasses.replace(config, **{field: mutate(getattr(config, field))})
    assert run_key(config, traces) != run_key(
        mutated, traces
    ), f"mutating {field} must change the cache key"


@settings(max_examples=25, deadline=None)
@given(per_core=per_core_records(), extra_ways=st.integers(1, 4))
def test_partition_geometry_changes_the_key(per_core, extra_ways):
    config = _config()
    traces = {c: MemoryTrace(r) for c, r in per_core.items()}
    wider = dataclasses.replace(
        config,
        partitions=[shared_partition(2, ways=4 + extra_ways)],
        llc_ways=4 + extra_ways,
    )
    assert run_key(config, traces) != run_key(wider, traces)


@settings(max_examples=40, deadline=None)
@given(
    per_core=per_core_records(),
    starts=st.dictionaries(
        st.sampled_from([0, 1]), st.integers(0, 500), max_size=2
    ),
)
def test_start_cycles_distinguish_keys_exactly_when_semantically_distinct(
    per_core, starts
):
    config = _config()
    traces = {c: MemoryTrace(r) for c, r in per_core.items()}
    plain = run_key(config, traces)
    offset = run_key(config, traces, starts)
    # All-zero (or empty) offsets mean "no offsets": same semantics,
    # same key.  Any non-zero offset is a different run.
    if any(starts.values()):
        assert offset != plain
    else:
        assert offset == plain
