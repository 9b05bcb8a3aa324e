"""Contracts that let configs share one validated carving and events be
cheap tuples: memoised build_* results, re-validation on replace, stable
run keys, value semantics of SimEvent, and the policies' candidate
checks."""

import copy
import dataclasses
import pickle

import pytest

from repro.bus.schedule import one_slot_tdm
from repro.cache.replacement import POLICY_NAMES, make_policy
from repro.common.errors import ConfigurationError, PartitionError
from repro.common.types import AccessType
from repro.llc.partition import PartitionSpec
from repro.sim import codec
from repro.sim.codec import event_states, load_events
from repro.sim.config import SystemConfig
from repro.sim.events import EventKind, EventLog, SimEvent
from repro.sim.simulator import simulate
from repro.workloads.trace import MemoryTrace, TraceRecord

LINE = 64

CLONES = [copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]


def _config(**overrides):
    fields = dict(
        num_cores=2,
        partitions=[PartitionSpec("shared", [0], (0, 2), (0, 1), sequencer=True)],
        llc_sets=1,
        llc_ways=2,
        slot_width=50,
        record_events=True,
    )
    fields.update(overrides)
    return SystemConfig(**fields)


def _traces():
    def trace(core, blocks):
        return MemoryTrace(
            [TraceRecord(block * LINE, AccessType.WRITE) for block in blocks],
            name=f"c{core}",
        )

    return {0: trace(0, [1, 2, 3, 1]), 1: trace(1, [4097, 4098])}


class TestConfigMemo:
    def test_build_partition_map_returns_one_object(self):
        config = _config()
        assert config.build_partition_map() is config.build_partition_map()

    def test_build_schedule_returns_one_object(self):
        config = _config(schedule=one_slot_tdm(2, 50, (1, 0)))
        assert config.build_schedule() is config.build_schedule()
        assert config.build_schedule().slot_owners == (1, 0)

    def test_replace_builds_fresh_objects(self):
        config = _config()
        wider = dataclasses.replace(config, llc_ways=4)
        assert wider.build_partition_map() is not config.build_partition_map()
        assert wider.build_partition_map().num_ways == 4

    def test_replace_revalidates_the_carving(self):
        config = _config()
        overlapping = [
            PartitionSpec("a", [0], (0, 2), (0,)),
            PartitionSpec("b", [0], (1, 2), (1,)),
        ]
        with pytest.raises(
            PartitionError,
            match=r"^partitions 'a' and 'b' overlap at \(set 0, way 1\)$",
        ):
            dataclasses.replace(config, partitions=overlapping)

    def test_replace_revalidates_scalar_fields(self):
        with pytest.raises(ConfigurationError, match="fit in a slot"):
            dataclasses.replace(_config(), slot_width=10)

    def test_duplicate_core_message(self):
        twice = [
            PartitionSpec("a", [0], (0, 1), (0, 1)),
            PartitionSpec("b", [0], (1, 2), (1,)),
        ]
        with pytest.raises(
            PartitionError, match=r"^core 1 assigned to both 'a' and 'b'$"
        ):
            _config(partitions=twice)

    def test_run_key_is_unchanged(self):
        # The memo slots are not dataclass fields, so the run identity
        # (and every result-cache key and checkpoint name) keeps its value:
        # the digest of the declared fields only.
        assert codec.run_key(_config(), _traces()) == (
            "8e3795ab4dfdb53344828239762d91ae2e4a4bad53edab3d5df503a5ebbb63f0"
        )

    @pytest.mark.parametrize("clone", CLONES, ids=["deepcopy", "pickle"])
    def test_round_trips_compare_equal(self, clone):
        config = _config()
        copied = clone(config)
        assert copied == config
        assert copied.build_schedule() == config.build_schedule()
        assert copied.build_partition_map().cores == (0, 1)
        assert codec.run_key(copied, _traces()) == codec.run_key(config, _traces())


#: One event per kind and its pinned str() rendering.
PINNED_STR = [
    (SimEvent(0, 0, EventKind.SLOT_IDLE, 3), "[c      0 s    0] slot-idle core=3"),
    (
        SimEvent(50, 1, EventKind.REQ_BROADCAST, 1, 0x40),
        "[c     50 s    1] req-broadcast core=1 block=0x40",
    ),
    (
        SimEvent(100, 2, EventKind.LLC_HIT, 2, 0x41, 3, 1),
        "[c    100 s    2] llc-hit core=2 block=0x41 set=3 way=1",
    ),
    (
        SimEvent(150, 3, EventKind.LLC_ALLOC, 3, 0x1F, 0, 15),
        "[c    150 s    3] llc-alloc core=3 block=0x1f set=0 way=15",
    ),
    (
        SimEvent(1234567, 24691, EventKind.EVICT_START, 0, 0xABC, 31, 7, "owners=[0, 2]"),
        "[c1234567 s24691] evict-start core=0 block=0xabc set=31 way=7 owners=[0, 2]",
    ),
    (
        SimEvent(250, 5, EventKind.BACK_INVALIDATE, 2, 0xABC, 31, 7, "dirty"),
        "[c    250 s    5] back-invalidate core=2 block=0xabc set=31 way=7 dirty",
    ),
    (
        SimEvent(300, 6, EventKind.ENTRY_FREED, 1, 0x2, 0, 0, "clean-eviction"),
        "[c    300 s    6] entry-freed core=1 block=0x2 set=0 way=0 clean-eviction",
    ),
    (
        SimEvent(350, 7, EventKind.WB_SENT, 1, 0x1002, None, None, "back-invalidation->freed"),
        "[c    350 s    7] wb-sent core=1 block=0x1002 back-invalidation->freed",
    ),
    (
        SimEvent(445, 8, EventKind.RESPONSE, 0, 0x1, None, None, "latency=200"),
        "[c    445 s    8] response core=0 block=0x1 latency=200",
    ),
    (
        SimEvent(500, 10, EventKind.SEQ_REGISTER, 0, 0x3, 0, None, "queue=(1, 0)"),
        "[c    500 s   10] seq-register core=0 block=0x3 set=0 queue=(1, 0)",
    ),
    (
        SimEvent(550, 11, EventKind.SEQ_BLOCKED, 0, 0x3, 0, None, "head=(1,)"),
        "[c    550 s   11] seq-blocked core=0 block=0x3 set=0 head=(1,)",
    ),
    (
        SimEvent(600, 12, EventKind.BLOCKED_FULL, 2, 0x7, 1, None, "own-block-pending-evict"),
        "[c    600 s   12] blocked-full core=2 block=0x7 set=1 own-block-pending-evict",
    ),
    (SimEvent(0, 99999, EventKind.CORE_DONE, 0), "[c      0 s99999] core-done core=0"),
]


class TestSimEventContract:
    def test_every_kind_is_pinned(self):
        assert {event.kind for event, _ in PINNED_STR} == set(EventKind)

    @pytest.mark.parametrize(
        "event,text", PINNED_STR, ids=[event.kind.name for event, _ in PINNED_STR]
    )
    def test_str_is_unchanged(self, event, text):
        assert str(event) == text

    def test_fields_are_read_only(self):
        event = SimEvent(0, 0, EventKind.SLOT_IDLE, core=1)
        with pytest.raises(AttributeError):
            event.core = 2
        assert event.core == 1

    def test_hashable_and_equal_by_value(self):
        a = SimEvent(50, 1, EventKind.REQ_BROADCAST, core=1, block=0x40)
        b = SimEvent(50, 1, EventKind.REQ_BROADCAST, 1, 0x40)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != SimEvent(50, 1, EventKind.REQ_BROADCAST, core=1, block=0x41)

    def test_codec_round_trip(self):
        events = simulate(_config(), _traces()).events.all()
        assert len(events) == 39
        assert load_events(event_states(events)) == events


class TestEventLogAppend:
    def test_restore_keeps_appending_to_the_live_list(self):
        log = EventLog()
        log.append(SimEvent(0, 0, EventKind.SLOT_IDLE, 0))
        log.restore([SimEvent(50, 1, EventKind.SLOT_IDLE, 1)])
        log.append(SimEvent(100, 2, EventKind.SLOT_IDLE, 0))
        assert [event.slot for event in log] == [1, 2]

    def test_sink_attached_later_sees_every_event(self):
        log = EventLog()
        seen = []
        log.append(SimEvent(0, 0, EventKind.SLOT_IDLE, 0))
        log.attach_sink(seen.append)
        log.append(SimEvent(50, 1, EventKind.SLOT_IDLE, 1))
        assert len(log) == 2 and [event.slot for event in seen] == [1]

    @pytest.mark.parametrize("clone", CLONES, ids=["deepcopy", "pickle"])
    def test_copies_append_to_their_own_list(self, clone):
        log = EventLog()
        log.append(SimEvent(0, 0, EventKind.SLOT_IDLE, 0))
        copied = clone(log)
        copied.append(SimEvent(50, 1, EventKind.SLOT_IDLE, 1))
        assert (len(log), len(copied)) == (1, 2)


class TestCandidateChecks:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_empty_candidate_list(self, policy):
        with pytest.raises(ValueError, match=r"^victim\(\) called with no candidates$"):
            make_policy(policy, 4).victim([])

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @pytest.mark.parametrize(
        "candidates,way", [([0, 4, -1], 4), ([1, -1, 9], -1), ([7], 7)]
    )
    def test_first_out_of_range_way_is_named(self, policy, candidates, way):
        with pytest.raises(
            ValueError, match=rf"^candidate way {way} out of range 0\.\.3$"
        ):
            make_policy(policy, 4).victim(candidates)

    def test_in_range_candidates_pass(self):
        assert make_policy("lru", 4).victim([3, 0, 2]) in (0, 2, 3)
