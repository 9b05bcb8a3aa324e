"""Contracts of the value records the simulator builds per access, miss,
eviction and request: immutability, value semantics, pinned ``repr``
strings, pickle/deepcopy round-trips, the trace record's validation, and
the bytes of every workload suite.

The records are named tuples; these pins keep their field names, order
and rendering, and the trace text (which run keys and result-cache keys
hash), as they were when the records were frozen dataclasses.
"""

import copy
import hashlib
import pickle

import pytest

from repro.cache.line import EvictedLine
from repro.cli import main
from repro.common.errors import TraceError
from repro.common.types import AccessType
from repro.cpu.core import CorePrediction, MissInfo
from repro.cpu.private_stack import FillResult, StackAccessResult
from repro.sim.report import RequestRecord
from repro.workloads.suites import suite_names
from repro.workloads.synthetic import SyntheticWorkloadConfig, generate_core_trace
from repro.workloads.trace import TraceRecord, write_trace

CLONES = [copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))]

#: Per record type: a builder, its first field and the repr, pinned at
#: the dataclass records' values.
RECORDS = [
    (
        lambda: TraceRecord(0x1A40, AccessType.WRITE, 120),
        "address",
        "TraceRecord(address=6720, access=<AccessType.WRITE: 'W'>, "
        "compute_cycles=120)",
    ),
    (
        lambda: TraceRecord(64),
        "address",
        "TraceRecord(address=64, access=<AccessType.READ: 'R'>, compute_cycles=0)",
    ),
    (
        lambda: RequestRecord(1, 0x41, 100, 150, 245, 2, False),
        "core",
        "RequestRecord(core=1, block=65, enqueued_at=100, first_on_bus_at=150, "
        "completed_at=245, bus_attempts=2, served_by_hit=False)",
    ),
    (
        lambda: EvictedLine(0x41, True),
        "block",
        "EvictedLine(block=65, dirty=True)",
    ),
    (
        lambda: MissInfo(2, 0x41, AccessType.INSTR, 7),
        "core",
        "MissInfo(core=2, block=65, access=<AccessType.INSTR: 'I'>, at_cycle=7)",
    ),
    (
        lambda: CorePrediction(miss_at=9),
        "miss_at",
        "CorePrediction(miss_at=9, finish_at=None)",
    ),
    (
        lambda: FillResult(EvictedLine(3, False)),
        "l2_victim",
        "FillResult(l2_victim=EvictedLine(block=3, dirty=False))",
    ),
    (
        lambda: StackAccessResult("L1", 1),
        "hit_level",
        "StackAccessResult(hit_level='L1', latency=1)",
    ),
]

IDS = [text.split("(")[0] for _, _, text in RECORDS]


class TestRecordValueSemantics:
    @pytest.mark.parametrize("build,field,text", RECORDS, ids=IDS)
    def test_repr_is_unchanged(self, build, field, text):
        assert repr(build()) == text

    @pytest.mark.parametrize("build,field,text", RECORDS, ids=IDS)
    def test_fields_are_read_only(self, build, field, text):
        record = build()
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        assert getattr(record, field) == before

    @pytest.mark.parametrize("build,field,text", RECORDS, ids=IDS)
    def test_hashable_and_equal_by_value(self, build, field, text):
        record, twin = build(), build()
        assert record is not twin
        assert twin == record and hash(twin) == hash(record)
        assert len({record, twin}) == 1

    @pytest.mark.parametrize("clone", CLONES, ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("build,field,text", RECORDS, ids=IDS)
    def test_round_trips(self, build, field, text, clone):
        record = build()
        copied = clone(record)
        assert copied == record
        assert type(copied) is type(record)

    @pytest.mark.parametrize("build,field,text", RECORDS, ids=IDS)
    def test_equal_to_a_plain_tuple_of_its_fields(self, build, field, text):
        # Named tuples; the dataclass records compared equal to nothing
        # but their own class.
        record = build()
        assert record == tuple(record)
        assert record._fields[0] == field

    def test_keyword_and_positional_builds_agree(self):
        assert TraceRecord(
            address=64, access=AccessType.WRITE, compute_cycles=5
        ) == TraceRecord(64, AccessType.WRITE, 5)
        assert RequestRecord(
            core=0,
            block=1,
            enqueued_at=2,
            first_on_bus_at=3,
            completed_at=4,
            bus_attempts=1,
            served_by_hit=True,
        ) == RequestRecord(0, 1, 2, 3, 4, 1, True)

    def test_request_latencies(self):
        record = RequestRecord(1, 0x41, 100, 150, 245, 2, False)
        assert record.latency == 145
        assert record.bus_latency == 95


class TestTraceRecordValidation:
    def test_negative_address_message(self):
        with pytest.raises(
            TraceError, match=r"^trace address must be non-negative, got -1$"
        ):
            TraceRecord(-1)

    def test_negative_gap_message(self):
        with pytest.raises(
            TraceError, match=r"^compute_cycles must be non-negative, got -3$"
        ):
            TraceRecord(0, AccessType.READ, -3)

    def test_address_is_checked_before_the_gap(self):
        with pytest.raises(TraceError, match="trace address"):
            TraceRecord(address=-1, compute_cycles=-1)

    def test_replace_revalidates(self):
        record = TraceRecord(0x80, AccessType.WRITE, 7)
        assert record._replace(compute_cycles=9) == TraceRecord(
            0x80, AccessType.WRITE, 9
        )
        with pytest.raises(TraceError, match="compute_cycles must be"):
            record._replace(compute_cycles=-1)


#: SHA-256 over the trace files ``repro-llc workload SUITE --cores 4
#: --requests 120 --range 4096 --seed 7`` writes, concatenated in core
#: order.  Taken from the dataclass records; any change to trace
#: generation or the text format moves them.
SUITE_DIGESTS = {
    "fig7": "1c3bdf844993b003ebc176a73344d1e008ff279440f01059e9af21c6930b1a34",
    "fig8": "e9ce6a3ed8168326ee978e0fad921d95d1cbe843a83e15bef900972af031ca72",
    "mixed": "1944320188d43ede5001cce40bc760e0055e61a7977ed5db3bf152e025496996",
    "pingpong": "ef1806383e4442fe8adc165450c134dac7150967014fb04913b0a525016473c3",
    "readonly": "d567c7f9153c84294172653db15f96170de8cf61a47abf2481de10477498d78c",
    "storm": "8d609a321eaecc1e8510971d1ff7d7a37461e4c60592d8cfcea259b5e407378c",
}


def _suite_digest(suite, out_dir):
    argv = [
        "workload", suite, "--cores", "4", "--requests", "120",
        "--range", "4096", "--seed", "7", "--out", str(out_dir),
    ]
    assert main(argv) == 0
    digest = hashlib.sha256()
    for core in range(4):
        digest.update((out_dir / f"{suite}-core{core}.trace").read_bytes())
    return digest.hexdigest()


class TestTraceBytes:
    def test_every_suite_is_pinned(self):
        assert set(SUITE_DIGESTS) == set(suite_names())

    @pytest.mark.parametrize("suite", sorted(SUITE_DIGESTS))
    def test_suite_trace_bytes_are_unchanged(self, suite, tmp_path):
        assert _suite_digest(suite, tmp_path) == SUITE_DIGESTS[suite]

    def test_think_gap_trace_bytes_are_unchanged(self, tmp_path):
        # No suite draws compute gaps; the sparse-think stream does.
        config = SyntheticWorkloadConfig(
            num_requests=120,
            address_range_size=8192,
            write_fraction=0.5,
            max_think_cycles=2000,
            seed=7,
        )
        path = tmp_path / "think.trace"
        write_trace(generate_core_trace(config, 1), path)
        assert " +" in path.read_text()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2595de423159d6596b4b3afebc9f55b5aa6dc07243d5612c4a0e6255bcf8e6db"
        )
