"""Unit tests for traces, synthetic workloads and adversarial patterns."""

import pytest

from repro.common.errors import ConfigurationError, TraceError
from repro.common.types import AccessType
from repro.workloads.adversarial import conflict_storm_traces, pingpong_traces
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_core_trace,
    generate_disjoint_workload,
)
from repro.workloads.trace import MemoryTrace, TraceRecord, read_trace, write_trace


class TestTraceRecord:
    def test_line_roundtrip(self):
        record = TraceRecord(0x1A40, AccessType.WRITE)
        assert TraceRecord.from_line(record.to_line()) == record

    def test_parse_decimal_address(self):
        assert TraceRecord.from_line("R 100").address == 100

    def test_parse_hex_address(self):
        assert TraceRecord.from_line("W 0x40").address == 64

    def test_malformed_line_rejected(self):
        with pytest.raises(TraceError):
            TraceRecord.from_line("R")

    def test_bad_access_token_rejected(self):
        with pytest.raises(TraceError):
            TraceRecord.from_line("Q 0x40")

    def test_bad_address_rejected(self):
        with pytest.raises(TraceError):
            TraceRecord.from_line("R zz")

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            TraceRecord(-1)

    # The address is ASCII decimal digits or 0x plus ASCII hex digits;
    # each of these forms int(token, 0) would otherwise take.
    @pytest.mark.parametrize(
        "line",
        [
            "W 1_0",
            "W 0x1_0",
            "W +16",
            "R 0o20",
            "R \uff10x10",
            "R 0b1",
        ],
        ids=["underscore", "hex-underscore", "sign", "octal", "fullwidth", "binary"],
    )
    def test_address_must_be_ascii_decimal_or_hex(self, line):
        with pytest.raises(TraceError, match="malformed address"):
            TraceRecord.from_line(line)

    @pytest.mark.parametrize(
        "record",
        [
            TraceRecord(0),
            TraceRecord(0x1A40, AccessType.WRITE, 120),
            TraceRecord(2**48 + 0xABC, AccessType.INSTR),
        ],
    )
    def test_to_line_output_parses_back(self, record):
        line = record.to_line()
        assert TraceRecord.from_line(line) == record
        assert TraceRecord.from_line(line).to_line() == line


class TestMemoryTrace:
    def test_sequence_protocol(self):
        trace = MemoryTrace([TraceRecord(0), TraceRecord(64)])
        assert len(trace) == 2
        assert trace[1].address == 64
        assert [record.address for record in trace] == [0, 64]

    def test_slicing_returns_trace(self):
        trace = MemoryTrace([TraceRecord(i * 64) for i in range(5)], name="t")
        head = trace[:2]
        assert isinstance(head, MemoryTrace)
        assert len(head) == 2
        assert head.name == "t"

    def test_equality(self):
        first = MemoryTrace([TraceRecord(0)])
        second = MemoryTrace([TraceRecord(0)])
        assert first == second

    def test_write_fraction(self):
        trace = MemoryTrace(
            [TraceRecord(0, AccessType.WRITE), TraceRecord(64, AccessType.READ)]
        )
        assert trace.write_fraction() == pytest.approx(0.5)

    def test_write_fraction_empty(self):
        assert MemoryTrace().write_fraction() == 0.0

    def test_footprint_blocks(self):
        trace = MemoryTrace([TraceRecord(0), TraceRecord(32), TraceRecord(64)])
        assert trace.footprint_blocks(64) == 2

    def test_file_roundtrip(self, tmp_path):
        trace = MemoryTrace(
            [TraceRecord(64 * i, AccessType.WRITE) for i in range(10)],
            name="roundtrip",
        )
        path = tmp_path / "trace.txt"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded == trace

    def test_read_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# header\n\nR 0x40\n  \nW 0x80\n")
        loaded = read_trace(path)
        assert len(loaded) == 2

    def test_read_reports_line_number(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("R 0x40\nbogus line here\n")
        with pytest.raises(TraceError, match=":2:"):
            read_trace(path)


class TestSyntheticWorkload:
    def test_respects_request_count(self):
        config = SyntheticWorkloadConfig(num_requests=123)
        assert len(generate_core_trace(config, 0)) == 123

    def test_addresses_stay_in_core_range(self):
        config = SyntheticWorkloadConfig(num_requests=500, address_range_size=2048)
        for core in (0, 3):
            core_range = config.core_range(core)
            trace = generate_core_trace(config, core)
            assert all(address in core_range for address in trace.addresses())

    def test_addresses_line_aligned(self):
        config = SyntheticWorkloadConfig(num_requests=100, line_size=64)
        trace = generate_core_trace(config, 0)
        assert all(address % 64 == 0 for address in trace.addresses())

    def test_deterministic_per_seed(self):
        config = SyntheticWorkloadConfig(num_requests=50, seed=9)
        assert generate_core_trace(config, 1) == generate_core_trace(config, 1)

    def test_different_cores_different_streams(self):
        config = SyntheticWorkloadConfig(num_requests=50)
        assert generate_core_trace(config, 0) != generate_core_trace(config, 1)

    def test_write_fraction_zero_and_one(self):
        all_writes = generate_core_trace(
            SyntheticWorkloadConfig(num_requests=50, write_fraction=1.0), 0
        )
        all_reads = generate_core_trace(
            SyntheticWorkloadConfig(num_requests=50, write_fraction=0.0), 0
        )
        assert all_writes.write_fraction() == 1.0
        assert all_reads.write_fraction() == 0.0

    def test_disjoint_workload_ranges(self):
        config = SyntheticWorkloadConfig(num_requests=20, address_range_size=1024)
        traces = generate_disjoint_workload(config, [0, 1, 2])
        footprints = [set(trace.addresses()) for trace in traces.values()]
        for i, first in enumerate(footprints):
            for second in footprints[i + 1 :]:
                assert not (first & second)

    def test_duplicate_cores_rejected(self):
        config = SyntheticWorkloadConfig(num_requests=5)
        with pytest.raises(ConfigurationError):
            generate_disjoint_workload(config, [0, 0])

    def test_bad_write_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            SyntheticWorkloadConfig(write_fraction=1.5)

    def test_overlapping_stride_rejected(self):
        with pytest.raises(ConfigurationError):
            SyntheticWorkloadConfig(address_range_size=4096, range_stride=1024)

    @pytest.mark.parametrize(
        "fields",
        [
            {"address_range_size": 100},
            {"address_range_size": 128, "range_stride": 200},
        ],
    )
    def test_range_and_stride_must_be_whole_lines(self, fields):
        # [0, 100) and [100, 200) would both hold block 1.
        with pytest.raises(ConfigurationError, match="whole number"):
            SyntheticWorkloadConfig(**fields)

    def test_think_cycles_default_zero(self):
        trace = generate_core_trace(SyntheticWorkloadConfig(num_requests=30), 0)
        assert all(record.compute_cycles == 0 for record in trace)

    def test_think_cycles_within_bound(self):
        config = SyntheticWorkloadConfig(num_requests=100, max_think_cycles=250)
        trace = generate_core_trace(config, 0)
        gaps = [record.compute_cycles for record in trace]
        assert all(0 <= gap <= 250 for gap in gaps)
        assert any(gap > 0 for gap in gaps)

    def test_negative_think_cycles_rejected(self):
        with pytest.raises(ConfigurationError):
            SyntheticWorkloadConfig(max_think_cycles=-1)


class TestAdversarialWorkloads:
    def test_storm_all_blocks_fold_to_target_set(self):
        traces = conflict_storm_traces(
            cores=[0, 1], partition_sets=4, lines_per_core=8, repeats=2, target_set=3
        )
        for trace in traces.values():
            for address in trace.addresses():
                assert (address // 64) % 4 == 3

    def test_storm_cores_disjoint(self):
        traces = conflict_storm_traces(
            cores=[0, 1, 2], partition_sets=1, lines_per_core=4, repeats=1
        )
        footprints = [set(trace.addresses()) for trace in traces.values()]
        for i, first in enumerate(footprints):
            for second in footprints[i + 1 :]:
                assert not (first & second)

    def test_storm_all_writes(self):
        traces = conflict_storm_traces(
            cores=[0], partition_sets=1, lines_per_core=4, repeats=3
        )
        assert traces[0].write_fraction() == 1.0

    def test_storm_length(self):
        traces = conflict_storm_traces(
            cores=[0], partition_sets=1, lines_per_core=4, repeats=3
        )
        assert len(traces[0]) == 12

    def test_storm_deterministic(self):
        kwargs = dict(cores=[0, 1], partition_sets=2, lines_per_core=4, repeats=2, seed=5)
        assert conflict_storm_traces(**kwargs) == conflict_storm_traces(**kwargs)

    def test_storm_rejects_bad_target_set(self):
        with pytest.raises(ConfigurationError):
            conflict_storm_traces(
                cores=[0], partition_sets=2, lines_per_core=1, repeats=1, target_set=2
            )

    def test_pingpong_two_blocks_per_core(self):
        traces = pingpong_traces(cores=[0, 1], partition_sets=1, repeats=3)
        for trace in traces.values():
            assert len(set(trace.addresses())) == 2
            assert len(trace) == 6
