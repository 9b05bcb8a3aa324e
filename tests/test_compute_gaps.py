"""Tests for compute gaps (think time) in traces and the core model."""

import pytest

from repro.common.errors import TraceError
from repro.common.types import AccessType
from repro.cpu.core import TraceDrivenCore
from repro.cpu.private_stack import PrivateStack, PrivateStackConfig
from repro.sim.simulator import simulate
from repro.workloads.trace import MemoryTrace, TraceRecord, read_trace, write_trace

from sim_helpers import shared_partition, small_config


class TestRecordFormat:
    def test_gap_serialised(self):
        record = TraceRecord(0x40, AccessType.WRITE, compute_cycles=120)
        assert record.to_line() == "W 0x40 +120"

    def test_zero_gap_omitted(self):
        assert TraceRecord(0x40, AccessType.READ).to_line() == "R 0x40"

    def test_parse_with_gap(self):
        record = TraceRecord.from_line("R 0x80 +77")
        assert record.compute_cycles == 77
        assert record.address == 0x80

    def test_roundtrip(self):
        record = TraceRecord(0x1A40, AccessType.INSTR, compute_cycles=5)
        assert TraceRecord.from_line(record.to_line()) == record

    def test_file_roundtrip_with_gaps(self, tmp_path):
        trace = MemoryTrace(
            [
                TraceRecord(0, AccessType.READ),
                TraceRecord(64, AccessType.WRITE, compute_cycles=300),
            ]
        )
        path = tmp_path / "gaps.trace"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def test_malformed_gap_rejected(self):
        with pytest.raises(TraceError):
            TraceRecord.from_line("R 0x40 120")
        with pytest.raises(TraceError):
            TraceRecord.from_line("R 0x40 +x")

    @pytest.mark.parametrize("line", ["W 0x10 ++5", "W 0x10 +5_0", "W 0x10 +０５"])
    def test_gap_must_be_ascii_decimal_digits(self, line):
        # int() alone reads these as +5, +50 and +5.
        with pytest.raises(TraceError, match="^malformed compute gap"):
            TraceRecord.from_line(line)

    def test_gap_with_leading_zero_still_parses(self):
        assert TraceRecord.from_line("W 0x10 +05").compute_cycles == 5

    def test_negative_gap_rejected(self):
        with pytest.raises(TraceError):
            TraceRecord(0, compute_cycles=-1)


def make_core(records, line=64):
    stack = PrivateStack(0, PrivateStackConfig(l1_sets=2, l1_ways=2,
                                               l2_sets=4, l2_ways=2))
    return TraceDrivenCore(0, stack, MemoryTrace(records), line)


class TestCoreModel:
    def test_gap_delays_miss(self):
        core = make_core([TraceRecord(64, AccessType.READ, compute_cycles=500)])
        miss = core.advance(10_000)
        assert miss.at_cycle == 500

    def test_gap_applied_once_across_blocking(self):
        core = make_core([TraceRecord(64, AccessType.READ, compute_cycles=500)])
        # The gap keeps the core busy past early horizons.
        assert core.advance(100) is None
        assert core.advance(400) is None
        miss = core.advance(1_000)
        assert miss.at_cycle == 500

    def test_gap_between_hits_accumulates(self):
        records = [
            TraceRecord(64, AccessType.READ),           # miss, filled below
            TraceRecord(64, AccessType.READ, compute_cycles=100),
            TraceRecord(64, AccessType.READ, compute_cycles=100),
        ]
        core = make_core(records)
        core.advance(10_000)
        core.stack.fill_from_llc(1, AccessType.READ)
        core.resume(50)
        core.advance(100_000)
        assert core.done
        l1 = core.stack.config.l1_hit_latency
        assert core.finish_time == 50 + 2 * (100 + l1)

    def test_cpu_bound_core_rarely_touches_bus(self):
        config = small_config(
            num_cores=2,
            partitions=[shared_partition(2, ways=4)],
            llc_sets=1,
            llc_ways=4,
        )
        # Core 0 computes a lot between accesses; core 1 is memory-bound.
        cpu_bound = MemoryTrace(
            [TraceRecord(i * 2 * 64, AccessType.READ, compute_cycles=400)
             for i in range(10)]
        )
        mem_bound = MemoryTrace(
            [TraceRecord((i * 2 + 1) * 64, AccessType.READ) for i in range(10)]
        )
        report = simulate(config, {0: cpu_bound, 1: mem_bound})
        assert report.core_reports[0].completed
        # The CPU-bound core's execution time is dominated by compute.
        assert report.execution_time(0) >= 10 * 400
        # The memory-bound core finishes far earlier.
        assert report.execution_time(1) < report.execution_time(0)

    def test_gaps_do_not_break_invariants(self):
        from repro.sim.simulator import Simulator

        config = small_config(
            num_cores=2,
            partitions=[shared_partition(2, ways=2)],
            llc_sets=1,
            llc_ways=2,
        )
        traces = {
            core: MemoryTrace(
                [
                    TraceRecord(
                        (i * 2 + core) * 64,
                        AccessType.WRITE,
                        compute_cycles=(i * 37) % 90,
                    )
                    for i in range(15)
                ]
            )
            for core in (0, 1)
        }
        sim = Simulator(config, traces)
        report = sim.run()
        assert not report.timed_out
        sim.system.check_inclusivity()
