"""Edge-case tests for the engine, configuration corners and failure paths."""

import dataclasses

import pytest

from repro.bus.arbiter import ArbitrationPolicy
from repro.bus.schedule import TdmSchedule, one_slot_tdm
from repro.common.errors import ConfigurationError
from repro.sim.simulator import Simulator, simulate
from repro.workloads.adversarial import conflict_storm_traces
from repro.workloads.trace import MemoryTrace

from sim_helpers import (
    private_partitions,
    read_trace_of,
    shared_partition,
    small_config,
    write_trace_of,
)


class TestTimedOutRuns:
    def test_slot_cap_reports_timeout(self):
        config = small_config(
            num_cores=2,
            partitions=[shared_partition(2, ways=1)],
            llc_sets=1,
            llc_ways=1,
            arbitration=ArbitrationPolicy.REQUEST_FIRST,  # livelocks
            max_slots=500,
        )
        traces = {0: write_trace_of([0, 2, 4]), 1: write_trace_of([1, 3, 5])}
        report = simulate(config, traces)
        assert report.timed_out
        assert report.total_slots == 500
        assert report.starved_cores()

    def test_starved_core_report_fields(self):
        config = small_config(
            num_cores=2,
            partitions=[shared_partition(2, ways=1)],
            llc_sets=1,
            llc_ways=1,
            arbitration=ArbitrationPolicy.REQUEST_FIRST,
            max_slots=300,
        )
        traces = {0: write_trace_of([0, 2]), 1: write_trace_of([1, 3])}
        report = simulate(config, traces)
        for core in report.starved_cores():
            core_report = report.core_reports[core]
            assert core_report.outstanding_block is not None
            assert core_report.outstanding_attempts > 0
            assert not core_report.completed

    def test_execution_time_of_unfinished_core_raises(self):
        config = small_config(
            num_cores=2,
            partitions=[shared_partition(2, ways=1)],
            llc_sets=1,
            llc_ways=1,
            arbitration=ArbitrationPolicy.REQUEST_FIRST,
            max_slots=300,
        )
        traces = {0: write_trace_of([0, 2]), 1: write_trace_of([1, 3])}
        report = simulate(config, traces)
        starved = report.starved_cores()[0]
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError):
            report.execution_time(starved)


class TestDrainBehaviour:
    def test_drain_enabled_empties_pwbs(self):
        config = small_config(
            num_cores=2,
            partitions=[shared_partition(2, ways=1)],
            llc_sets=1,
            llc_ways=1,
        )
        traces = {1: write_trace_of([0]), 0: write_trace_of([2])}
        sim = Simulator(config, traces, start_cycles={0: 60})
        sim.run()
        assert all(pwb.is_empty for pwb in sim.system.pwbs.values())


class TestScheduleVariants:
    def test_non_1s_tdm_with_private_partitions_is_fine(self):
        """Multi-slot schedules only endanger *shared* partitions."""
        config = small_config(
            num_cores=2,
            partitions=private_partitions(2, sets_per_core=1, ways=4),
            llc_sets=2,
            llc_ways=4,
            schedule=TdmSchedule((0, 1, 1), 50),
        )
        traces = {0: write_trace_of([0, 2, 4]), 1: write_trace_of([1, 3, 5])}
        report = simulate(config, traces)
        assert not report.timed_out
        assert report.starved_cores() == []

    def test_unfair_schedule_speeds_up_favoured_core(self):
        fair = small_config(
            num_cores=2,
            partitions=private_partitions(2, sets_per_core=1, ways=4),
            llc_sets=2,
            llc_ways=4,
        )
        unfair = small_config(
            num_cores=2,
            partitions=private_partitions(2, sets_per_core=1, ways=4),
            llc_sets=2,
            llc_ways=4,
            schedule=TdmSchedule((0, 0, 0, 1), 50),
        )
        traces = {0: write_trace_of(list(range(0, 40, 2))), 1: write_trace_of([1])}
        fair_time = simulate(fair, traces).execution_time(0)
        unfair_time = simulate(unfair, traces).execution_time(0)
        assert unfair_time < fair_time

    def test_permuted_slot_order_changes_nothing_for_private(self):
        base = small_config(
            num_cores=3,
            partitions=private_partitions(3, sets_per_core=1, ways=4),
            llc_sets=3,
            llc_ways=4,
        )
        permuted = dataclasses.replace(
            base, schedule=one_slot_tdm(3, base.slot_width, (2, 0, 1))
        )
        traces = {core: write_trace_of([core]) for core in range(3)}
        first = simulate(base, traces)
        second = simulate(permuted, traces)
        # Completion still happens for everyone; latencies shift by at
        # most one period because only the phase changed.
        for core in range(3):
            delta = abs(
                first.execution_time(core) - second.execution_time(core)
            )
            assert delta <= base.period_cycles


class TestMixedAccessTypes:
    def test_instruction_fetches_flow_through(self):
        from repro.common.types import AccessType
        from sim_helpers import trace_of_blocks

        config = small_config(
            num_cores=1,
            partitions=[shared_partition(1, ways=4)],
            llc_sets=1,
            llc_ways=4,
        )
        trace = trace_of_blocks([0, 1, 0, 1], access=AccessType.INSTR)
        report = simulate(config, {0: trace})
        assert report.core_reports[0].completed
        # Instruction lines are clean: no DRAM write-backs at all.
        assert report.dram_writes == 0

    def test_reads_produce_no_writebacks(self):
        config = small_config(
            num_cores=2,
            partitions=[shared_partition(2, ways=1)],
            llc_sets=1,
            llc_ways=1,
        )
        traces = {0: read_trace_of([0, 2, 4]), 1: read_trace_of([1, 3, 5])}
        report = simulate(config, traces)
        assert report.dram_writes == 0
        assert report.llc_back_invalidations == 0

    def test_empty_system_zero_slots(self):
        config = small_config(num_cores=2)
        report = simulate(config, {})
        assert report.total_slots == 0
        assert report.makespan == 0


class TestRecordEventsOff:
    def test_no_events_recorded_but_results_identical(self):
        traces = conflict_storm_traces(
            cores=[0, 1], partition_sets=1, lines_per_core=6, repeats=5
        )
        base = small_config(
            num_cores=2,
            partitions=[shared_partition(2, ways=2)],
            llc_sets=1,
            llc_ways=2,
        )
        with_events = simulate(base, traces)
        without_events = simulate(
            dataclasses.replace(base, record_events=False), traces
        )
        assert len(without_events.events) == 0
        assert with_events.makespan == without_events.makespan
        assert with_events.observed_wcl() == without_events.observed_wcl()
