"""Tests for the empirical interference decomposition."""

import pytest

from repro.analysis.interference import (
    decompose_report,
    summarize,
    worst_request,
)
from repro.common.errors import AnalysisError
from repro.sim.simulator import Simulator
from repro.workloads.adversarial import conflict_storm_traces

from sim_helpers import shared_partition, small_config, write_trace_of


class TestInterferenceDecomposition:
    @pytest.fixture(scope="class")
    def storm_run(self):
        config = small_config(
            num_cores=4,
            partitions=[shared_partition(4, ways=4, sequencer=True)],
            llc_sets=1,
            llc_ways=4,
            max_slots=200_000,
        )
        traces = conflict_storm_traces(
            cores=[0, 1, 2, 3], partition_sets=1, lines_per_core=8, repeats=10
        )
        sim = Simulator(config, traces)
        return sim, sim.run()

    def test_every_request_decomposed(self, storm_run):
        sim, report = storm_run
        breakdowns = decompose_report(report, sim.system.schedule)
        assert len(breakdowns) == len(report.requests)

    def test_own_slots_fit_the_window(self, storm_run):
        sim, report = storm_run
        for breakdown in decompose_report(report, sim.system.schedule):
            window_slots = breakdown.own_slots + breakdown.other_core_slots
            window_cycles = window_slots * sim.system.schedule.slot_width
            assert breakdown.latency <= breakdown.wait_for_first_slot + window_cycles

    def test_completed_requests_have_a_service_slot(self, storm_run):
        sim, report = storm_run
        for breakdown in decompose_report(report, sim.system.schedule):
            assert breakdown.service_slots >= 1

    def test_storm_produces_contention_components(self, storm_run):
        sim, report = storm_run
        totals = summarize(decompose_report(report, sim.system.schedule))
        assert totals["requests"] == len(report.requests)
        # A 4-core storm on one set must block someone at some point.
        contention = (
            totals["blocked_full_slots"]
            + totals["sequencer_blocked_slots"]
            + totals["eviction_trigger_slots"]
        )
        assert contention > 0

    def test_worst_request_is_the_wcl(self, storm_run):
        sim, report = storm_run
        worst = worst_request(decompose_report(report, sim.system.schedule))
        assert worst.latency == report.observed_wcl()

    def test_requires_event_log(self):
        config = small_config(num_cores=2, record_events=False)
        traces = {0: write_trace_of([0]), 1: write_trace_of([1])}
        sim = Simulator(config, traces)
        report = sim.run()
        with pytest.raises(AnalysisError, match="record_events"):
            decompose_report(report, sim.system.schedule)

    def test_summarize_empty(self):
        assert summarize([]) == {}

    def test_worst_of_empty_rejected(self):
        with pytest.raises(AnalysisError):
            worst_request([])
