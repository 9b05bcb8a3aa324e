"""Integration tests encoding the paper's narrative scenarios.

* Figure 2 / Section 4.1 — unbounded WCL under a multi-slot TDM
  schedule, bounded under 1S-TDM.
* Figure 3 / Observations 1–2 — under 1S-TDM the core under analysis
  always completes, and the owner distance of contended lines decays.
* Figure 4 / Observation 3 — write-backs by the core under analysis let
  distances increase again, which is why NSS observes a higher WCL than
  SS on the same workload (the Figure 7 claim).
"""

import pytest

from repro.analysis.unbounded import starvation_witness
from repro.analysis.wcl import SharedPartitionParams, wcl_nss_cycles, wcl_ss_cycles
from repro.bus.arbiter import ArbitrationPolicy
from repro.bus.schedule import TdmSchedule, one_slot_tdm
from repro.common.errors import ConfigurationError
from repro.sim.events import EventKind
from repro.sim.simulator import Simulator, simulate
from repro.workloads.adversarial import conflict_storm_traces

from sim_helpers import shared_partition, small_config, write_trace_of


class TestFigure2Unbounded:
    def test_latency_grows_with_interferer_stream_under_multi_slot(self):
        result = starvation_witness(stream_lengths=(20, 40, 80), ways=2)
        assert result.multi_slot_growth, result

    def test_one_slot_tdm_latency_is_flat_and_bounded(self):
        result = starvation_witness(stream_lengths=(20, 40, 80), ways=2)
        assert len(set(result.one_slot_latencies)) == 1
        assert result.one_slot_bounded

    @pytest.mark.parametrize("lengths", [(50,), (40, 20), (20, 20, 40)])
    def test_growth_needs_two_increasing_lengths(self, lengths):
        # One point, or points out of order, cannot show growth.
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            starvation_witness(stream_lengths=lengths, ways=2)

    def test_growth_is_roughly_linear_in_stream_length(self):
        result = starvation_witness(stream_lengths=(25, 50, 100), ways=2)
        first, second, third = result.multi_slot_latencies
        # Doubling the stream should roughly double the added latency.
        assert third - second == pytest.approx(2 * (second - first), rel=0.3)


def storm_config(sequencer: bool, ways: int = 4, cores: int = 4):
    return small_config(
        num_cores=cores,
        partitions=[shared_partition(cores, ways=ways, sequencer=sequencer)],
        llc_sets=1,
        llc_ways=ways,
        sequencer=sequencer,
        max_slots=500_000,
    )


def storm_traces(cores: int, ways: int, repeats: int = 30):
    return conflict_storm_traces(
        cores=list(range(cores)),
        partition_sets=1,
        lines_per_core=ways + 2,
        repeats=repeats,
    )


class TestObservation1And2:
    """Figure 3: every request of every core eventually completes."""

    @pytest.mark.parametrize("sequencer", [False, True])
    def test_storm_completes_under_1s_tdm(self, sequencer):
        config = storm_config(sequencer)
        report = simulate(config, storm_traces(4, 4))
        assert not report.timed_out
        assert report.starved_cores() == []
        for core in range(4):
            assert report.core_reports[core].completed

    def test_each_blocked_request_eventually_gets_response(self):
        config = storm_config(sequencer=False)
        report = simulate(config, storm_traces(4, 4, repeats=10))
        # Every broadcast request that got blocked still completed.
        assert all(record.completed_at is not None for record in report.requests)

    def test_evictions_and_writebacks_flow(self):
        config = storm_config(sequencer=False)
        report = simulate(config, storm_traces(4, 4, repeats=5))
        counts = report.events.counts()
        assert counts.get(EventKind.EVICT_START, 0) > 0
        assert counts.get(EventKind.WB_SENT, 0) > 0
        assert counts.get(EventKind.ENTRY_FREED, 0) > 0


class TestObservation3NssVsSs:
    def test_nss_observed_wcl_not_lower_than_ss(self):
        """Figure 7's qualitative claim on a conflict storm."""
        traces = storm_traces(4, 4, repeats=40)
        nss = simulate(storm_config(sequencer=False), traces)
        ss = simulate(storm_config(sequencer=True), traces)
        assert nss.observed_wcl() >= ss.observed_wcl()

    def test_sequencer_orders_claims_in_broadcast_order(self):
        config = storm_config(sequencer=True)
        report = simulate(config, storm_traces(4, 4, repeats=10))
        # With the sequencer, a blocked-but-head request is never
        # overtaken: allocation events for one set must follow the
        # registration order per round.
        registers = report.events.of_kind(EventKind.SEQ_REGISTER)
        assert registers, "storm must queue requests in the sequencer"

    def test_seq_blocked_events_only_with_sequencer(self):
        traces = storm_traces(4, 4, repeats=10)
        nss = simulate(storm_config(sequencer=False), traces)
        ss = simulate(storm_config(sequencer=True), traces)
        assert not nss.events.of_kind(EventKind.SEQ_BLOCKED)
        # The storm occasionally lands a free entry while a non-head
        # core is on the bus; that is precisely what SS forbids.
        assert ss.sequencer_stats["shared"].registrations > 0


class TestBoundCompliance:
    """Observed latencies must sit under the analytical bounds."""

    def params(self, cores=4, ways=4):
        return SharedPartitionParams(
            total_cores=cores,
            sharers=cores,
            ways=ways,
            partition_lines=ways,
            core_capacity_lines=64,
            slot_width=50,
        )

    def test_ss_storm_within_theorem_48(self):
        config = storm_config(sequencer=True)
        report = simulate(config, storm_traces(4, 4, repeats=40))
        bound = wcl_ss_cycles(self.params())
        assert report.observed_bus_wcl() <= bound
        # End-to-end latency additionally waits for the first slot.
        assert report.observed_wcl() <= bound + config.period_cycles

    def test_nss_storm_within_theorem_47(self):
        config = storm_config(sequencer=False)
        report = simulate(config, storm_traces(4, 4, repeats=40))
        bound = wcl_nss_cycles(self.params())
        assert report.observed_bus_wcl() <= bound

    def test_two_core_storm_within_bounds(self):
        config = storm_config(sequencer=True, cores=2)
        report = simulate(config, storm_traces(2, 4, repeats=40))
        bound = wcl_ss_cycles(self.params(cores=2))
        assert report.observed_bus_wcl() <= bound

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random", "plru"])
    def test_bounds_hold_for_any_replacement_policy(self, policy):
        """Section 4.3: the analysis is replacement-policy agnostic."""
        config = small_config(
            num_cores=4,
            partitions=[shared_partition(4, ways=4, sequencer=True)],
            llc_sets=1,
            llc_ways=4,
            llc_policy=policy,
            max_slots=500_000,
        )
        report = simulate(config, storm_traces(4, 4, repeats=20))
        bound = wcl_ss_cycles(self.params())
        assert report.observed_bus_wcl() <= bound, policy

    @pytest.mark.parametrize(
        "policy",
        [
            ArbitrationPolicy.ROUND_ROBIN,
            ArbitrationPolicy.WRITEBACK_FIRST,
        ],
    )
    def test_ss_bound_holds_under_arbitration_variants(self, policy):
        config = small_config(
            num_cores=4,
            partitions=[shared_partition(4, ways=4, sequencer=True)],
            llc_sets=1,
            llc_ways=4,
            arbitration=policy,
            max_slots=500_000,
        )
        report = simulate(config, storm_traces(4, 4, repeats=20))
        assert report.observed_bus_wcl() <= wcl_ss_cycles(self.params())
