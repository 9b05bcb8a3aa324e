"""Larger-system integration tests and assorted coverage."""

import pytest

from repro.analysis.verification import assert_bounds
from repro.bus.schedule import TdmSchedule
from repro.common.errors import ScheduleError
from repro.llc.partition import PartitionSpec
from repro.sim.config import SystemConfig
from repro.sim.simulator import Simulator, simulate
from repro.workloads.adversarial import conflict_storm_traces
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)


class TestScheduleParse:
    def test_basic(self):
        schedule = TdmSchedule.parse("0,1,2,3", 50)
        assert schedule.slot_owners == (0, 1, 2, 3)
        assert schedule.is_one_slot

    def test_multi_slot(self):
        schedule = TdmSchedule.parse("0, 1, 1", 10)
        assert schedule.slots_of(1) == (1, 2)

    def test_whitespace_and_trailing_comma(self):
        assert TdmSchedule.parse(" 0 ,1, ", 10).slot_owners == (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            TdmSchedule.parse("", 10)

    def test_garbage_rejected(self):
        with pytest.raises(ScheduleError):
            TdmSchedule.parse("0,x", 10)


class TestSixteenCoreCluster:
    """A Kalray-MPPA3-like cluster: 16 cores on one 1S-TDM bus."""

    @pytest.fixture(scope="class")
    def cluster(self):
        # 8 cores share a sequencer-ordered half of the LLC; 8 cores
        # get private slices of the other half.
        partitions = [
            PartitionSpec(
                "shared", list(range(0, 16)), (0, 16),
                tuple(range(8)), sequencer=True,
            )
        ]
        for core in range(8, 16):
            partitions.append(
                PartitionSpec(
                    f"core{core}", [16 + (core - 8) * 2, 17 + (core - 8) * 2],
                    (0, 16), (core,),
                )
            )
        config = SystemConfig(
            num_cores=16,
            partitions=partitions,
            llc_sets=32,
            llc_ways=16,
            max_slots=1_000_000,
        )
        workload = SyntheticWorkloadConfig(
            num_requests=120, address_range_size=2048, seed=4
        )
        traces = generate_disjoint_workload(workload, list(range(16)))
        sim = Simulator(config, traces)
        return config, sim, sim.run()

    def test_everyone_completes(self, cluster):
        _config, _sim, report = cluster
        assert not report.timed_out
        for core in range(16):
            assert report.core_reports[core].completed

    def test_bounds_hold_cluster_wide(self, cluster):
        config, _sim, report = cluster
        assert_bounds(report, config)

    def test_inclusivity_at_scale(self, cluster):
        _config, sim, _report = cluster
        sim.system.check_inclusivity()

    def test_period_is_sixteen_slots(self, cluster):
        config, _sim, _report = cluster
        assert config.period_cycles == 16 * config.slot_width


class TestVerifierOnStorms:
    @pytest.mark.parametrize("notation", ["SS(1,16,4)", "NSS(1,16,4)", "P(1,16)"])
    def test_fig7_configs_comply(self, notation):
        from repro.experiments.configs import build_system_for_notation

        config = build_system_for_notation(notation, num_cores=4)
        traces = conflict_storm_traces(
            cores=[0, 1, 2, 3], partition_sets=1, lines_per_core=18, repeats=10
        )
        report = simulate(config, traces)
        assert_bounds(report, config)


class TestLlcExtraStats:
    def test_silent_back_invalidations_counted(self):
        from repro.llc.llc import PartitionedLlc
        from repro.llc.partition import PartitionMap, PartitionSpec

        partition = PartitionSpec("p", [0], (0, 1), (0, 1))
        llc = PartitionedLlc(1, 1, PartitionMap([partition], 1, 1))
        region = llc.region(0, 0)
        llc.allocate(region, llc.free_entry(region), 0, 0)
        victim = llc.choose_victim(llc.region(1, 3))
        # Owner 0's copy is clean from the LLC's viewpoint: freeing now
        # with no dirty owners is a silent back-invalidation.
        llc.begin_eviction(victim, dirty_owners=[])
        assert llc.extra.silent_back_invalidations == 1
        assert llc.extra.entries_freed == 1

    def test_blocked_counter_reaches_report(self):
        from sim_helpers import shared_partition, small_config
        from repro.workloads.adversarial import conflict_storm_traces

        config = small_config(
            num_cores=4,
            partitions=[shared_partition(4, ways=2, sequencer=True)],
            llc_sets=1,
            llc_ways=2,
            max_slots=300_000,
        )
        traces = conflict_storm_traces(
            cores=[0, 1, 2, 3], partition_sets=1, lines_per_core=6, repeats=10
        )
        report = simulate(config, traces)
        assert report.llc_blocked_slots >= 0
        assert report.llc_stats.accesses > 0
