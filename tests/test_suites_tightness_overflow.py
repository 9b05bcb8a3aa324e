"""Tests for workload suites, QLT overflow in-system, and tightness."""

import dataclasses

import pytest

from repro.bus.arbiter import ArbitrationPolicy
from repro.bus.schedule import distance
from repro.common.errors import ConfigurationError
from repro.experiments.configs import build_system_for_notation
from repro.experiments.tightness import (
    TightnessRow,
    install_adversarial_replacement,
    run_tightness,
)
from repro.sim.simulator import Simulator, simulate
from repro.workloads.adversarial import conflict_storm_traces
from repro.workloads.suites import SuiteSpec, get_suite, register_suite, suite_names
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)

from sim_helpers import shared_partition, small_config


class TestSuites:
    def test_registry_has_core_suites(self):
        names = suite_names()
        for expected in ("fig7", "fig8", "storm", "pingpong", "readonly", "mixed"):
            assert expected in names

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload suite"):
            get_suite("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_suite(
                SuiteSpec("fig7", "dup", lambda *a: {})
            )

    @pytest.mark.parametrize("name", ["fig7", "fig8", "storm", "pingpong", "readonly", "mixed"])
    def test_every_suite_builds_per_core_traces(self, name):
        traces = get_suite(name).build(num_cores=2, num_requests=40, address_range=2048)
        assert set(traces) == {0, 1}
        assert all(len(trace) > 0 for trace in traces.values())

    def test_suites_are_deterministic(self):
        first = get_suite("fig7").build(2, 30, 2048, seed=5)
        second = get_suite("fig7").build(2, 30, 2048, seed=5)
        assert first == second

    def test_readonly_suite_has_no_writes(self):
        traces = get_suite("readonly").build(2, 40, 2048)
        assert all(trace.write_fraction() == 0.0 for trace in traces.values())

    def test_fig7_suite_is_all_writes(self):
        traces = get_suite("fig7").build(2, 40, 2048)
        assert all(trace.write_fraction() == 1.0 for trace in traces.values())

    def test_suites_disjoint_across_cores(self):
        for name in ("fig7", "storm", "mixed"):
            traces = get_suite(name).build(3, 40, 2048)
            footprints = [set(t.addresses()) for t in traces.values()]
            for i, first in enumerate(footprints):
                for second in footprints[i + 1 :]:
                    assert not (first & second), name


class TestQltOverflowInSystem:
    def make_config(self, max_queues):
        config = small_config(
            num_cores=4,
            partitions=[
                shared_partition(4, sets=(0, 1, 2, 3), ways=4, sequencer=True)
            ],
            llc_sets=4,
            llc_ways=4,
            max_slots=300_000,
        )
        return dataclasses.replace(config, sequencer_max_queues=max_queues)

    def traces(self):
        # Contention on several sets at once to pressure the QLT.
        return conflict_storm_traces(
            cores=[0, 1, 2, 3],
            partition_sets=4,
            lines_per_core=24,
            repeats=8,
        )

    def test_tiny_qlt_still_completes_correctly(self):
        sim = Simulator(self.make_config(max_queues=1), self.traces())
        report = sim.run()
        assert not report.timed_out
        assert report.starved_cores() == []
        sim.system.check_inclusivity()

    def test_overflow_counted(self):
        # Four cores writing back-to-back into one shared partition
        # contend on more sets at once than the one-queue table holds.
        config = dataclasses.replace(
            build_system_for_notation("SS(4,16,4)", num_cores=4),
            sequencer_max_queues=1,
        )
        workload = SyntheticWorkloadConfig(
            num_requests=40, address_range_size=8192, write_fraction=1.0
        )
        sim = Simulator(config, generate_disjoint_workload(workload, range(4)))
        report = sim.run()
        assert not report.timed_out
        assert report.starved_cores() == []
        [sequencer] = sim.system.sequencers.values()
        assert sequencer.max_queues == 1
        assert sequencer.overflows > 0

    def test_unlimited_qlt_never_overflows(self):
        sim = Simulator(self.make_config(max_queues=None), self.traces())
        sim.run()
        assert sim.system.sequencers["shared"].overflows == 0

    def test_results_match_with_and_without_limit_pressure(self):
        # Correctness (every request completes; inclusivity) holds at
        # any QLT size; only timing may differ.
        small = simulate(self.make_config(1), self.traces())
        large = simulate(self.make_config(None), self.traces())
        assert small.dram_reads > 0 and large.dram_reads > 0
        for core in range(4):
            assert small.core_reports[core].completed
            assert large.core_reports[core].completed

    def test_bad_queue_count_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make_config(max_queues=0)


class TestTightness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_tightness(repeats=15)

    def test_rows_cover_both_configs_and_steerings(self, result):
        assert len(result.rows) == 4
        for config in ("SS(1,16,4)", "NSS(1,16,4)"):
            for adversarial in (False, True):
                assert result.row(config, adversarial)

    def test_adversarial_steering_raises_observed_wcl(self, result):
        for config in ("SS(1,16,4)", "NSS(1,16,4)"):
            steered = result.row(config, True).observed_wcl
            unsteered = result.row(config, False).observed_wcl
            assert steered >= unsteered, config

    def test_bounds_never_violated(self, result):
        for row in result.rows:
            assert row.observed_wcl <= row.bound, row

    def test_ratio_math(self):
        row = TightnessRow("SS(1,16,4)", True, observed_wcl=500, bound=5000)
        assert row.ratio == pytest.approx(0.1)

    def test_render_contains_rows(self, result):
        text = result.render()
        assert "adversarial" in text and "random-storm" in text

    def test_missing_row_lookup_rejected(self, result):
        with pytest.raises(KeyError):
            result.row("P(1,16)", True)


def install_per_call_adversary(sim):
    """The max-distance chooser as first written: every victim choice
    recomputes each candidate's badness from ``distance``."""
    llc = sim.system.llc
    schedule = sim.system.schedule
    engine = sim.engine

    def chooser(candidates, set_index):
        requester = schedule.owner_of_slot(engine._slot)
        row = [llc.entry(set_index, way) for way in candidates]

        def badness(entry) -> int:
            if entry.block is None:
                return 0
            owners = llc.directory.owners_of(entry.block)
            foreign = [owner for owner in owners if owner != requester]
            if foreign:
                # The expensive case: a far-away owner must donate a
                # bus slot before the entry frees.
                return 2 + max(
                    distance(schedule, owner, requester) for owner in foreign
                )
            if owners:
                # Owned only by the requester: with the in-slot self
                # write-back this frees immediately — cheapest victim,
                # so the adversary avoids it.
                return 0
            # Unowned: frees instantly too, but at least destroys state.
            return 1

        worst = max(row, key=badness)
        return worst.way

    for set_index in range(llc.num_sets):
        llc.oracle_policy(set_index).set_chooser(chooser)


class TestAdversarialChooser:
    """The table-driven chooser picks exactly the per-call one's victims."""

    @staticmethod
    def steered_run(notation, install):
        config = build_system_for_notation(
            notation, num_cores=4, llc_policy="oracle", max_slots=3_000_000
        )
        config = dataclasses.replace(
            config, arbitration=ArbitrationPolicy.WRITEBACK_FIRST, checked=True
        )
        traces = conflict_storm_traces(
            cores=[0, 1, 2, 3], partition_sets=1, lines_per_core=24, repeats=10
        )
        sim = Simulator(config, traces)
        install(sim)
        return sim.run()

    @pytest.mark.parametrize("notation", ["SS(1,16,4)", "NSS(1,16,4)"])
    def test_table_chooser_matches_the_per_call_reference(self, notation):
        expected = self.steered_run(notation, install_per_call_adversary)
        actual = self.steered_run(notation, install_adversarial_replacement)
        assert not expected.timed_out
        # Foreign dirty owners were back-invalidated: victims were chosen
        # among lines the requester does not own.
        assert expected.llc_back_invalidations > 0
        assert actual.requests == expected.requests
        assert actual.llc_stats == expected.llc_stats
        assert actual.slot_usage == expected.slot_usage
