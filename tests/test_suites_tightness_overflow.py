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
from repro.sequencer.set_sequencer import SetSequencer
from repro.sim.simulator import Simulator
from repro.workloads.adversarial import conflict_storm_traces
from repro.workloads.suites import SuiteSpec, get_suite, register_suite, suite_names
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)


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
    def test_unlimited_qlt_never_overflows(self):
        # One queue per set: four cores writing back-to-back into one
        # shared partition contend on several sets at once, yet never
        # need more queues than there are sets.
        config = build_system_for_notation("SS(4,16,4)", num_cores=4)
        workload = SyntheticWorkloadConfig(
            num_requests=40, address_range_size=8192, write_fraction=1.0
        )
        sim = Simulator(config, generate_disjoint_workload(workload, range(4)))
        report = sim.run()
        assert not report.timed_out
        assert report.starved_cores() == []
        [sequencer] = sim.system.sequencers.values()
        assert 1 < sequencer.stats.max_active_sets <= sequencer.num_sets

    def test_bad_queue_count_rejected(self):
        # The QLT has one queue per set: a sequencer needs a set.
        with pytest.raises(ConfigurationError):
            SetSequencer(num_sets=0)


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
