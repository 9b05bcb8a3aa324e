"""The idle-slot fast-forward engine: equivalence, gating, regression.

The fast engine's contract is *bit-identity*: every exported number —
the :func:`repro.sim.export.report_to_dict` JSON, ``slot_usage``,
``total_slots`` — must equal the reference per-slot loop's, on every
input.  These tests pin that contract on boundary-biased property
cases, sparse think-heavy workloads (where the fast path actually
jumps), timeout and drain-writeback edges, and pin the reference-
forcing rules: a pre-slot fault hook lands on its exact target slot
even when that slot sits mid idle-gap under the fast engine.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.cpu.core import CoreState
from repro.cpu.private_stack import PrivateStack, PrivateStackConfig
from repro.robustness.checkpoint import snapshot_simulator
from repro.robustness.faults import FaultKind, FaultPlan, install_fault_plan
from repro.robustness.fuzz import (
    config_from_dict,
    generate_case,
    traces_from_case,
)
from repro.robustness.oracle import ORACLE_CHECKS, check_run
from repro.sim.codec import canonical_digest
from repro.sim.engine import SlotEngine
from repro.sim.export import report_to_dict
from repro.sim.simulator import Simulator, simulate
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)
from repro.workloads.trace import MemoryTrace, TraceRecord
from sim_helpers import private_partitions, small_config, write_trace_of

from repro.common.types import AccessType


def _run_both(config, traces, count_jumps: bool = False):
    """Run ``traces`` under both engines; return the two reports.

    With ``count_jumps=True`` also returns how many fast-forward jumps
    the fast run committed, so a test can assert the fast path actually
    engaged (an equivalence proof over a never-taken path proves
    nothing).
    """
    fast_config = dataclasses.replace(config, engine="fast")
    reference_config = dataclasses.replace(config, engine="reference")
    sim = Simulator(fast_config, traces)
    jumps = 0
    if count_jumps:
        original = sim.engine._try_fast_forward

        def counting():
            nonlocal jumps
            took = original()
            if took:
                jumps += 1
            return took

        sim.engine._try_fast_forward = counting
    fast = sim.run()
    reference = simulate(reference_config, traces)
    if count_jumps:
        return fast, reference, jumps
    return fast, reference


def _assert_identical(fast, reference):
    """The full exported surface must match byte-for-byte."""
    fast_bytes = json.dumps(report_to_dict(fast), sort_keys=True)
    reference_bytes = json.dumps(report_to_dict(reference), sort_keys=True)
    assert fast_bytes == reference_bytes
    assert fast.slot_usage == reference.slot_usage
    assert fast.total_slots == reference.total_slots
    assert fast.timed_out == reference.timed_out


class TestPropertyEquivalence:
    def test_fast_equals_reference_on_fuzz_cases(self):
        """Boundary-biased random scenarios: fast ≡ reference, always."""
        rng = random.Random(1234)
        for index in range(25):
            case = generate_case(rng, index)
            config = dataclasses.replace(
                config_from_dict(case.config), record_events=False
            )
            traces = traces_from_case(case)
            fast, reference = _run_both(config, traces)
            _assert_identical(fast, reference)

    def test_fast_equals_reference_on_boundary_think_gaps(self):
        """Think gaps landing exactly on/around slot boundaries.

        The eligibility rule is ``enqueued_at <= slot_start``; gaps of
        SW-1, SW and SW+1 cycles pin the candidate-slot rounding on
        both sides of each boundary.
        """
        config = dataclasses.replace(
            small_config(num_cores=2, record_events=False), slot_width=50
        )
        for gap in (49, 50, 51, 99, 100, 101, 149):
            records = []
            for i in range(12):
                records.append(
                    TraceRecord(
                        address=(i * 7) * config.line_size,
                        access=AccessType.WRITE,
                        compute_cycles=gap if i % 3 == 0 else 0,
                    )
                )
            traces = {
                0: MemoryTrace(records, name="gappy"),
                1: write_trace_of(range(100, 108)),
            }
            fast, reference = _run_both(config, traces)
            _assert_identical(fast, reference)


class TestSparseWorkloads:
    def test_fast_forward_engages_and_matches_on_sparse_traces(self):
        """Long think gaps: the fast path must jump, and bit-match."""
        config = small_config(num_cores=2, record_events=False)
        workload = SyntheticWorkloadConfig(
            num_requests=30,
            address_range_size=2048,
            seed=7,
            max_think_cycles=5000,
        )
        traces = generate_disjoint_workload(workload, [0, 1])
        fast, reference, jumps = _run_both(config, traces, count_jumps=True)
        _assert_identical(fast, reference)
        assert jumps > 0, "sparse workload never took the fast path"

    def test_timeout_mid_idle_gap(self):
        """A slot cap landing inside an idle stretch reports identically."""
        config = dataclasses.replace(
            small_config(num_cores=2, record_events=False), max_slots=40
        )
        traces = {
            # One access, then a think gap far past the 40-slot cap.
            0: MemoryTrace(
                [
                    TraceRecord(0, AccessType.WRITE),
                    TraceRecord(
                        64, AccessType.WRITE, compute_cycles=1_000_000
                    ),
                ],
                name="sleeper",
            ),
            1: write_trace_of([100, 101]),
        }
        fast, reference = _run_both(config, traces)
        _assert_identical(fast, reference)
        assert fast.timed_out
        assert fast.total_slots == 40

    def test_drain_writebacks(self):
        """Dirty write-backs queued at the end are drained."""
        config = small_config(num_cores=2, llc_sets=1, llc_ways=2, record_events=False)
        # Writes over more blocks than the one-set LLC region holds:
        # evictions and back-invalidation write-backs are guaranteed.
        traces = {
            0: write_trace_of([0, 1, 2, 3, 0, 1, 2, 3]),
            1: write_trace_of([4, 5, 6, 7, 4, 5, 6, 7]),
        }
        fast, reference = _run_both(config, traces)
        _assert_identical(fast, reference)


class TestReferenceForcing:
    def test_pre_slot_fault_fires_on_exact_mid_gap_slot(self):
        """Regression: a fault targeted mid idle-gap must not be skipped.

        Hooks force the reference path; with the fast engine configured
        and a sparse workload whose idle stretch covers the target slot,
        the injector must still fire at exactly that slot — a fast
        engine that jumped the gap would deliver it late (or never).
        """
        config = small_config(num_cores=2, record_events=True)
        traces = {
            0: MemoryTrace(
                [
                    TraceRecord(0, AccessType.WRITE),
                    # ~30 slots of think time: slots ~2..30 are idle.
                    TraceRecord(64, AccessType.WRITE, compute_cycles=1500),
                ],
                name="gap",
            ),
            1: write_trace_of([100]),
        }
        target_slot = 15
        sim = Simulator(
            dataclasses.replace(config, engine="fast"), traces
        )
        seen_slots = []
        sim.engine.add_pre_slot_hook(
            lambda engine, slot: seen_slots.append(slot)
        )
        plan = FaultPlan.single(kind=FaultKind.DROPPED_SLOT, slot=target_slot)
        injector = install_fault_plan(sim.engine, plan)
        sim.run()
        assert injector.unfired() == []
        assert injector.injected[0].spec.slot == target_slot
        # The hook saw every slot up to the fault's target — no slot in
        # the idle gap was jumped over.
        assert seen_slots[: target_slot + 1] == list(range(target_slot + 1))

    def test_event_recording_forces_reference_path(self):
        """With events on, the fast engine must never jump (the golden
        traces depend on this)."""
        config = small_config(num_cores=2, record_events=True)
        workload = SyntheticWorkloadConfig(
            num_requests=10,
            address_range_size=1024,
            seed=3,
            max_think_cycles=5000,
        )
        traces = generate_disjoint_workload(workload, [0, 1])
        fast, reference, jumps = _run_both(config, traces, count_jumps=True)
        assert jumps == 0
        # Event streams byte-identical, not just aggregate numbers.
        fast_events = [repr(e) for e in fast.events.all()]
        reference_events = [repr(e) for e in reference.events.all()]
        assert fast_events == reference_events

    def test_checked_mode_counter_equivalence(self):
        """``checked=True`` asserts the incremental completion counters
        against the reference scan at every slot; a full run is the
        counter test."""
        config = dataclasses.replace(
            small_config(num_cores=2, llc_sets=1, llc_ways=2, record_events=False),
            checked=True,
        )
        traces = {
            0: write_trace_of([0, 1, 2, 3, 0, 1, 2, 3]),
            1: write_trace_of([4, 5, 6, 7]),
        }
        report = simulate(config, traces)
        assert not report.timed_out


#: Private policies the fast engine predicts through (``random`` and
#: ``oracle`` force the reference path).
DETERMINISTIC_POLICIES = ("lru", "mru", "nmru", "fifo", "round-robin", "plru")


def _mixed_think_gap_run(policy: str, seed: int):
    """Two cores of mixed R/W/I traffic over 24 blocks each, with think
    gaps, through the default 8-line L1s and 64-line L2 and an 8-line
    private LLC partition per core: L1 and L2 hits, L1 victims, LLC
    misses and back-invalidations all land between the gaps the fast
    engine jumps."""
    config = dataclasses.replace(
        small_config(
            num_cores=2,
            partitions=private_partitions(2, sets_per_core=2),
            llc_sets=4,
            record_events=False,
        ),
        stack=PrivateStackConfig(policy=policy),
    )
    rng = random.Random(seed)
    kinds = (AccessType.READ, AccessType.WRITE, AccessType.INSTR)
    traces = {}
    for core in range(2):
        records = [
            TraceRecord(
                (core * 1000 + rng.randrange(24)) * config.line_size,
                rng.choice(kinds),
                compute_cycles=rng.choice((0, 0, 0, rng.randrange(600, 3000))),
            )
            for _ in range(60)
        ]
        traces[core] = MemoryTrace(records, name=f"mixed{core}")
    return config, traces


class TestPredictionClones:
    def test_prediction_clone_answers_like_the_live_stack(self):
        stack = PrivateStack(0, PrivateStackConfig())
        for block in range(20):
            stack.access(block, AccessType.WRITE)
            stack.fill_from_llc(block, AccessType.WRITE)
        prediction = stack.clone_for_prediction()
        for block in range(25):
            live_hit = stack.contains(block)
            result = prediction.access(block, AccessType.WRITE)
            assert (result.hit_level is not None) == live_hit

    def test_prediction_replay_restores_core_state(self):
        """predict_next_bus_event leaves no observable footprint."""
        from repro.cpu.core import TraceDrivenCore

        trace = MemoryTrace(
            [
                TraceRecord(block * 64, AccessType.WRITE, compute_cycles=30)
                for block in range(10)
            ],
            name="probe",
        )
        core = TraceDrivenCore(0, PrivateStack(0), trace, line_size=64)
        before = (
            core.time,
            core.position,
            core.state,
            core.private_hits,
            core.llc_requests,
            core.stack.version,
        )
        first = core.predict_next_bus_event()
        assert first.miss_at is not None
        after = (
            core.time,
            core.position,
            core.state,
            core.private_hits,
            core.llc_requests,
            core.stack.version,
        )
        assert before == after
        # Cached while the stack version is unchanged.
        assert core.predict_next_bus_event() is first

    @pytest.mark.parametrize("policy", DETERMINISTIC_POLICIES)
    def test_prediction_leaves_no_trace_on_the_simulator(self, policy):
        """A fresh prediction at any pause changes no checkpointed byte
        (L1 policy state included) and repeats a still-valid one."""
        config, traces = _mixed_think_gap_run(policy, seed=5)
        sim = Simulator(config, traces)
        predictions = 0
        stop = 0
        while not sim.engine.run_complete():
            stop += 3
            sim.engine.advance(stop_at_slot=stop)
            before = canonical_digest(snapshot_simulator(sim))
            for core in sim.system.cores.values():
                if core.state is not CoreState.RUNNING:
                    continue
                cached = None
                if core._prediction_version == core.stack.version:
                    cached = core._prediction
                core._prediction = None
                fresh = core.predict_next_bus_event()
                predictions += 1
                assert cached is None or fresh == cached
            assert canonical_digest(snapshot_simulator(sim)) == before
        assert predictions > 20

    @pytest.mark.parametrize("policy", DETERMINISTIC_POLICIES)
    def test_fast_equals_reference_through_l1s(self, policy):
        """Prediction through the L1 views on mixed traffic: fast ≡
        reference, and the fast path jumps."""
        for seed in range(8):
            config, traces = _mixed_think_gap_run(policy, seed)
            fast, reference, jumps = _run_both(config, traces, count_jumps=True)
            _assert_identical(fast, reference)
            assert jumps > 0


class TestOracleDifferential:
    def test_engine_differential_is_registered(self):
        assert "engine-differential" in ORACLE_CHECKS
        assert len(ORACLE_CHECKS) == 10

    def test_clean_run_passes_with_traces(self):
        config = small_config(num_cores=2, record_events=True)
        traces = {
            0: write_trace_of([0, 1, 2, 3]),
            1: write_trace_of([10, 11, 12]),
        }
        report = simulate(config, traces)
        oracle = check_run(report, config, traces=traces)
        assert oracle.passed, oracle.summary()

    def test_differential_flags_divergent_rerun(self):
        """Feeding the oracle different traces than the run used must
        trip the differential (the re-run's report cannot match)."""
        config = small_config(num_cores=2, record_events=True)
        traces = {
            0: write_trace_of([0, 1, 2, 3]),
            1: write_trace_of([10, 11, 12]),
        }
        report = simulate(config, traces)
        tampered = dict(traces)
        tampered[1] = write_trace_of([10, 11, 12, 13, 14, 15])
        oracle = check_run(report, config, traces=tampered)
        assert "engine-differential" in oracle.checks_failed()

    def test_no_traces_skips_differential(self):
        config = small_config(num_cores=2, record_events=True)
        traces = {0: write_trace_of([0, 1]), 1: write_trace_of([10])}
        report = simulate(config, traces)
        oracle = check_run(report, config)
        assert oracle.passed
        assert "engine-differential" not in oracle.checks_failed()


class TestStaticGating:
    def test_random_policies_disable_fast_path(self):
        config = dataclasses.replace(
            small_config(num_cores=2, record_events=False, llc_policy="random"),
            engine="fast",
        )
        traces = {0: write_trace_of([0, 1]), 1: write_trace_of([10])}
        sim = Simulator(config, traces)
        assert not sim.engine._fast_ok
        random_stack = dataclasses.replace(
            small_config(num_cores=2, record_events=False),
            engine="fast",
            stack=PrivateStackConfig(policy="random"),
        )
        sim = Simulator(random_stack, traces)
        assert not sim.engine._fast_ok

    def test_reference_engine_disables_fast_path(self):
        config = dataclasses.replace(
            small_config(num_cores=2, record_events=False),
            engine="reference",
        )
        traces = {0: write_trace_of([0, 1]), 1: write_trace_of([10])}
        assert not Simulator(config, traces).engine._fast_ok
