"""The per-slot invariant monitor: clean runs pass, corruption fires.

Two obligations: (1) checked mode is *transparent* — a healthy
simulation produces the identical report with and without the monitor;
(2) every invariant *fires* — hand-corrupting the state it guards raises
an :class:`InvariantViolation` naming the invariant and carrying
slot/core/set context.
"""

import dataclasses

import pytest

from repro.common.errors import InvariantViolation, SimulationError
from repro.robustness.invariants import (
    InclusivityInvariant,
    InvariantMonitor,
    LatencyBoundInvariant,
    LlcConsistencyInvariant,
    OneOutstandingRequestInvariant,
    PartitionRoutingInvariant,
    PendingEvictAccountingInvariant,
    SequencerConsistencyInvariant,
    SlotAccountingInvariant,
    SlotSequenceInvariant,
    standard_invariants,
)
from repro.sim.simulator import Simulator, simulate
from sim_helpers import private_partitions, small_config, write_trace_of

TRACES = {
    0: write_trace_of([0, 1, 2, 3, 0, 1, 2, 3]),
    1: write_trace_of([8, 9, 10, 11, 8, 9, 10, 11]),
}


def checked(config):
    return dataclasses.replace(config, checked=True)


class TestCheckedMode:
    def test_clean_checked_run_matches_unchecked(self):
        config = small_config(num_cores=2, sequencer=True)
        plain = simulate(config, TRACES)
        monitored = simulate(checked(config), TRACES)
        assert monitored.makespan == plain.makespan
        assert monitored.observed_wcl() == plain.observed_wcl()
        assert monitored.requests == plain.requests

    def test_checked_run_with_private_partitions_is_clean(self):
        config = checked(small_config(num_cores=2, partitions=private_partitions(2)))
        traces = {0: write_trace_of([0, 1, 0, 1]), 1: write_trace_of([40, 41, 40])}
        report = simulate(config, traces)
        assert not report.timed_out

    def test_monitor_counts_checks(self):
        sim = Simulator(checked(small_config(num_cores=2)), TRACES)
        assert sim.monitor is not None
        sim.run()
        # Nine invariants, one check each per processed slot.
        assert sim.monitor.checks_run == 9 * sim.engine._slot
        assert sim.monitor.first_violation is None

    def test_unchecked_simulator_has_no_monitor(self):
        sim = Simulator(small_config(num_cores=2), TRACES)
        assert sim.monitor is None

    def test_standard_invariants_cover_the_documented_set(self):
        sim = Simulator(small_config(num_cores=2), TRACES)
        names = {inv.name for inv in standard_invariants(sim.system)}
        assert names == {
            "slot-sequence",
            "slot-accounting",
            "llc-consistency",
            "inclusivity",
            "pending-evict-accounting",
            "one-outstanding-request",
            "sequencer-fifo",
            "partition-routing",
            "latency-bound",
        }


def run_with(invariant_factory, corrupt, config=None, traces=None, at_slot=4):
    """Run a sim with one invariant installed, corrupting state mid-run.

    ``corrupt(engine)`` runs as a pre-slot hook at ``at_slot`` (the LLC
    has filled by then); returns the violation the invariant raised.
    """
    config = config or small_config(num_cores=2)
    sim = Simulator(config, traces or TRACES)
    monitor = InvariantMonitor([invariant_factory(sim)])
    monitor.install(sim.engine)

    fired = []

    def hook(engine, slot):
        if slot == at_slot and not fired:
            fired.append(slot)
            corrupt(engine)

    sim.engine.add_pre_slot_hook(hook)
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run()
    assert fired, "corruption hook never ran"
    assert monitor.first_violation is excinfo.value
    return excinfo.value


class TestEachInvariantFires:
    def test_slot_sequence_detects_skip(self):
        def corrupt(engine):
            engine._slot += 2

        violation = run_with(lambda sim: SlotSequenceInvariant(), corrupt)
        assert violation.invariant == "slot-sequence"
        assert violation.slot == 6
        assert "never processed" in str(violation)

    def test_slot_accounting_detects_extra_transaction(self):
        def corrupt(engine):
            engine._slot_usage[0]["idle"] += 1

        violation = run_with(lambda sim: SlotAccountingInvariant(), corrupt)
        assert violation.invariant == "slot-accounting"
        assert violation.slot == 4

    def test_llc_consistency_detects_index_corruption(self):
        def corrupt(engine):
            llc = engine.system.llc
            block, entry = next(iter(llc._valid_index.items()))
            entry.state = type(entry.state).FREE

        violation = run_with(lambda sim: LlcConsistencyInvariant(), corrupt)
        assert violation.invariant == "llc-consistency"

    @pytest.mark.parametrize("sets", [None, [0, 1]])
    def test_llc_consistency_detects_region_count_drift(self, sets):
        def corrupt(engine):
            engine.system.llc.regions()[0].free += 1

        violation = run_with(lambda sim: LlcConsistencyInvariant(sets=sets), corrupt)
        assert violation.invariant == "llc-consistency"
        assert violation.slot == 4
        assert "region counts" in str(violation)

    def test_inclusivity_detects_silently_dropped_llc_line(self):
        def corrupt(engine):
            llc = engine.system.llc
            for block in llc.resident_blocks():
                if llc.directory.owners_of(block):
                    llc.forget_line(block)
                    return
            raise AssertionError("no owned VALID line to drop")

        violation = run_with(lambda sim: InclusivityInvariant(), corrupt)
        assert violation.invariant == "inclusivity"
        assert violation.core is not None
        assert violation.set_index is not None

    def test_pending_evict_detects_lost_writeback(self):
        def corrupt(engine):
            llc = engine.system.llc
            for entry in llc.pending_entries():
                if entry.pending_writers:
                    writer = next(iter(entry.pending_writers))
                    engine.system.pwbs[writer]._queue.clear()
                    return
            # No eviction in flight at slot 4: fabricate one on a VALID
            # entry whose writer has nothing queued.
            block, entry = next(iter(llc._valid_index.items()))
            del llc._valid_index[block]
            entry.state = type(entry.state).PENDING_EVICT
            entry.pending_writers.add(0)
            llc._pending_index[block] = entry

        violation = run_with(lambda sim: PendingEvictAccountingInvariant(), corrupt)
        assert violation.invariant == "pending-evict-accounting"
        assert violation.core is not None
        assert violation.set_index is not None

    def test_one_outstanding_detects_lost_request(self):
        def corrupt(engine):
            for core_id, prb in engine.system.prbs.items():
                if prb.entry is not None:
                    prb.entry = None
                    return
            raise AssertionError("no outstanding request at slot 4")

        violation = run_with(lambda sim: OneOutstandingRequestInvariant(), corrupt)
        assert violation.invariant == "one-outstanding-request"
        assert "lost request" in str(violation)

    def test_sequencer_detects_queue_desync(self):
        config = small_config(num_cores=2, sequencer=True)

        def corrupt(engine):
            sequencer = next(iter(engine.system.sequencers.values()))
            # Queue a core that has no outstanding request on that set,
            # or desync an already-queued core's recorded set.
            for core_id, prb in engine.system.prbs.items():
                if prb.entry is None:
                    # Set 3 is unreachable: the shared partition folds
                    # every block to set 0, so this can never match.
                    sequencer._queued_set[core_id] = 3
                    return
            core_id = next(iter(sequencer._queued_set))
            sequencer._queued_set[core_id] = (sequencer._queued_set[core_id] + 1) % 4

        violation = run_with(
            lambda sim: SequencerConsistencyInvariant(), corrupt, config=config
        )
        assert violation.invariant == "sequencer-fifo"

    def test_partition_routing_detects_foreign_request(self):
        config = small_config(num_cores=2, partitions=private_partitions(2))
        traces = {
            0: write_trace_of([0, 1, 2, 3, 0, 1, 2, 3]),
            1: write_trace_of([40, 41, 40, 41, 40, 41]),
        }

        def corrupt(engine):
            # Retarget core 0 at a block resident in core 1's partition:
            # rewrite its remaining trace (and any in-flight request).
            from repro.workloads.trace import TraceRecord

            core = engine.system.cores[0]
            core.trace._records[core.position :] = [
                TraceRecord(40 * 64, record.access, record.compute_cycles)
                for record in core.trace._records[core.position :]
            ]
            request = engine.system.prbs[0].entry
            if request is not None:
                request.block = 40

        # Inject at slot 5 — owned by core 1 — so the monitor sees the
        # corrupted request before core 0's own slot tries to serve it.
        violation = run_with(
            lambda sim: PartitionRoutingInvariant(sim.system),
            corrupt,
            config=config,
            traces=traces,
            at_slot=5,
        )
        assert violation.invariant == "partition-routing"
        assert violation.core == 0
        assert violation.set_index is not None

    def test_latency_bound_detects_overrun(self):
        def corrupt(engine):
            # Backdate an in-flight request's broadcast (the engine only
            # stamps it when unset) so its apparent bus latency on
            # completion dwarfs any bound.
            for prb in engine.system.prbs.values():
                if prb.entry is not None:
                    prb.entry.first_on_bus_at = -10_000_000
                    return
            raise AssertionError("no outstanding request at slot 4")

        violation = run_with(
            lambda sim: LatencyBoundInvariant(sim.config), corrupt
        )
        assert violation.invariant == "latency-bound"
        assert violation.core is not None
        assert "bound" in str(violation)


class TestViolationContext:
    def test_message_names_slot_core_and_set(self):
        violation = InvariantViolation(
            "inclusivity", "boom", slot=7, core=1, set_index=3
        )
        text = str(violation)
        assert "invariant 'inclusivity'" in text
        assert "slot 7" in text
        assert "core 1" in text
        assert "set 3" in text
        assert violation.invariant == "inclusivity"
        assert (violation.slot, violation.core, violation.set_index) == (7, 1, 3)

    def test_violation_is_a_simulation_error(self):
        assert issubclass(InvariantViolation, SimulationError)
