"""Unit tests for the set sequencer (one per-set FIFO table, Section 4.5)."""

import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CheckpointError, SimulationError
from repro.experiments.configs import build_system_for_notation
from repro.robustness.checkpoint import (
    _load_sequencer,
    _sequencer_state,
    restore_simulator,
    snapshot_simulator,
)
from repro.sequencer.set_sequencer import SetSequencer
from repro.sim.export import report_to_dict
from repro.sim.simulator import Simulator
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)


class TestSequencerQueue:
    """One set's FIFO: the paper's SQ queue, a deque in ``queues``."""

    def test_fifo_order(self):
        sequencer = SetSequencer(num_sets=8)
        for core in (2, 0, 3):
            sequencer.register(core, 0)
        assert sequencer.queue_snapshot(0) == (2, 0, 3)
        assert sequencer.queues[0][0] == 2

    def test_pop_head(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(1, 0)
        sequencer.register(2, 0)
        sequencer.complete(1, 0)
        assert sequencer.queue_snapshot(0) == (2,)

    def test_pop_wrong_core_rejected(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(1, 0)
        sequencer.register(2, 0)
        with pytest.raises(SimulationError, match="head of its queue is 1"):
            sequencer.complete(2, 0)

    def test_duplicate_enqueue_rejected(self):
        # A core already in a set's FIFO that the sequencer does not
        # record as queued (a desynced table) is refused, not queued twice.
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(0, 0)
        sequencer.queues[0].append(1)
        with pytest.raises(SimulationError, match="already queued"):
            sequencer.register(1, 0)

    def test_remove_mid_queue(self):
        sequencer = SetSequencer(num_sets=8)
        for core in (1, 2, 3):
            sequencer.register(core, 0)
        sequencer.cancel(2)
        assert sequencer.queue_snapshot(0) == (1, 3)
        sequencer.cancel(2)
        assert sequencer.queue_snapshot(0) == (1, 3)
        assert sequencer.stats.cancellations == 1

    def test_contains(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(5, 0)
        assert sequencer.is_queued(5)
        assert not sequencer.is_queued(6)


class TestQueueLookupTable:
    """The table itself: the paper's QLT, the keys of ``queues``."""

    def test_acquire_maps_set(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(0, 3)
        assert list(sequencer.queues) == [3]

    def test_acquire_is_stable(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(0, 3)
        sequencer.register(1, 3)
        assert len(sequencer.queues) == 1
        assert sequencer.queue_snapshot(3) == (0, 1)

    def test_release_only_when_empty(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(0, 3)
        sequencer.register(1, 3)
        sequencer.complete(0, 3)
        assert 3 in sequencer.queues
        sequencer.complete(1, 3)
        assert 3 not in sequencer.queues

    def test_queue_pool_recycled(self):
        # A drained set leaves the table; a new set takes its place.
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(0, 0)
        sequencer.complete(0, 0)
        sequencer.register(1, 5)
        assert sequencer.queues == {5: deque([1])}

    def test_out_of_range_set_rejected(self):
        sequencer = SetSequencer(num_sets=4)
        for set_index in (4, -1):
            with pytest.raises(SimulationError, match="out of range"):
                sequencer.register(0, set_index)
            with pytest.raises(SimulationError, match="out of range"):
                sequencer.may_claim(0, set_index)


class TestSetSequencer:
    def test_register_in_broadcast_order(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(2, 0)
        sequencer.register(0, 0)
        assert sequencer.queue_snapshot(0) == (2, 0)

    def test_register_is_idempotent_per_request(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(1, 0)
        sequencer.register(1, 0)
        assert sequencer.queue_snapshot(0) == (1,)

    def test_only_head_may_claim(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(2, 0)
        sequencer.register(1, 0)
        assert sequencer.may_claim(2, 0)
        assert not sequencer.may_claim(1, 0)

    def test_unqueued_core_may_claim_empty_set(self):
        sequencer = SetSequencer(num_sets=8)
        assert sequencer.may_claim(0, 5)

    def test_complete_pops_head_and_promotes_next(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(2, 0)
        sequencer.register(1, 0)
        sequencer.complete(2, 0)
        assert sequencer.may_claim(1, 0)

    def test_complete_of_unregistered_core_is_noop(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.complete(0, 3)  # completed on first attempt

    def test_cancel_from_middle(self):
        sequencer = SetSequencer(num_sets=8)
        for core in (3, 1, 2):
            sequencer.register(core, 0)
        sequencer.cancel(1)
        assert sequencer.queue_snapshot(0) == (3, 2)

    def test_queue_released_after_drain(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(0, 4)
        sequencer.complete(0, 4)
        assert len(sequencer.queues) == 0

    def test_is_queued_tracking(self):
        sequencer = SetSequencer(num_sets=8)
        assert not sequencer.is_queued(0)
        sequencer.register(0, 2)
        assert sequencer.is_queued(0)
        assert sequencer.queued_set_of(0) == 2
        sequencer.complete(0, 2)
        assert not sequencer.is_queued(0)

    def test_stats_counting(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(0, 0)
        sequencer.register(1, 0)
        sequencer.may_claim(0, 0)
        sequencer.may_claim(1, 0)
        sequencer.complete(0, 0)
        assert sequencer.stats.registrations == 2
        assert sequencer.stats.head_grants == 1
        assert sequencer.stats.blocked_not_head == 1
        assert sequencer.stats.completions == 1

    def test_separate_sets_have_independent_queues(self):
        sequencer = SetSequencer(num_sets=8)
        sequencer.register(0, 1)
        sequencer.register(1, 2)
        assert sequencer.may_claim(0, 1)
        assert sequencer.may_claim(1, 2)


# ----------------------------------------------------------------------
# Against a reference model: a list of FIFOs
# ----------------------------------------------------------------------
class FifoListModel:
    """The sequencer's contract, spelled out with plain lists."""

    def __init__(self, num_sets):
        self.num_sets = num_sets
        self.fifos = {}

    def set_of(self, core):
        for set_index, fifo in self.fifos.items():
            if core in fifo:
                return set_index
        return None

    def register(self, core, set_index):
        if self.set_of(core) is None:
            self.fifos.setdefault(set_index, []).append(core)

    def may_claim(self, core, set_index):
        fifo = self.fifos.get(set_index)
        return not fifo or fifo[0] == core

    def complete_is_legal(self, core):
        set_index = self.set_of(core)
        return set_index is None or self.fifos[set_index][0] == core

    def complete(self, core):
        self.cancel(core)

    def cancel(self, core):
        set_index = self.set_of(core)
        if set_index is not None:
            self.fifos[set_index].remove(core)
            if not self.fifos[set_index]:
                del self.fifos[set_index]


OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["register", "may_claim", "complete", "cancel"]),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(operations=OPERATIONS)
def test_sequencer_matches_a_list_of_fifos(operations):
    sequencer = SetSequencer(num_sets=4)
    model = FifoListModel(num_sets=4)
    for operation, core, set_index in operations:
        if operation == "register":
            sequencer.register(core, set_index)
            model.register(core, set_index)
        elif operation == "may_claim":
            assert sequencer.may_claim(core, set_index) == model.may_claim(
                core, set_index
            )
        elif operation == "complete":
            if not model.complete_is_legal(core):
                with pytest.raises(SimulationError):
                    sequencer.complete(core, set_index)
                return
            sequencer.complete(core, set_index)
            model.complete(core)
        else:
            sequencer.cancel(core)
            model.cancel(core)
        assert {s: list(q) for s, q in sequencer.queues.items()} == model.fifos
        for each in range(4):
            assert sequencer.queued_set_of(each) == model.set_of(each)


# ----------------------------------------------------------------------
# Checkpoint round trip
# ----------------------------------------------------------------------
def _contended_sequencer():
    sequencer = SetSequencer(num_sets=8)
    sequencer.register(0, 1)
    sequencer.register(1, 1)
    sequencer.register(2, 6)
    sequencer.may_claim(1, 1)
    return sequencer


def test_sequencer_round_trips_through_its_checkpoint_state():
    original = _contended_sequencer()
    state = json.loads(json.dumps(_sequencer_state(original)))
    restored = SetSequencer(num_sets=8)
    _load_sequencer(restored, state)
    for sequencer in (original, restored):
        assert sequencer.queues == {1: deque([0, 1]), 6: deque([2])}
        assert sequencer._queued_set == {0: 1, 1: 1, 2: 6}
    assert restored.stats == original.stats
    # Both continue identically: the heads complete and a new set
    # takes a queue.
    for sequencer in (original, restored):
        sequencer.complete(0, 1)
        sequencer.complete(2, 6)
        sequencer.register(3, 7)
    assert restored.queues == original.queues == {1: deque([1]), 7: deque([3])}
    assert restored.stats == original.stats


def test_checkpoint_table_larger_than_the_sequencer_is_refused():
    state = _sequencer_state(_contended_sequencer())
    with pytest.raises(CheckpointError, match="does not fit"):
        _load_sequencer(SetSequencer(num_sets=4), state)


def test_simulation_paused_with_queued_cores_resumes_bit_identically():
    config = build_system_for_notation("SS(4,16,4)", num_cores=4)
    traces = generate_disjoint_workload(
        SyntheticWorkloadConfig(
            num_requests=40, address_range_size=8192, write_fraction=1.0, seed=2022
        ),
        range(4),
    )
    uninterrupted = Simulator(config, traces).run()

    paused = Simulator(config, traces)
    paused.engine.advance(90)
    sequencer = next(iter(paused.system.sequencers.values()))
    assert sequencer.queues
    payload = json.loads(json.dumps(snapshot_simulator(paused)))
    resumed = Simulator(config, traces)
    restore_simulator(resumed, payload)
    report = resumed.run()
    assert json.dumps(report_to_dict(report), sort_keys=True) == json.dumps(
        report_to_dict(uninterrupted), sort_keys=True
    )
