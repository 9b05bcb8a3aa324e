"""Unit tests for the PRB/PWB buffers and the slot arbiter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.arbiter import ArbitrationPolicy, PrbPwbArbiter
from repro.bus.buffers import (
    PendingRequest,
    PendingRequestBuffer,
    PendingWritebackBuffer,
    WritebackEntry,
    WritebackReason,
)
from repro.common.errors import ConfigurationError, SimulationError
from repro.common.types import AccessType, TransactionKind


def request(core=0, block=1, at=0):
    return PendingRequest(core=core, block=block, access=AccessType.WRITE, enqueued_at=at)


def writeback(core=0, block=1, at=0, reason=WritebackReason.CAPACITY):
    return WritebackEntry(core=core, block=block, reason=reason, enqueued_at=at)


class TestPendingRequestBuffer:
    def test_push_pop(self):
        prb = PendingRequestBuffer(0)
        entry = request()
        prb.push(entry)
        assert prb.entry is entry
        assert prb.pop() is entry
        assert prb.is_empty

    def test_one_outstanding_request_enforced(self):
        prb = PendingRequestBuffer(0)
        prb.push(request(block=1))
        with pytest.raises(SimulationError, match="one outstanding"):
            prb.push(request(block=2))

    def test_wrong_core_rejected(self):
        prb = PendingRequestBuffer(0)
        with pytest.raises(SimulationError):
            prb.push(request(core=1))

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            PendingRequestBuffer(0).pop()

    def test_latency_of_completed(self):
        entry = request(at=100)
        entry.completed_at = 350
        assert entry.latency == 250

    def test_latency_of_incomplete_rejected(self):
        with pytest.raises(SimulationError):
            request().latency


class TestPendingWritebackBuffer:
    def test_fifo_order(self):
        pwb = PendingWritebackBuffer(0)
        pwb.push(writeback(block=1))
        pwb.push(writeback(block=2))
        assert pwb.pop().block == 1
        assert pwb.pop().block == 2

    def test_peek_does_not_remove(self):
        pwb = PendingWritebackBuffer(0)
        pwb.push(writeback(block=7))
        assert pwb.peek().block == 7
        assert len(pwb) == 1

    def test_peek_empty(self):
        assert PendingWritebackBuffer(0).peek() is None

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            PendingWritebackBuffer(0).pop()

    def test_wrong_core_rejected(self):
        with pytest.raises(SimulationError):
            PendingWritebackBuffer(0).push(writeback(core=2))

    def test_max_occupancy_tracked(self):
        pwb = PendingWritebackBuffer(0)
        for block in range(3):
            pwb.push(writeback(block=block))
        pwb.pop()
        assert pwb.max_occupancy == 3

    def test_blocks_listing(self):
        pwb = PendingWritebackBuffer(0)
        pwb.push(writeback(block=4))
        pwb.push(writeback(block=9))
        assert pwb.blocks() == [4, 9]

    def test_back_invalidation_jumps_capacity(self):
        # The freeing write-back must not wait behind a capacity one:
        # another core may be blocked on the PENDING_EVICT entry, and
        # the Theorem 4.7 decay rate budgets exactly one write-back
        # slot for it.
        pwb = PendingWritebackBuffer(0)
        pwb.push(writeback(block=1))
        pwb.push(writeback(block=2, reason=WritebackReason.BACK_INVALIDATION))
        assert pwb.peek().block == 2
        assert pwb.pop().block == 2
        assert pwb.pop().block == 1

    def test_fifo_within_each_class(self):
        pwb = PendingWritebackBuffer(0)
        pwb.push(writeback(block=1, reason=WritebackReason.BACK_INVALIDATION))
        pwb.push(writeback(block=2))
        pwb.push(writeback(block=3, reason=WritebackReason.BACK_INVALIDATION))
        assert [pwb.pop().block for _ in range(3)] == [1, 3, 2]

    def test_slot_eligibility_cutoff(self):
        # A back-invalidation queued *after* the slot started must not
        # shadow a capacity write-back that was already waiting.
        pwb = PendingWritebackBuffer(0)
        pwb.push(writeback(block=1, at=0))
        pwb.push(
            writeback(block=2, at=100, reason=WritebackReason.BACK_INVALIDATION)
        )
        assert pwb.peek(before=50).block == 1
        assert pwb.pop(before=50).block == 1
        assert pwb.peek(before=50) is None


class TestArbitrationPolicyParse:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("round-robin", ArbitrationPolicy.ROUND_ROBIN),
            ("WRITEBACK-FIRST", ArbitrationPolicy.WRITEBACK_FIRST),
            ("request-first", ArbitrationPolicy.REQUEST_FIRST),
        ],
    )
    def test_parse(self, name, expected):
        assert ArbitrationPolicy.parse(name) is expected

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            ArbitrationPolicy.parse("priority")


class TestArbiter:
    def test_idle_when_nothing_pending(self):
        assert PrbPwbArbiter().choose(False, False) is None

    def test_only_request(self):
        assert PrbPwbArbiter().choose(True, False) is TransactionKind.REQUEST

    def test_only_writeback(self):
        assert PrbPwbArbiter().choose(False, True) is TransactionKind.WRITE_BACK

    def test_round_robin_alternates_under_contention(self):
        arbiter = PrbPwbArbiter(ArbitrationPolicy.ROUND_ROBIN)
        grants = [arbiter.choose(True, True) for _ in range(4)]
        assert grants == [
            TransactionKind.WRITE_BACK,
            TransactionKind.REQUEST,
            TransactionKind.WRITE_BACK,
            TransactionKind.REQUEST,
        ]

    def test_uncontended_grant_preserves_turn(self):
        arbiter = PrbPwbArbiter(ArbitrationPolicy.ROUND_ROBIN)
        assert arbiter.choose(True, True) is TransactionKind.WRITE_BACK
        # Request-only slots do not consume the write-back's next turn...
        assert arbiter.choose(True, False) is TransactionKind.REQUEST
        # ...so the next contended slot goes to the request (whose turn it is).
        assert arbiter.choose(True, True) is TransactionKind.REQUEST

    def test_writeback_first_policy(self):
        arbiter = PrbPwbArbiter(ArbitrationPolicy.WRITEBACK_FIRST)
        for _ in range(3):
            assert arbiter.choose(True, True) is TransactionKind.WRITE_BACK

    def test_request_first_policy(self):
        arbiter = PrbPwbArbiter(ArbitrationPolicy.REQUEST_FIRST)
        for _ in range(3):
            assert arbiter.choose(True, True) is TransactionKind.REQUEST

    def test_reset_restores_initial_preference(self):
        arbiter = PrbPwbArbiter(ArbitrationPolicy.ROUND_ROBIN)
        arbiter.choose(True, True)
        arbiter.reset()
        assert arbiter.choose(True, True) is TransactionKind.WRITE_BACK


def reference_select(entries, before):
    """The PWB's choice by brute force: the first eligible back-
    invalidation, else the first eligible entry (``before`` inclusive)."""
    eligible = [e for e in entries if before is None or e.enqueued_at <= before]
    for entry in eligible:
        if entry.reason is WritebackReason.BACK_INVALIDATION:
            return entry
    return eligible[0] if eligible else None


pwb_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(min_value=0, max_value=5),
            st.sampled_from(list(WritebackReason)),
        ),
        st.tuples(
            st.just("pop"),
            st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
        ),
    ),
    max_size=40,
)


@given(operations=pwb_operations)
@settings(max_examples=200)
def test_pwb_peek_and_pop_match_the_brute_force_choice(operations):
    pwb = PendingWritebackBuffer(0)
    model = []
    clock = 0
    for block, operation in enumerate(operations):
        if operation[0] == "push":
            _, gap, reason = operation
            clock += gap  # pushes arrive in cycle order
            entry = writeback(block=block, at=clock, reason=reason)
            pwb.push(entry)
            model.append(entry)
            continue
        before = operation[1]
        # Probe the eligibility boundary itself: `before` is inclusive.
        for probe in (before, clock, clock - 1):
            assert pwb.peek(probe) is reference_select(model, probe)
        expected = reference_select(model, before)
        if expected is None:
            with pytest.raises(SimulationError, match="empty PWB"):
                pwb.pop(before)
            continue
        assert pwb.pop(before) is expected
        model.remove(expected)
        assert pwb.blocks() == [entry.block for entry in model]


@given(
    operations=st.lists(
        st.one_of(
            st.tuples(
                st.just("push"),
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=2),
                st.sampled_from(list(WritebackReason)),
            ),
            st.tuples(st.just("send"), st.integers(min_value=0, max_value=40)),
        ),
        max_size=40,
    )
)
@settings(max_examples=200)
def test_peek_then_remove_sends_what_pop_sends(operations):
    """The slot engine's write-back slot: ``peek(slot_start)``, then
    ``remove`` of that very entry.  It must send the entry ``pop`` would
    (Corollary 4.5's order: back-invalidations first) and leave the same
    queue.  Blocks repeat, so equal entries can sit in one queue."""
    sent_by_engine = PendingWritebackBuffer(0)
    popped = PendingWritebackBuffer(0)
    model = []
    clock = 0
    for operation in operations:
        if operation[0] == "push":
            _, gap, block, reason = operation
            clock += gap  # pushes arrive in cycle order
            entry = writeback(block=block, at=clock, reason=reason)
            assert sent_by_engine.push(entry) == len(model) + 1
            popped.push(writeback(block=block, at=clock, reason=reason))
            model.append(entry)
            continue
        slot_start = operation[1]
        chosen = sent_by_engine.peek(slot_start)
        assert chosen is reference_select(model, slot_start)
        if chosen is None:
            with pytest.raises(SimulationError, match="empty PWB"):
                popped.pop(slot_start)
            continue
        model.remove(chosen)
        assert sent_by_engine.remove(chosen) == len(model)
        assert popped.pop(slot_start) == chosen
        assert list(sent_by_engine._entries) == list(popped._entries)
        assert [id(entry) for entry in sent_by_engine._entries] == [
            id(entry) for entry in model
        ]
