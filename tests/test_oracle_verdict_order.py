"""The oracle's verdicts keep their order when one stream breaks several
checks at once.

Chaos campaigns rarely make a case fail more than one check, so the
order of a multi-violation report is pinned here on a hand-edited event
stream: a wrong slot owner, a response outside its slot, a dropped
slot and an owner action past ``total_slots``.
"""

import dataclasses

from repro.common.types import AccessType
from repro.llc.partition import PartitionSpec
from repro.robustness.oracle import check_run
from repro.sim.config import SystemConfig
from repro.sim.events import EventKind, EventLog, SimEvent
from repro.sim.simulator import simulate
from repro.workloads.trace import MemoryTrace, TraceRecord

LINE = 64


def _recorded_run():
    config = SystemConfig(
        num_cores=2,
        partitions=[PartitionSpec("shared", [0], (0, 2), (0, 1), sequencer=True)],
        llc_sets=1,
        llc_ways=2,
        slot_width=50,
        record_events=True,
    )
    traces = {
        core: MemoryTrace(
            [TraceRecord(block * LINE, AccessType.WRITE) for block in blocks],
            name=f"c{core}",
        )
        for core, blocks in {0: [1, 2, 3, 1], 1: [4097, 4098]}.items()
    }
    return config, simulate(config, traces)


def _with_events(report, events):
    log = EventLog()
    for event in events:
        log.append(event)
    return dataclasses.replace(report, events=log)


def test_recorded_stream_is_the_one_edited_below():
    config, report = _recorded_run()
    events = report.events.all()
    assert report.total_slots == 9 and len(events) == 39
    assert str(events[12]) == "[c    145 s    2] response core=0 block=0x2 latency=100"
    assert str(events[28]) == "[c    250 s    5] slot-idle core=1"
    assert str(events[34]) == (
        "[c    350 s    7] wb-sent core=1 block=0x1002 back-invalidation->freed"
    )
    assert check_run(report, config).passed


def test_violations_keep_their_order_and_text():
    config, report = _recorded_run()
    events = report.events.all()
    response, idle = events[12], events[28]
    edited = list(events)
    # A response 15 cycles past the end of its slot.
    edited[12] = SimEvent(160, response.slot, response.kind, response.core,
                          response.block, None, None, response.detail)
    # Slot 5 belongs to core 1; credit its idle slot to core 0.
    edited[28] = SimEvent(idle.cycle, idle.slot, idle.kind, 0)
    # Drop slot 7's write-back: the slot is left without an owner action.
    del edited[34]
    # An owner action in slot 9, one past the reported run.
    edited.append(SimEvent(450, 9, EventKind.SLOT_IDLE, 1))

    verdict = check_run(_with_events(report, edited), config)

    assert [(v.check, v.slot, v.core, v.detail) for v in verdict.violations] == [
        ("slot-timing", 2, 0, "response at cycle 160 outside slot 2 [100, 150]"),
        ("slot-ownership", 5, 0, "slot-idle by core 0 in slot 5, owned by core 1"),
        (
            "slot-accounting",
            7,
            None,
            "slot 7 carries 0 owner action(s); the TDM bus grants exactly one "
            "transaction per slot (dropped slot?)",
        ),
        (
            "slot-accounting",
            9,
            None,
            "owner action in slot 9 beyond the reported 9 total slots",
        ),
        (
            "response-latency",
            2,
            0,
            "core 0 response at cycle 160, expected 145 (llc-alloc + 45)",
        ),
        (
            "request-accounting",
            None,
            0,
            "core 0: report records [(0, 45, 1), (100, 145, 1), (200, 245, 1), "
            "(300, 445, 2)] but the event stream replays [(0, 45, 1), "
            "(100, 160, 1), (200, 245, 1), (300, 445, 2)]",
        ),
    ]
    assert (verdict.events_checked, verdict.requests_checked) == (39, 6)
