#!/usr/bin/env python3
"""Demonstrate the Section 4.1 unbounded-WCL scenario, step by step.

Reproduces Figure 2: with a TDM schedule {c_ua, c1, c1} (the interferer
owns two slots per period), the interferer can write back the entry the
LLC freed for the victim and immediately re-occupy it — every period,
forever.  Under 1S-TDM the same workload completes within the Theorem
4.7 bound.

The script prints the victim-latency growth table, then replays a short
run with the event log enabled so you can watch the steal happen.

Run:  python examples/unbounded_starvation_demo.py
"""

from repro.analysis.unbounded import starvation_witness
from repro.bus.arbiter import ArbitrationPolicy
from repro.bus.schedule import TdmSchedule
from repro.common.types import AccessType
from repro.experiments.tables import render_table
from repro.llc.partition import PartitionSpec
from repro.sim.config import SystemConfig
from repro.sim.events import EventKind
from repro.sim.simulator import simulate
from repro.workloads.trace import MemoryTrace, TraceRecord


def growth_table() -> None:
    result = starvation_witness(stream_lengths=(50, 100, 200, 400), ways=4)
    print(
        render_table(
            ["interferer stream", "multi-slot TDM (cycles)", "1S-TDM (cycles)"],
            [
                list(row)
                for row in zip(
                    result.stream_lengths,
                    result.multi_slot_latencies,
                    result.one_slot_latencies,
                )
            ],
            title="Victim latency vs interferer stream length",
        )
    )
    print(
        f"\nmulti-slot latency grows without bound: {result.multi_slot_growth}\n"
        f"1S-TDM stays under the Theorem 4.7 bound "
        f"({result.one_slot_bound_cycles} cycles): {result.one_slot_bounded}\n"
    )


def event_replay() -> None:
    ways = 2
    partition = PartitionSpec("shared", [0], (0, ways), (0, 1))
    config = SystemConfig(
        num_cores=2,
        partitions=[partition],
        slot_width=50,
        schedule=TdmSchedule((0, 1, 1), 50),
        llc_sets=1,
        llc_ways=ways,
        arbitration=ArbitrationPolicy.WRITEBACK_FIRST,
        record_events=True,
        max_slots=60,
    )
    victim = MemoryTrace([TraceRecord(1 << 26, AccessType.WRITE)], name="victim")
    interferer = MemoryTrace(
        [TraceRecord(block * 64, AccessType.WRITE) for block in range(30)],
        name="interferer",
    )
    report = simulate(
        config, {0: victim, 1: interferer}, start_cycles={0: 6 * 150}
    )
    print("Event log excerpt (victim = core 0, interferer = core 1):")
    interesting = (
        EventKind.REQ_BROADCAST,
        EventKind.EVICT_START,
        EventKind.WB_SENT,
        EventKind.ENTRY_FREED,
        EventKind.LLC_ALLOC,
        EventKind.BLOCKED_FULL,
    )
    shown = 0
    for event in report.events:
        if event.kind in interesting and event.cycle >= 5 * 150:
            print("  " + str(event))
            shown += 1
            if shown >= 25:
                break
    victim_report = report.core_reports[0]
    print(
        f"\nAfter {report.total_slots} slots the victim's request is "
        f"{'STILL PENDING' if victim_report.outstanding_block is not None else 'complete'} "
        f"({victim_report.outstanding_attempts} failed bus attempts)."
    )


if __name__ == "__main__":
    growth_table()
    event_replay()
