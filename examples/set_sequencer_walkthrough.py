#!/usr/bin/env python3
"""Watch the set sequencer (Figure 6) order contending misses.

Four cores hammer the same single-set partition with writes.  With the
sequencer (SS) the event log shows misses registering in broadcast
order, non-head cores being refused free entries (``seq-blocked``), and
allocations following the FIFO exactly.  Without it (NSS) the first
core whose slot follows a freed entry steals it.

Run:  python examples/set_sequencer_walkthrough.py
"""

from repro.experiments.configs import build_system_for_notation
from repro.experiments.tables import render_table
from repro.sim.events import EventKind
from repro.sim.simulator import simulate
from repro.workloads.adversarial import conflict_storm_traces


def run(notation: str):
    config = build_system_for_notation(notation, num_cores=4, record_events=True)
    traces = conflict_storm_traces(
        cores=[0, 1, 2, 3], partition_sets=1, lines_per_core=18, repeats=6
    )
    return simulate(config, traces)


def show_excerpt(report, title: str, kinds, limit: int = 18) -> None:
    print(title)
    shown = 0
    for event in report.events:
        if event.kind in kinds and event.slot > 40:
            print("  " + str(event))
            shown += 1
            if shown >= limit:
                break
    print()


def main() -> None:
    ss = run("SS(1,16,4)")
    nss = run("NSS(1,16,4)")

    show_excerpt(
        ss,
        "SS event log (note seq-register queues and seq-blocked refusals):",
        (
            EventKind.SEQ_REGISTER,
            EventKind.SEQ_BLOCKED,
            EventKind.LLC_ALLOC,
            EventKind.ENTRY_FREED,
        ),
    )

    stats = ss.sequencer_stats["shared"]
    print(
        render_table(
            ["metric", "value"],
            [
                ["registrations", stats.registrations],
                ["completions", stats.completions],
                ["head grants", stats.head_grants],
                ["blocked (not head)", stats.blocked_not_head],
                ["max sets tracked", stats.max_active_sets],
            ],
            title="Sequencer activity",
        )
    )

    print(
        render_table(
            ["config", "observed WCL", "blocked slots", "makespan"],
            [
                ["SS(1,16,4)", ss.observed_wcl(), ss.llc_blocked_slots, ss.makespan],
                ["NSS(1,16,4)", nss.observed_wcl(), nss.llc_blocked_slots, nss.makespan],
            ],
            title="\nSS vs NSS on the same storm",
        )
    )
    print(
        "\nThe sequencer trades a few refused slots for a strictly ordered\n"
        "service: the observed WCL never exceeds Theorem 4.8's bound, while\n"
        "NSS's distance increases (Observation 3) push its tail latency up."
    )


if __name__ == "__main__":
    main()
