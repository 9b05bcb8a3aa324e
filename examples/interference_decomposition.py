#!/usr/bin/env python3
"""Explain where an observed worst-case latency actually went.

Runs the Figure 7 storm on SS and NSS, then decomposes every request's
latency into the categories of Theorem 4.7's critical instance
(Figure 5): waiting for the first slot, the core's own write-backs,
blocked slots, sequencer refusals, eviction triggers, and the final
service slot — plus the distance dynamics (Observations 1 and 3)
reconstructed from the event log.

Run:  python examples/interference_decomposition.py
"""

import dataclasses

from repro.analysis.distance import tracker_from_events
from repro.analysis.interference import (
    decompose_report,
    summarize,
    worst_request,
)
from repro.bus.arbiter import ArbitrationPolicy
from repro.experiments.configs import build_system_for_notation
from repro.experiments.tables import render_table
from repro.experiments.tightness import install_adversarial_replacement
from repro.sim.simulator import Simulator
from repro.workloads.adversarial import conflict_storm_traces


def run(notation: str):
    # Symmetric LRU storms evict mostly *self*-owned lines (round-robin
    # ages make the requester's own line the LRU victim), so to expose
    # inter-core interference we use the adversarial steering of the
    # tightness experiment: oracle replacement picking far-owner victims
    # plus write-back-first arbitration.
    config = build_system_for_notation(
        notation, num_cores=4, llc_policy="oracle", record_events=True
    )
    config = dataclasses.replace(
        config, arbitration=ArbitrationPolicy.WRITEBACK_FIRST
    )
    traces = conflict_storm_traces(
        cores=[0, 1, 2, 3], partition_sets=1, lines_per_core=18, repeats=12
    )
    sim = Simulator(config, traces)
    install_adversarial_replacement(sim)
    return sim, sim.run()


def main() -> None:
    rows = []
    for notation in ("SS(1,16,4)", "NSS(1,16,4)"):
        sim, report = run(notation)
        breakdowns = decompose_report(report, sim.system.schedule)
        totals = summarize(breakdowns)
        worst = worst_request(breakdowns)
        rows.append(
            [
                notation,
                totals["requests"],
                f"{totals['mean_latency']:.0f}",
                worst.latency,
                totals["blocked_full_slots"],
                totals["sequencer_blocked_slots"],
                totals["own_writeback_slots"],
            ]
        )

        tracker = tracker_from_events(report.events, sim.system.schedule, observer=0)
        increases = sum(
            tracker.increases(key, across_gaps=True) for key in tracker.history
        )
        decreases = sum(
            tracker.decreases(key, across_gaps=True) for key in tracker.history
        )
        print(
            f"{notation}: entry-distance dynamics seen by core 0 — "
            f"{decreases} decreases (Observation 1), "
            f"{increases} increases (Observation 3)"
        )
        print(
            f"  worst request: core {worst.core}, {worst.latency} cycles = "
            f"{worst.wait_for_first_slot} wait + own slots "
            f"[{worst.eviction_trigger_slots} evict, {worst.blocked_full_slots} "
            f"blocked, {worst.sequencer_blocked_slots} seq, "
            f"{worst.own_writeback_slots} WB, {worst.service_slots} service] "
            f"+ {worst.other_core_slots} other-core slots\n"
        )

    print(
        render_table(
            [
                "config",
                "requests",
                "mean lat",
                "WCL",
                "blocked",
                "seq-blocked",
                "own WBs",
            ],
            rows,
            title="Interference totals on the same storm",
        )
    )
    print(
        "\nNSS accumulates blocked slots from distance increases; SS converts\n"
        "them into ordered sequencer waits with a much smaller tail."
    )


if __name__ == "__main__":
    main()
