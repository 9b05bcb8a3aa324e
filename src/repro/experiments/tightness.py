"""Bound-tightness probe: how close can observation get to the bounds?

Random traffic sits far below the analytical WCLs (Figure 7 shows the
same).  This experiment steers the simulator toward the Theorem 4.7/4.8
critical instance:

* *adversarial replacement* — the LLC's oracle policy always victimises
  the line whose private owner is at the **largest distance**
  (Definition 4.2) from the core on the bus, maximising the slots until
  the entry can free (this is the "replacement policy that can select
  any of the cache lines" the analysis assumes, used maliciously);
* *write-back-first arbitration* — a core's request is always delayed
  behind its pending write-backs, the pattern of Figure 5's part (2);
* *conflict storm* — every access is a write to a distinct line of one
  set.

The result reports observed WCL, the analytical bound and the tightness
ratio for SS and NSS; the adversarial setup should close a visible part
of the gap relative to the unsteered storm.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.wcl import (
    SharedPartitionParams,
    wcl_nss_cycles,
    wcl_ss_cycles,
)
from repro.bus.arbiter import ArbitrationPolicy
from repro.bus.schedule import distance
from repro.experiments.configs import PAPER_CORE_CAPACITY_LINES, build_system_for_notation
from repro.experiments.tables import render_table
from repro.llc.partition import PartitionKind, PartitionNotation
from repro.sim.simulator import Simulator
from repro.workloads.adversarial import conflict_storm_traces


@dataclass(frozen=True)
class TightnessRow:
    """One configuration's tightness measurement."""

    config: str
    adversarial: bool
    observed_wcl: int
    bound: int

    @property
    def ratio(self) -> float:
        """Observed / bound (1.0 would be a tight bound)."""
        return self.observed_wcl / self.bound


@dataclass
class TightnessResult:
    """Tightness rows for the probed configurations."""

    rows: Sequence[TightnessRow]

    def row(self, config: str, adversarial: bool) -> TightnessRow:
        """Look one measurement up."""
        for candidate in self.rows:
            if candidate.config == config and candidate.adversarial == adversarial:
                return candidate
        raise KeyError((config, adversarial))

    def render(self) -> str:
        """The result as a text table."""
        return render_table(
            ["config", "steering", "observed WCL", "bound", "observed/bound"],
            [
                [
                    row.config,
                    "adversarial" if row.adversarial else "random-storm",
                    row.observed_wcl,
                    row.bound,
                    f"{row.ratio:.3f}",
                ]
                for row in self.rows
            ],
            title="Bound tightness: steered vs unsteered worst case",
        )


def install_adversarial_replacement(sim: Simulator) -> None:
    """Point every set's oracle policy at the max-distance chooser.

    A candidate line's badness for the requester on the bus is ``2 + d``
    when a foreign core at distance ``d`` from the requester owns it
    (the farthest one counts): that owner must donate a bus slot before
    the entry frees.  A line owned only by the requester frees at once
    through the in-slot self write-back (badness 0, so the adversary
    avoids it); an unowned line frees at once too but destroys state
    (1).  The first candidate of highest badness is the victim.  The
    requester × owner badness table is built here, once per run.
    """
    llc = sim.system.llc
    schedule = sim.system.schedule
    engine = sim.engine
    owners_of = llc.directory.owners_of
    rows = [
        [llc.entry(set_index, way) for way in range(llc.num_ways)]
        for set_index in range(llc.num_sets)
    ]
    cores = schedule.cores
    badness_for = {
        requester: {
            owner: 2 + distance(schedule, owner, requester) if owner != requester else 0
            for owner in cores
        }
        for requester in cores
    }

    def chooser(candidates, set_index):
        badness = badness_for[schedule.owner_of_slot(engine._slot)]
        row = rows[set_index]
        worst_way, worst = candidates[0], -1
        for way in candidates:
            owners = owners_of(row[way].block)
            score = 0 if owners else 1
            for owner in owners:
                if badness[owner] > score:
                    score = badness[owner]
            if score > worst:
                worst_way, worst = way, score
        return worst_way

    for set_index in range(llc.num_sets):
        llc.oracle_policy(set_index).set_chooser(chooser)


def _bound_for(notation: PartitionNotation, slot_width: int = 50) -> int:
    params = SharedPartitionParams(
        total_cores=4,
        sharers=notation.cores,
        ways=notation.ways,
        partition_lines=notation.sets * notation.ways,
        core_capacity_lines=PAPER_CORE_CAPACITY_LINES,
        slot_width=slot_width,
    )
    if notation.kind is PartitionKind.SS:
        return wcl_ss_cycles(params)
    return wcl_nss_cycles(params)


def _run_one(notation_text: str, adversarial: bool, repeats: int) -> TightnessRow:
    notation = PartitionNotation.parse(notation_text)
    config = build_system_for_notation(
        notation_text,
        num_cores=4,
        llc_policy="oracle" if adversarial else "lru",
        max_slots=3_000_000,
    )
    if adversarial:
        config = dataclasses.replace(
            config, arbitration=ArbitrationPolicy.WRITEBACK_FIRST
        )
    traces = conflict_storm_traces(
        cores=[0, 1, 2, 3],
        partition_sets=notation.sets,
        lines_per_core=24,
        repeats=repeats,
    )
    sim = Simulator(config, traces)
    if adversarial:
        install_adversarial_replacement(sim)
    report = sim.run()
    return TightnessRow(
        config=notation_text,
        adversarial=adversarial,
        observed_wcl=report.observed_bus_wcl(),
        bound=_bound_for(notation),
    )


def run_tightness(repeats: int = 40) -> TightnessResult:
    """Probe SS and NSS with and without adversarial steering."""
    rows = []
    for notation_text in ("SS(1,16,4)", "NSS(1,16,4)"):
        for adversarial in (False, True):
            rows.append(_run_one(notation_text, adversarial, repeats))
    return TightnessResult(rows=rows)
