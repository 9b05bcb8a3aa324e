"""Automatic bound-compliance verification of simulation reports.

Given a system configuration, every core has exactly one applicable
analytical WCL: the private bound for a single-core partition, Theorem
4.8 for a sequencer-ordered shared partition, Theorem 4.7 for
best-effort sharing — and *no* finite bound when the schedule is not
1S-TDM and the partition is shared (Section 4.1).  This module derives
that bound per core and checks a report's every completed request
against it, so experiments and CI do not each re-implement the
bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.wcl import (
    SharedPartitionParams,
    wcl_nss_cycles,
    wcl_private_cycles,
    wcl_ss_cycles,
)
from repro.common.errors import AnalysisError
from repro.common.types import CoreId, Cycle
from repro.sim.config import SystemConfig
from repro.sim.report import SimReport


@dataclass(frozen=True)
class CoreBound:
    """The analytical bound applying to one core, with provenance."""

    core: CoreId
    partition: str
    #: "private", "theorem-4.8", "theorem-4.7" or "unbounded".
    rule: str
    #: Cycles; ``None`` when no finite bound exists.
    cycles: Optional[Cycle]

    def finite_cycles(self) -> Cycle:
        """``cycles``, refused where the core has no finite bound."""
        if self.cycles is None:
            raise AnalysisError(
                f"core {self.core} ({self.partition}) has no finite WCL "
                "bound: a shared partition needs a 1S-TDM schedule"
            )
        return self.cycles


@dataclass(frozen=True)
class BoundViolation:
    """One request that exceeded its core's analytical bound."""

    core: CoreId
    block: int
    bus_latency: Cycle
    bound: Cycle
    rule: str


def derive_core_bounds(config: SystemConfig) -> Dict[CoreId, CoreBound]:
    """The analytical WCL applying to each core of ``config``."""
    schedule = config.build_schedule()
    partition_map = config.build_partition_map()
    one_slot = schedule.is_one_slot
    total_cores = config.num_cores
    bounds: Dict[CoreId, CoreBound] = {}
    for core in range(total_cores):
        partition = partition_map.partition_of(core)
        if not partition.is_shared:
            # Private partitions are immune to other cores' LLC
            # behaviour under any TDM schedule; the bound only needs
            # the core's own slot cadence, which the (2N+1) argument
            # covers for 1S-TDM.  For other schedules we use the core's
            # own worst slot gap.
            if one_slot:
                cycles = wcl_private_cycles(total_cores, config.slot_width)
            else:
                gap = _worst_slot_gap(schedule, core)
                cycles = (2 * gap + 1) * config.slot_width
            bounds[core] = CoreBound(core, partition.name, "private", cycles)
            continue
        if not one_slot:
            bounds[core] = CoreBound(core, partition.name, "unbounded", None)
            continue
        params = SharedPartitionParams(
            total_cores=total_cores,
            sharers=partition.num_cores,
            ways=partition.num_ways,
            partition_lines=partition.capacity_lines,
            core_capacity_lines=config.stack.l2_capacity_lines,
            slot_width=config.slot_width,
        )
        if partition.sequencer:
            bounds[core] = CoreBound(
                core, partition.name, "theorem-4.8", wcl_ss_cycles(params)
            )
        else:
            bounds[core] = CoreBound(
                core, partition.name, "theorem-4.7", wcl_nss_cycles(params)
            )
    return bounds


def _worst_slot_gap(schedule, core: CoreId) -> int:
    """Largest slot count between consecutive slots of ``core``."""
    positions = schedule.slots_of(core)
    period = schedule.period_slots
    gaps = []
    for i, position in enumerate(positions):
        nxt = positions[(i + 1) % len(positions)]
        gap = (nxt - position) % period
        gaps.append(gap if gap > 0 else period)
    return max(gaps)


def verify_bounds(
    report: SimReport, config: SystemConfig
) -> List[BoundViolation]:
    """Check every completed request against its core's bound.

    Bus latency (first broadcast to response) is the quantity the
    theorems bound.  Cores whose partition has no finite bound
    (shared + non-1S-TDM) are skipped — starvation there is expected.
    Returns the violations; empty means the report complies.
    """
    bounds = derive_core_bounds(config)
    violations: List[BoundViolation] = []
    for record in report.requests:
        bound = bounds[record.core]
        if bound.cycles is None:
            continue
        if record.bus_latency > bound.cycles:
            violations.append(
                BoundViolation(
                    core=record.core,
                    block=record.block,
                    bus_latency=record.bus_latency,
                    bound=bound.cycles,
                    rule=bound.rule,
                )
            )
    return violations


def assert_bounds(report: SimReport, config: SystemConfig) -> None:
    """Raise ``AssertionError`` listing any bound violations."""
    violations = verify_bounds(report, config)
    if violations:
        summary = "; ".join(
            f"core {v.core} block {v.block:#x}: {v.bus_latency} > {v.bound} "
            f"({v.rule})"
            for v in violations[:5]
        )
        raise AssertionError(
            f"{len(violations)} analytical bound violation(s): {summary}"
        )
