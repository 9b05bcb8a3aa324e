"""Automatic bound-compliance verification of simulation reports.

Given a system configuration, every core has exactly one applicable
analytical WCL: the private bound for a single-core partition, Theorem
4.8 for a sequencer-ordered shared partition, Theorem 4.7 for
best-effort sharing — and *no* finite bound when the schedule is not
1S-TDM and the partition is shared (Section 4.1).  This module derives
that bound per core and holds the one rule judging a request against
it, :meth:`CoreBound.violation`, which every checker calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.analysis.wcl import (
    SharedPartitionParams,
    wcl_nss_cycles,
    wcl_private_cycles,
    wcl_ss_cycles,
)
from repro.bus.buffers import PendingRequest
from repro.bus.schedule import TdmSchedule
from repro.common.errors import AnalysisError
from repro.common.types import CoreId, Cycle
from repro.sim.config import SystemConfig
from repro.sim.report import RequestRecord, SimReport

#: A completed request: the engine's, or a report's record of it.
Completed = Union[PendingRequest, RequestRecord]


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

    def limit(self, own_writebacks: int, schedule: TdmSchedule) -> Cycle:
        """The bus latency a request may reach when its core sent
        ``own_writebacks`` write-backs inside the request window.

        Theorem 4.7 and the private bound already budget the core's own
        write-backs (the ``(m + 1)`` factor, resp. one of the ``2N + 1``
        periods) and stand as they are.  Theorem 4.8 is capacity-
        independent and budgets none, yet the model charges a blocked
        core for back-invalidations forced on it mid-wait, each taking
        one of its slots: one period of progress.  So under Theorem 4.8
        the limit adds one period per own write-back, and no more —
        interference bugs still exceed it (the FIFO-PWB priority bug
        did under Theorem 4.7's unmodified check).
        """
        period = schedule.period_cycles if self.rule == "theorem-4.8" else 0
        return self.finite_cycles() + own_writebacks * period

    def violation(
        self, request: Completed, schedule: TdmSchedule
    ) -> Optional[BoundViolation]:
        """How ``request`` exceeds :meth:`limit`, or ``None`` if it does not.

        Bus latency (first broadcast to response) is the quantity the
        theorems bound.  A core with no finite bound is never judged:
        starvation there is expected (Section 4.1).
        """
        latency = request.completed_at - request.first_on_bus_at
        if self.cycles is None or latency <= self.cycles:
            return None
        writebacks = own_writebacks(request, schedule)
        limit = self.limit(writebacks, schedule)
        if latency <= limit:
            return None
        return BoundViolation(
            request.core, request.block, latency, self.cycles, self.rule,
            writebacks, limit - self.cycles,
        )


@dataclass(frozen=True)
class BoundViolation:
    """One request that exceeded its core's analytical bound."""

    core: CoreId
    block: int
    bus_latency: Cycle
    bound: Cycle
    rule: str
    #: Write-backs the core sent inside the request window.
    own_writebacks: int
    #: Cycles the limit adds to ``bound`` for them (Theorem 4.8 only).
    allowance: Cycle

    def __str__(self) -> str:
        text = (
            f"core {self.core} block {self.block:#x}: bus latency "
            f"{self.bus_latency} exceeds the {self.rule} bound of "
            f"{self.bound} cycles"
        )
        if self.allowance:
            text += (
                f" plus {self.own_writebacks} own write-back period(s) "
                f"({self.allowance} cycles)"
            )
        return text


def own_writebacks(request: Completed, schedule: TdmSchedule) -> int:
    """Write-backs ``request``'s core sent from its first broadcast to
    its response, counted from the request alone.

    Every slot the core owns from the slot of its first broadcast to the
    slot of its response carries one of its ``bus_attempts`` or one of
    its write-backs, so the write-backs are those slots minus the
    attempts.  The count is exact because a response lands inside its
    slot (``SystemConfig`` keeps both LLC latencies within
    ``slot_width``; the oracle's ``slot-timing`` checks it), and a slot
    owner whose request is on the bus is never idle (``slot-accounting``
    checks it, in the oracle and in checked mode).
    """
    width, period = schedule.slot_width, schedule.period_slots
    first = request.first_on_bus_at // width
    last = (request.completed_at - 1) // width
    owned = sum(
        (last - position) // period - (first - 1 - position) // period
        for position in schedule.slots_of(request.core)
    )
    return owned - request.bus_attempts


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
    """Judge every completed request by :meth:`CoreBound.violation`.

    Returns the violations in completion order; empty means the report
    complies.
    """
    bounds, schedule = derive_core_bounds(config), config.build_schedule()
    violations = (bounds[r.core].violation(r, schedule) for r in report.requests)
    return [violation for violation in violations if violation is not None]


def assert_bounds(report: SimReport, config: SystemConfig) -> None:
    """Raise ``AssertionError`` listing any bound violations."""
    violations = verify_bounds(report, config)
    if violations:
        summary = "; ".join(str(violation) for violation in violations[:5])
        raise AssertionError(
            f"{len(violations)} analytical bound violation(s): {summary}"
        )
