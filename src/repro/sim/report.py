"""Simulation reports: per-request records and aggregate results.

The two quantities the paper's evaluation plots come straight from
here: **observed WCL** (the maximum request latency of a core, Figure 7)
and **execution time** (the cycle at which a core's trace finishes,
Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bus.buffers import PendingRequest
from repro.cache.stats import CacheStats
from repro.common.errors import SimulationError
from repro.common.types import BlockAddress, CoreId, Cycle
from repro.sim.events import EventLog

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.system import System


class RequestRecord(NamedTuple):
    """One completed LLC request, as measured.

    A named tuple: every completed request and every cached-report
    replay builds one, so it is immutable, hashable and equal by value
    (a plain tuple of the same seven values compares equal too).
    """

    core: CoreId
    block: BlockAddress
    enqueued_at: Cycle
    first_on_bus_at: Cycle
    completed_at: Cycle
    bus_attempts: int
    #: Whether the LLC served the request without a DRAM fetch.
    served_by_hit: bool

    @property
    def latency(self) -> Cycle:
        """End-to-end latency: L2 miss to LLC response."""
        return self.completed_at - self.enqueued_at

    @property
    def bus_latency(self) -> Cycle:
        """Latency from the first bus broadcast to the response.

        This is the quantity Theorems 4.7/4.8 bound: their critical
        instance starts at the slot in which the request is issued.
        """
        return self.completed_at - self.first_on_bus_at


@dataclass
class CoreReport:
    """Aggregate results for one core."""

    core: CoreId
    finish_time: Optional[Cycle]
    requests: int
    private_hits: int
    observed_wcl: Cycle
    observed_bus_wcl: Cycle
    mean_latency: float
    max_bus_attempts: int
    outstanding_block: Optional[BlockAddress] = None
    outstanding_attempts: int = 0

    @property
    def completed(self) -> bool:
        """Whether the core's trace ran to completion."""
        return self.finish_time is not None


@dataclass
class SimReport:
    """Everything a simulation produced."""

    total_slots: int
    total_cycles: Cycle
    timed_out: bool
    core_reports: Dict[CoreId, CoreReport]
    requests: List[RequestRecord]
    llc_stats: CacheStats
    llc_back_invalidations: int
    llc_blocked_slots: int
    sequencer_stats: Dict[str, "object"]
    pwb_max_occupancy: Dict[CoreId, int]
    dram_reads: int
    dram_writes: int
    #: Per core: how many of its bus slots went to requests,
    #: write-backs, or passed idle.
    slot_usage: Dict[CoreId, Dict[str, int]] = field(default_factory=dict)
    #: Per core: slots where PRB *and* PWB both had work and the
    #: arbiter had to pick (Corollary 4.5 pressure).
    arbiter_contended: Dict[CoreId, int] = field(default_factory=dict)
    events: EventLog = field(default_factory=lambda: EventLog(enabled=False))
    #: Per-slot sampler output (``record_metrics=True`` runs only);
    #: merged into the derived catalogue by
    #: :func:`repro.obs.collect.collect_metrics`.
    metrics: Optional["MetricsRegistry"] = None

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> Cycle:
        """Largest per-core finish time (the Figure 8 execution time)."""
        times = [
            report.finish_time
            for report in self.core_reports.values()
            if report.finish_time is not None
        ]
        return max(times) if times else 0

    def execution_time(self, core: CoreId) -> Cycle:
        """Finish time of one core; raises if it never finished."""
        report = self.core_reports[core]
        if report.finish_time is None:
            raise SimulationError(
                f"core {core} did not finish (timed_out={self.timed_out})"
            )
        return report.finish_time

    def observed_wcl(self, core: Optional[CoreId] = None) -> Cycle:
        """Max request latency of one core, or across all cores."""
        if core is not None:
            return self.core_reports[core].observed_wcl
        return max(
            (report.observed_wcl for report in self.core_reports.values()),
            default=0,
        )

    def observed_bus_wcl(self, core: Optional[CoreId] = None) -> Cycle:
        """Max first-broadcast-to-response latency (the theorem's clock)."""
        if core is not None:
            return self.core_reports[core].observed_bus_wcl
        return max(
            (report.observed_bus_wcl for report in self.core_reports.values()),
            default=0,
        )

    def latencies(self, core: Optional[CoreId] = None) -> List[Cycle]:
        """All request latencies, optionally filtered by core."""
        return [
            record.latency
            for record in self.requests
            if core is None or record.core == core
        ]

    def bus_utilization(self, core: Optional[CoreId] = None) -> float:
        """Fraction of (the core's) bus slots that carried a transaction.

        System-wide when ``core`` is ``None``.  0.0 when no slots ran.
        """
        usage = (
            [self.slot_usage[core]]
            if core is not None
            else list(self.slot_usage.values())
        )
        busy = sum(u["request"] + u["writeback"] for u in usage)
        total = busy + sum(u["idle"] for u in usage)
        return busy / total if total else 0.0

    def starved_cores(self) -> List[CoreId]:
        """Cores left with an uncompleted request when the run stopped.

        Non-empty together with ``timed_out`` is the signature of the
        Section 4.1 unbounded-latency scenario.
        """
        return [
            report.core
            for report in self.core_reports.values()
            if report.outstanding_block is not None
        ]


def build_report(
    system: "System",
    completed: Sequence[PendingRequest],
    total_slots: int,
    timed_out: bool,
    events: EventLog,
    slot_usage: Optional[Dict[CoreId, Dict[str, int]]] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> SimReport:
    """Assemble the report from a finished (or stopped) engine run."""
    records: List[RequestRecord] = []
    # Per core: latencies, bus latencies and bus attempts, read off the
    # request fields as the records are built.
    by_core: Dict[CoreId, Tuple[List[Cycle], List[Cycle], List[int]]] = {
        core_id: ([], [], []) for core_id in system.cores
    }
    for request in completed:
        core_id = request.core
        enqueued_at = request.enqueued_at
        first_on_bus_at = request.first_on_bus_at
        completed_at = request.completed_at
        if completed_at is None or first_on_bus_at is None:
            raise SimulationError("completed list holds an unfinished request")
        bus_attempts = request.bus_attempts
        records.append(
            RequestRecord(
                core_id,
                request.block,
                enqueued_at,
                first_on_bus_at,
                completed_at,
                bus_attempts,
                request.served_by_hit,
            )
        )
        latencies, bus_latencies, attempts = by_core[core_id]
        latencies.append(completed_at - enqueued_at)
        bus_latencies.append(completed_at - first_on_bus_at)
        attempts.append(bus_attempts)
    core_reports: Dict[CoreId, CoreReport] = {}
    for core_id, core in system.cores.items():
        latencies, bus_latencies, attempts = by_core[core_id]
        outstanding = system.prbs[core_id].entry
        core_reports[core_id] = CoreReport(
            core=core_id,
            finish_time=core.finish_time,
            requests=len(latencies),
            private_hits=core.private_hits,
            observed_wcl=max(latencies, default=0),
            observed_bus_wcl=max(bus_latencies, default=0),
            mean_latency=(sum(latencies) / len(latencies)) if latencies else 0.0,
            max_bus_attempts=max(attempts, default=0),
            outstanding_block=outstanding.block if outstanding else None,
            outstanding_attempts=outstanding.bus_attempts if outstanding else 0,
        )
    return SimReport(
        total_slots=total_slots,
        total_cycles=total_slots * system.schedule.slot_width,
        timed_out=timed_out,
        core_reports=core_reports,
        requests=records,
        llc_stats=system.llc.stats,
        llc_back_invalidations=system.llc.extra.back_invalidations,
        llc_blocked_slots=system.llc.extra.blocked_no_free_entry,
        sequencer_stats={
            name: sequencer.stats for name, sequencer in system.sequencers.items()
        },
        pwb_max_occupancy={
            core_id: pwb.max_occupancy for core_id, pwb in system.pwbs.items()
        },
        dram_reads=system.dram.reads,
        dram_writes=system.dram.writes,
        slot_usage=dict(slot_usage or {}),
        arbiter_contended={
            core_id: arbiter.contended_slots
            for core_id, arbiter in system.arbiters.items()
        },
        events=events,
        metrics=metrics,
    )
