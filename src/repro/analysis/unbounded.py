"""A constructive witness of the Section 4.1 unbounded-WCL scenario.

The paper (Figure 2): under a TDM schedule that gives an interfering
core *two* slots per period, that core can — every single period —
write back the line the LLC evicted for the core under analysis and
immediately re-occupy the freed entry with a new request, so the core
under analysis never completes.  Under 1S-TDM (Definition 4.1) the same
workload completes in a handful of periods.

Latency "unbounded" is demonstrated the only way a terminating program
can: the witness replays interferer streams of increasing length and
shows the victim's latency grows linearly with the stream length under
the multi-slot schedule while staying constant under 1S-TDM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.bus.schedule import TdmSchedule
from repro.common.errors import ConfigurationError
from repro.common.types import AccessType, CoreId
from repro.llc.partition import PartitionSpec
from repro.sim.config import SystemConfig
from repro.sim.report import SimReport
from repro.sim.simulator import simulate
from repro.workloads.trace import MemoryTrace, TraceRecord

#: Block the victim core requests (far away from the interferer's blocks).
VICTIM_BLOCK = 1 << 20


def _witness_traces(
    ways: int, stream_length: int, line_size: int
) -> Dict[CoreId, MemoryTrace]:
    """Victim (core 0) requests one line; interferer (core 1) streams.

    Every block folds onto the single partition set.  The interferer
    writes, so each of its lines is dirty in its private caches and LLC
    evictions always cost it a write-back slot.
    """
    victim = MemoryTrace(
        [TraceRecord(VICTIM_BLOCK * line_size, AccessType.WRITE)],
        name="victim",
    )
    interferer = MemoryTrace(
        [
            TraceRecord(block * line_size, AccessType.WRITE)
            for block in range(ways + stream_length)
        ],
        name="interferer",
    )
    return {0: victim, 1: interferer}


def _witness_config(
    schedule: TdmSchedule, ways: int, slot_width: int, max_slots: int
) -> SystemConfig:
    """The Figure 2 platform: one shared single-set partition, 2 cores.

    The unbounded scenario is an *existence* claim, so the witness pins
    the adversarial interleaving the figure depicts: the interferer
    writes the victim's freed entry back first and re-occupies it with
    its next request before the victim's slot returns
    (``WRITEBACK_FIRST`` arbitration makes that phase deterministic).
    """
    from repro.bus.arbiter import ArbitrationPolicy

    partition = PartitionSpec(
        name="shared",
        sets=[0],
        way_range=(0, ways),
        cores=(0, 1),
        sequencer=False,
    )
    return SystemConfig(
        num_cores=2,
        partitions=[partition],
        slot_width=slot_width,
        schedule=schedule,
        llc_sets=1,
        llc_ways=ways,
        llc_hit_latency=min(20, slot_width),
        llc_miss_latency=min(45, slot_width),
        arbitration=ArbitrationPolicy.WRITEBACK_FIRST,
        max_slots=max_slots,
    )


def _run(
    schedule: TdmSchedule,
    ways: int,
    stream_length: int,
    slot_width: int,
    victim_start: int,
) -> SimReport:
    config = _witness_config(
        schedule,
        ways,
        slot_width,
        max_slots=20 * (ways + stream_length) + 1000,
    )
    traces = _witness_traces(ways, stream_length, config.line_size)
    return simulate(config, traces, start_cycles={0: victim_start})


@dataclass(frozen=True)
class StarvationWitnessResult:
    """Victim latencies for growing interferer streams, both schedules."""

    stream_lengths: Tuple[int, ...]
    multi_slot_latencies: Tuple[int, ...]
    one_slot_latencies: Tuple[int, ...]
    one_slot_bound_cycles: int

    @property
    def multi_slot_growth(self) -> bool:
        """Whether the multi-slot latency grows with the stream length."""
        pairs = zip(self.multi_slot_latencies, self.multi_slot_latencies[1:])
        return all(later > earlier for earlier, later in pairs)

    @property
    def one_slot_bounded(self) -> bool:
        """Whether every 1S-TDM latency is below the analytical bound."""
        return all(
            latency <= self.one_slot_bound_cycles
            for latency in self.one_slot_latencies
        )


def starvation_witness(
    stream_lengths: Sequence[int] = (50, 100, 200),
    ways: int = 4,
    slot_width: int = 50,
) -> StarvationWitnessResult:
    """Run the Figure 2 scenario at several interferer stream lengths.

    The multi-slot schedule is ``{c_ua, c_1, c_1}`` (the interferer owns
    two consecutive slots, enough to write back *and* re-occupy before
    the victim returns); the 1S-TDM control is ``{c_ua, c_1}``.  Growth
    needs at least two lengths, given in strictly increasing order.
    """
    from repro.analysis.wcl import SharedPartitionParams, wcl_nss_cycles

    lengths = list(stream_lengths)
    if len(lengths) < 2 or any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ConfigurationError(
            "growth needs at least two strictly increasing stream lengths, "
            f"got {lengths}"
        )
    if lengths[0] < 0:
        raise ConfigurationError(
            f"interferer stream length must be >= 0, got {lengths[0]}"
        )
    multi = TdmSchedule((0, 1, 1), slot_width)
    one_slot = TdmSchedule((0, 1), slot_width)
    multi_latencies: List[int] = []
    one_slot_latencies: List[int] = []
    for length in stream_lengths:
        # Let the interferer fill the set before the victim's request:
        # it completes at most two lines per period under either
        # schedule, so ways periods is a safe fill horizon.
        victim_start = ways * max(multi.period_cycles, one_slot.period_cycles)
        multi_report = _run(multi, ways, length, slot_width, victim_start)
        one_report = _run(one_slot, ways, length, slot_width, victim_start)
        multi_latencies.append(_victim_latency(multi_report))
        one_slot_latencies.append(_victim_latency(one_report))
    params = SharedPartitionParams(
        total_cores=2,
        sharers=2,
        ways=ways,
        partition_lines=ways,
        core_capacity_lines=16 * 4,
        slot_width=slot_width,
    )
    return StarvationWitnessResult(
        stream_lengths=tuple(stream_lengths),
        multi_slot_latencies=tuple(multi_latencies),
        one_slot_latencies=tuple(one_slot_latencies),
        one_slot_bound_cycles=wcl_nss_cycles(params),
    )


def _victim_latency(report: SimReport) -> int:
    """The victim's single-request latency (its observed WCL)."""
    victim = report.core_reports[0]
    if victim.outstanding_block is not None:
        # Starved past the slot cap: report the cycles it waited so far.
        return report.total_cycles
    return victim.observed_wcl
