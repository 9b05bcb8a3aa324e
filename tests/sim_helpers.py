"""Shared builders for the test suite (imported by test modules)."""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, Optional, Sequence

from repro.bus.arbiter import ArbitrationPolicy
from repro.bus.schedule import TdmSchedule
from repro.common import fileio
from repro.common.context import IoState, RunContext, run_context
from repro.common.types import AccessType, CoreId
from repro.llc.partition import PartitionSpec
from repro.sim.config import SystemConfig
from repro.workloads.trace import MemoryTrace, TraceRecord

#: Default line size used by the small test systems.
LINE = 64


def shared_partition(
    num_cores: int,
    sets: Sequence[int] = (0,),
    ways: int = 4,
    sequencer: bool = False,
) -> PartitionSpec:
    """One partition shared by all ``num_cores`` cores."""
    return PartitionSpec(
        name="shared",
        sets=list(sets),
        way_range=(0, ways),
        cores=tuple(range(num_cores)),
        sequencer=sequencer,
    )


def private_partitions(
    num_cores: int, sets_per_core: int = 1, ways: int = 4
) -> list[PartitionSpec]:
    """A distinct partition per core in consecutive set rows."""
    return [
        PartitionSpec(
            name=f"core{core}",
            sets=list(
                range(core * sets_per_core, (core + 1) * sets_per_core)
            ),
            way_range=(0, ways),
            cores=(core,),
        )
        for core in range(num_cores)
    ]


def small_config(
    num_cores: int = 2,
    partitions: Optional[Sequence[PartitionSpec]] = None,
    llc_sets: int = 4,
    llc_ways: int = 4,
    slot_width: int = 50,
    schedule: Optional[TdmSchedule] = None,
    sequencer: bool = False,
    arbitration: ArbitrationPolicy = ArbitrationPolicy.ROUND_ROBIN,
    self_writeback_in_slot: bool = True,
    record_events: bool = True,
    max_slots: int = 100_000,
    llc_policy: str = "lru",
) -> SystemConfig:
    """A small, fast system for unit-level engine tests."""
    if partitions is None:
        partitions = [
            shared_partition(num_cores, ways=llc_ways, sequencer=sequencer)
        ]
    return SystemConfig(
        num_cores=num_cores,
        partitions=list(partitions),
        slot_width=slot_width,
        schedule=schedule,
        llc_sets=llc_sets,
        llc_ways=llc_ways,
        llc_policy=llc_policy,
        arbitration=arbitration,
        self_writeback_in_slot=self_writeback_in_slot,
        record_events=record_events,
        max_slots=max_slots,
    )


def trace_of_blocks(
    blocks: Sequence[int],
    access: AccessType = AccessType.WRITE,
    line_size: int = LINE,
    name: str = "test",
) -> MemoryTrace:
    """A trace touching the given block addresses in order."""
    return MemoryTrace(
        [TraceRecord(block * line_size, access) for block in blocks],
        name=name,
    )


def write_trace_of(blocks: Sequence[int]) -> MemoryTrace:
    """All-write trace over block addresses."""
    return trace_of_blocks(blocks, AccessType.WRITE)


def read_trace_of(blocks: Sequence[int]) -> MemoryTrace:
    """All-read trace over block addresses."""
    return trace_of_blocks(blocks, AccessType.READ)


@contextlib.contextmanager
def fast_io_context(**changes) -> Iterator[RunContext]:
    """A run-context scope with fresh ``io.*`` state and no retry backoff.

    Closed breakers and zeroed counters, so a breaker tripped by one
    injected fault schedule cannot silently disable a store in the
    next; ``changes`` add further fields (a fault plan, a cache, ...).
    ESSENTIAL retries do not sleep inside the scope.
    """
    sleep = fileio._sleep
    fileio._sleep = lambda seconds: None
    try:
        with run_context(io=IoState(), **changes) as context:
            yield context
    finally:
        fileio._sleep = sleep
