"""Synthetic workload generation (Section 5, "Workload generation").

The paper: "We use synthetic workloads consisting of memory requests to
random addresses within various address ranges.  We enforce disjoint
address ranges for each core to guarantee that accesses to shared data
does not occur.  For a certain address range, a core issues the same
memory addresses across different partitioned configurations."

Determinism is achieved by seeding each core's stream with
``(seed, core)`` only — the partition configuration never enters the
seed, so the same (core, range, length) triple replays identically
across SS / NSS / P runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.types import AccessType, CoreId
from repro.common.validation import require, require_non_negative, require_positive
from repro.mem.address import AddressRange
from repro.workloads.trace import MemoryTrace, TraceRecord

# Read per generated record; a module global reads faster than an enum
# member.
_READ = AccessType.READ
_WRITE = AccessType.WRITE


@dataclass(frozen=True)
class SyntheticWorkloadConfig:
    """Parameters of the paper's synthetic workload.

    Parameters
    ----------
    num_requests:
        Records per core trace.
    address_range_size:
        Byte span each core draws addresses from (the x-axis of
        Figures 7 and 8).
    line_size:
        Cache line size; addresses are line-aligned like real L2-miss
        streams (sub-line offsets never change cache behaviour).
    write_fraction:
        Probability a record is a write.  Writes dirty private copies
        and therefore force bus write-backs on LLC evictions — the
        worst-case-relevant behaviour; the default makes every access a
        write as the WCL experiment intends.
    seed:
        Base seed; core ``i`` uses stream ``seed * 1_000_003 + i``.
    range_stride:
        Byte distance between consecutive cores' range bases; defaults
        to ``address_range_size`` (tightly packed disjoint ranges).
    max_think_cycles:
        When positive, each record carries a uniform random compute gap
        in ``[0, max_think_cycles]`` — think time before the access.
        The paper's workload is back-to-back (0, the default).
    """

    num_requests: int = 1000
    address_range_size: int = 4096
    line_size: int = 64
    write_fraction: float = 1.0
    seed: int = 2022
    range_stride: Optional[int] = None
    max_think_cycles: int = 0

    def __post_init__(self) -> None:
        require_positive(self.num_requests, "num_requests", ConfigurationError)
        require_positive(self.address_range_size, "address_range_size", ConfigurationError)
        require_positive(self.line_size, "line_size", ConfigurationError)
        require(
            0.0 <= self.write_fraction <= 1.0,
            f"write_fraction must be in [0, 1], got {self.write_fraction}",
            ConfigurationError,
        )
        require_non_negative(self.seed, "seed", ConfigurationError)
        require_non_negative(self.max_think_cycles, "max_think_cycles", ConfigurationError)
        # Ranges are disjoint in lines, not only in bytes: a range or
        # stride that ends mid-line would give two cores one block.
        for name in ("address_range_size", "range_stride"):
            value = getattr(self, name)
            if value is not None and value % self.line_size:
                raise ConfigurationError(
                    f"{name} ({value}) must be a whole number of "
                    f"{self.line_size}-byte lines, or neighbouring cores share a line"
                )
        if self.range_stride is not None:
            require(
                self.range_stride >= self.address_range_size,
                "range_stride smaller than address_range_size would overlap "
                "the per-core ranges",
                ConfigurationError,
            )

    def core_range(self, core: CoreId) -> AddressRange:
        """The disjoint address range assigned to ``core``."""
        stride = self.range_stride or self.address_range_size
        return AddressRange(base=core * stride, size=self.address_range_size)


def generate_core_trace(
    config: SyntheticWorkloadConfig, core: CoreId
) -> MemoryTrace:
    """Generate one core's random-address trace.

    The stream depends only on ``(config.seed, core, num_requests,
    address_range_size, write_fraction)`` — never on the partition
    configuration — so Section 5's replay guarantee holds.
    """
    rng = random.Random(config.seed * 1_000_003 + core)
    core_range = config.core_range(core)
    num_lines = core_range.num_blocks(config.line_size)
    first_block = core_range.base // config.line_size
    line_size = config.line_size
    write_fraction = config.write_fraction
    max_think = config.max_think_cycles
    randrange, draw, randint = rng.randrange, rng.random, rng.randint
    records: List[TraceRecord] = []
    for _ in range(config.num_requests):
        address = (first_block + randrange(num_lines)) * line_size
        access = _WRITE if draw() < write_fraction else _READ
        think = randint(0, max_think) if max_think else 0
        records.append(TraceRecord(address, access, think))
    return MemoryTrace(records, name=f"synthetic-core{core}")


def generate_disjoint_workload(
    config: SyntheticWorkloadConfig, cores: Sequence[CoreId]
) -> Dict[CoreId, MemoryTrace]:
    """Generate the full per-core workload with disjoint address ranges.

    Distinct cores share no line: the config refuses a stride below the
    range and a range or stride that is not a whole number of lines.
    """
    require(bool(cores), "workload needs at least one core", ConfigurationError)
    require(
        len(set(cores)) == len(cores),
        f"duplicate cores in workload: {list(cores)}",
        ConfigurationError,
    )
    return {core: generate_core_trace(config, core) for core in cores}
