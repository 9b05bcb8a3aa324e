"""Adversarial access patterns that stress the worst case.

The analytical WCLs (Theorems 4.7/4.8) bound a *critical instance* that
random traffic rarely produces.  These generators construct traces that
push the system toward it: every core issues writes to distinct lines
that all fold onto the **same partition set**, so every LLC miss finds
the set full of lines privately (and dirtily) cached by other cores —
maximising evictions, back-invalidations and bus write-backs, exactly
the mechanism of Figures 2–4.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.common.errors import ConfigurationError
from repro.common.types import AccessType, CoreId
from repro.common.validation import require, require_positive
from repro.workloads.trace import MemoryTrace, TraceRecord

# Every adversarial record is a write; a module global reads faster
# than an enum member.
_WRITE = AccessType.WRITE


def _conflict_blocks(
    core_slot: int, partition_sets: int, target_set: int, count: int, spacing: int
) -> List[int]:
    """``count`` distinct blocks for one core, all folding to ``target_set``.

    Disjointness across cores comes from striding each core's blocks by
    ``spacing * partition_sets``.
    """
    base = target_set + core_slot * count * partition_sets * spacing
    return [base + j * partition_sets for j in range(count)]


def conflict_storm_traces(
    cores: Sequence[CoreId],
    partition_sets: int,
    lines_per_core: int,
    repeats: int,
    line_size: int = 64,
    target_set: int = 0,
    seed: int = 7,
    shuffle: bool = True,
) -> Dict[CoreId, MemoryTrace]:
    """All-write traces where every access folds onto one partition set.

    Parameters
    ----------
    cores:
        Participating cores (they must share the partition for the storm
        to cause inter-core evictions).
    partition_sets:
        ``s`` of the shared partition (the fold modulus).
    lines_per_core:
        Distinct lines each core cycles through; choose ``> ways`` to
        guarantee every access eventually misses.
    repeats:
        How many passes over the per-core working set each trace makes.
    shuffle:
        Randomise the per-pass order (seeded); a deterministic rotation
        is used otherwise.
    """
    require(bool(cores), "need at least one core", ConfigurationError)
    require_positive(partition_sets, "partition_sets", ConfigurationError)
    require_positive(lines_per_core, "lines_per_core", ConfigurationError)
    require_positive(repeats, "repeats", ConfigurationError)
    require(
        0 <= target_set < partition_sets,
        f"target_set must be in [0, {partition_sets}), got {target_set}",
        ConfigurationError,
    )
    traces: Dict[CoreId, MemoryTrace] = {}
    for slot, core in enumerate(cores):
        blocks = _conflict_blocks(slot, partition_sets, target_set, lines_per_core, 1)
        rng = random.Random(seed * 65_537 + core)
        records: List[TraceRecord] = []
        for pass_index in range(repeats):
            order = list(blocks)
            if shuffle:
                rng.shuffle(order)
            else:
                rotation = pass_index % len(order)
                order = order[rotation:] + order[:rotation]
            records.extend(
                TraceRecord(block * line_size, _WRITE) for block in order
            )
        traces[core] = MemoryTrace(records, name=f"storm-core{core}")
    return traces


def pingpong_traces(
    cores: Sequence[CoreId],
    partition_sets: int,
    repeats: int,
    line_size: int = 64,
    target_set: int = 0,
) -> Dict[CoreId, MemoryTrace]:
    """Two-line ping-pong per core, all folding onto one partition set.

    With ``2 * n`` distinct lines contending for ``w`` ways, each access
    alternates between a line just evicted and one about to be — a
    compact deterministic pattern useful for step-by-step scenario tests.
    """
    require(bool(cores), "need at least one core", ConfigurationError)
    require_positive(partition_sets, "partition_sets", ConfigurationError)
    require_positive(repeats, "repeats", ConfigurationError)
    traces: Dict[CoreId, MemoryTrace] = {}
    for slot, core in enumerate(cores):
        blocks = _conflict_blocks(slot, partition_sets, target_set, 2, 1)
        records = [
            TraceRecord(blocks[i % 2] * line_size, _WRITE)
            for i in range(2 * repeats)
        ]
        traces[core] = MemoryTrace(records, name=f"pingpong-core{core}")
    return traces
