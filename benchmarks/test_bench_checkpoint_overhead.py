"""Benchmark: periodic-checkpoint overhead at the default interval.

Checkpointing exists so a killed campaign loses at most one interval of
work — but a safety net nobody enables is worthless, so it must be
cheap enough to leave on.  The acceptance criterion is **at most 10%
wall clock** over the plain simulator at the default interval
(``DEFAULT_CHECKPOINT_SLOTS``), with a byte-identical report.
"""

import gc
import random
import time

from repro.common.types import AccessType
from repro.llc.partition import PartitionSpec
from repro.robustness.checkpoint import DEFAULT_CHECKPOINT_SLOTS, run_resumable
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate
from repro.workloads.trace import MemoryTrace, TraceRecord

from bench_common import emit

NUM_CORES = 4
REQUESTS_PER_CORE = 6_000
LINE = 64


def _workload():
    rng = random.Random(2022)
    config = SystemConfig(
        num_cores=NUM_CORES,
        partitions=[
            PartitionSpec(
                name="shared",
                sets=list(range(8)),
                way_range=(0, 8),
                cores=tuple(range(NUM_CORES)),
            )
        ],
        llc_sets=8,
        llc_ways=8,
        record_events=False,
    )
    traces = {
        core: MemoryTrace(
            [
                TraceRecord(rng.randrange(256) * LINE, AccessType.WRITE)
                for _ in range(REQUESTS_PER_CORE)
            ],
            name=f"bench-core{core}",
        )
        for core in range(NUM_CORES)
    }
    return config, traces


def test_checkpoint_overhead(benchmark, tmp_path):
    config, traces = _workload()

    def run_plain():
        started = time.perf_counter()
        report = simulate(config, traces)
        return report, time.perf_counter() - started

    def run_checkpointed():
        path = tmp_path / "bench.ckpt"
        started = time.perf_counter()
        report = run_resumable(
            config, traces, path=path, every_slots=DEFAULT_CHECKPOINT_SLOTS
        )
        return report, time.perf_counter() - started

    # Interleaved best-of-three per arm: a single multi-second
    # wall-clock sample on a shared CI box carries enough scheduler
    # noise to swamp a 10% gate, and alternating the arms exposes both
    # to the same load drift.  The snapshot allocations can also tip a
    # gen-2 GC that walks the whole pytest heap — a harness artifact,
    # not a checkpoint cost — so the imported object graph is frozen
    # out of collection scope.
    gc.collect()
    gc.freeze()
    try:
        plain_runs = [run_plain()]
        ckpt_runs = [
            benchmark.pedantic(run_checkpointed, iterations=1, rounds=1)
        ]
        for _ in range(2):
            plain_runs.append(run_plain())
            ckpt_runs.append(run_checkpointed())
    finally:
        gc.unfreeze()
    plain, plain_seconds = min(plain_runs, key=lambda pair: pair[1])
    checkpointed, ckpt_seconds = min(ckpt_runs, key=lambda pair: pair[1])
    saves = plain.total_slots // DEFAULT_CHECKPOINT_SLOTS
    ratio = ckpt_seconds / plain_seconds
    emit(
        f"plain: {plain_seconds:.2f}s   checkpointed: {ckpt_seconds:.2f}s"
        f"   overhead: {ratio:.2f}x over {saves} save(s) "
        f"(interval: {DEFAULT_CHECKPOINT_SLOTS} slots)"
    )

    # Transparency: checkpointing must not perturb the simulation.
    assert checkpointed.latencies() == plain.latencies()
    assert checkpointed.total_slots == plain.total_slots

    assert ratio < 1.10, (
        f"checkpointing costs {ratio:.2f}x wall clock (budget: < 1.10x) "
        f"at the default {DEFAULT_CHECKPOINT_SLOTS}-slot interval; either the "
        "snapshot walk or the fsync path has regressed"
    )
