"""Isolation verification for mixed partition layouts.

The paper's envisioned deployment (Section 6) mixes partition kinds:
"certain tasks have their own partitions, but others share partitions".
For that to be certifiable, the private tasks must be *temporally
isolated* from whatever the sharing tasks do — their latencies must not
move at all when the sharers go from idle to a worst-case storm.

This experiment builds a 4-core platform where cores 0 and 1 share a
sequencer-ordered partition and cores 2 and 3 own private partitions,
then measures cores 2/3 under three sharer behaviours: idle, moderate,
and full conflict storm.  Reproduction criterion: the private cores'
per-request latencies are **bit-identical** across the three runs
(isolation), while the sharers stay within Theorem 4.8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.verification import derive_core_bounds
from repro.common.types import CoreId
from repro.experiments.tables import render_table
from repro.llc.partition import PartitionSpec
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate
from repro.workloads.adversarial import conflict_storm_traces
from repro.workloads.synthetic import SyntheticWorkloadConfig, generate_core_trace
from repro.workloads.trace import MemoryTrace

#: Sharer load levels probed.
LOAD_LEVELS: Tuple[str, ...] = ("idle", "moderate", "storm")


def build_mixed_config(slot_width: int = 50) -> SystemConfig:
    """2 sharing cores + 2 private cores on the paper's LLC."""
    partitions = [
        PartitionSpec("shared", [0, 1], (0, 16), (0, 1), sequencer=True),
        PartitionSpec("private2", [2, 3, 4, 5], (0, 16), (2,)),
        PartitionSpec("private3", [6, 7, 8, 9], (0, 16), (3,)),
    ]
    return SystemConfig(
        num_cores=4,
        partitions=partitions,
        slot_width=slot_width,
    )


def _sharer_traces(level: str, seed: int) -> Dict[CoreId, MemoryTrace]:
    if level == "idle":
        return {0: MemoryTrace(name="idle0"), 1: MemoryTrace(name="idle1")}
    if level == "moderate":
        traces = {}
        for core in (0, 1):
            workload = SyntheticWorkloadConfig(
                num_requests=300,
                address_range_size=2048,
                write_fraction=0.5,
                seed=seed,
                range_stride=1 << 18,
            )
            traces[core] = generate_core_trace(workload, core)
        return traces
    if level == "storm":
        return conflict_storm_traces(
            cores=[0, 1], partition_sets=2, lines_per_core=24, repeats=30, seed=seed
        )
    raise KeyError(f"unknown load level {level!r}")


def _private_traces(seed: int) -> Dict[CoreId, MemoryTrace]:
    traces = {}
    for core in (2, 3):
        workload = SyntheticWorkloadConfig(
            num_requests=400,
            address_range_size=4096,
            write_fraction=1.0,
            seed=seed,
            range_stride=1 << 20,
        )
        traces[core] = generate_core_trace(workload, core)
    return traces


@dataclass
class IsolationResult:
    """Per-load-level results for the mixed layout."""

    #: level -> core -> sorted per-request latencies.
    private_latencies: Dict[str, Dict[CoreId, List[int]]]
    #: level -> core -> observed WCL.
    observed_wcl: Dict[str, Dict[CoreId, int]]
    private_bound: int
    shared_bound: int

    def private_cores_isolated(self) -> bool:
        """Whether cores 2/3 saw identical latencies at every load."""
        reference = self.private_latencies[LOAD_LEVELS[0]]
        return all(
            self.private_latencies[level] == reference
            for level in LOAD_LEVELS[1:]
        )

    def bounds_hold(self) -> bool:
        """Whether every observation respects its partition's bound."""
        for level in LOAD_LEVELS:
            for core, wcl in self.observed_wcl[level].items():
                bound = self.private_bound if core in (2, 3) else self.shared_bound
                if wcl > bound:
                    return False
        return True

    def render(self) -> str:
        """The experiment as a text table."""
        rows = []
        for level in LOAD_LEVELS:
            for core in sorted(self.observed_wcl[level]):
                bound = self.private_bound if core in (2, 3) else self.shared_bound
                rows.append(
                    [
                        level,
                        f"core {core} ({'private' if core in (2, 3) else 'shared'})",
                        self.observed_wcl[level][core],
                        bound,
                    ]
                )
        return render_table(
            ["sharer load", "core", "observed WCL", "bound"],
            rows,
            title="Isolation under partial sharing (cores 0-1 share, 2-3 private)",
        )


def run_isolation(seed: int = 2022) -> IsolationResult:
    """Run the three load levels and collect the private cores' view."""
    config = build_mixed_config()
    private = _private_traces(seed)
    private_latencies: Dict[str, Dict[CoreId, List[int]]] = {}
    observed: Dict[str, Dict[CoreId, int]] = {}
    for level in LOAD_LEVELS:
        traces: Dict[CoreId, MemoryTrace] = {}
        traces.update(_sharer_traces(level, seed))
        traces.update(private)
        report = simulate(config, traces)
        private_latencies[level] = {
            core: sorted(report.latencies(core)) for core in (2, 3)
        }
        observed[level] = {
            core: report.observed_wcl(core)
            for core in range(4)
            if report.core_reports[core].requests
        }
    bounds = derive_core_bounds(config)
    return IsolationResult(
        private_latencies=private_latencies,
        observed_wcl=observed,
        private_bound=bounds[2].finite_cycles(),
        shared_bound=bounds[0].finite_cycles(),
    )
