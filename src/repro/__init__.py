"""repro — predictable sharing of last-level cache partitions.

A faithful Python reproduction of *"Predictable Sharing of Last-level
Cache Partitions for Multi-core Safety-critical Systems"* (Wu & Patel,
DAC 2022): the slot-accurate trace simulator of the paper's evaluation
platform, the worst-case latency analysis of Section 4 (Theorems 4.7
and 4.8), and the set sequencer of Section 4.5.

Quick start::

    from repro import (
        PartitionKind, SystemConfig, simulate,
        fig7_system, SyntheticWorkloadConfig, generate_disjoint_workload,
    )

    config = fig7_system(PartitionKind.SS)
    workload = SyntheticWorkloadConfig(num_requests=500, address_range_size=4096)
    traces = generate_disjoint_workload(workload, range(config.num_cores))
    report = simulate(config, traces)
    print("observed WCL:", report.observed_wcl(), "cycles")

Only the quickstart's names are exported here; every other public name
is imported from the module that defines it (``docs/API.md``).
"""

from repro.analysis.wcl import analytical_wcl_cycles
from repro.experiments.configs import fig7_system
from repro.llc.partition import PartitionKind, PartitionNotation
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)

__version__ = "1.1.0"

__all__ = [
    "PartitionKind",
    "PartitionNotation",
    "SystemConfig",
    "SyntheticWorkloadConfig",
    "analytical_wcl_cycles",
    "fig7_system",
    "generate_disjoint_workload",
    "simulate",
    "__version__",
]
