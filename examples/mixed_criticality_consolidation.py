#!/usr/bin/env python3
"""Mixed-criticality consolidation: private partitions + a shared one.

The paper's conclusion envisions deployments where "certain tasks have
their own partitions, but others share partitions; all of which depends
on their performance and real-time requirements."  This example builds
exactly that on the paper's 4-core platform:

* core 0 runs an ASIL-D control task -> its own private partition
  (lowest WCL bound, (2N+1)*SW);
* cores 1-3 run QM/ASIL-B infotainment-style tasks -> one shared
  partition with the set sequencer (bounded by Theorem 4.8, far better
  capacity utilisation than three slivers).

The script checks each task's latency requirement against the
analytical bound of its partition, then simulates to show the bounds
hold and to compare capacity utilisation.

Run:  python examples/mixed_criticality_consolidation.py
"""

from repro.analysis.wcl import (
    SharedPartitionParams,
    wcl_private_cycles,
    wcl_ss_cycles,
)
from repro.cpu.private_stack import PrivateStackConfig
from repro.experiments.tables import render_table
from repro.llc.partition import PartitionSpec
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_core_trace,
)

SLOT = 50
CORES = 4


def build_config() -> SystemConfig:
    partitions = [
        # ASIL-D task: 8 private sets x 16 ways = 8 KiB, isolated.
        PartitionSpec("asil-d", list(range(0, 8)), (0, 16), (0,)),
        # Three QM tasks share 24 sets x 16 ways = 24 KiB with the
        # set sequencer for a finite, size-independent WCL bound.
        PartitionSpec(
            "qm-shared", list(range(8, 32)), (0, 16), (1, 2, 3), sequencer=True
        ),
    ]
    return SystemConfig(
        num_cores=CORES,
        partitions=partitions,
        slot_width=SLOT,
        stack=PrivateStackConfig(l2_sets=16, l2_ways=4),
    )


def check_requirements() -> None:
    asil_d_bound = wcl_private_cycles(CORES, SLOT)
    shared_bound = wcl_ss_cycles(
        SharedPartitionParams(
            total_cores=CORES,
            sharers=3,
            ways=16,
            partition_lines=24 * 16,
            core_capacity_lines=64,
            slot_width=SLOT,
        )
    )
    requirements = [
        ["core 0 (ASIL-D control)", "private P(8,16)", 1_000, asil_d_bound],
        ["core 1 (QM navigation)", "shared SS(24,16,3)", 10_000, shared_bound],
        ["core 2 (QM media)", "shared SS(24,16,3)", 10_000, shared_bound],
        ["core 3 (ASIL-B logging)", "shared SS(24,16,3)", 10_000, shared_bound],
    ]
    print(
        render_table(
            ["task", "partition", "budget (cycles)", "WCL bound", "admitted"],
            [
                row + ["OK" if row[3] <= row[2] else "MISS"]
                for row in requirements
            ],
            title="Admission check: per-access latency budgets vs bounds",
        )
    )
    print()


def run_simulation() -> None:
    config = build_config()
    traces = {}
    # The ASIL-D task has a small, tight working set; the QM tasks are
    # hungry and benefit from pooling their 24 KiB.
    for core, (requests, range_bytes) in enumerate(
        [(300, 2048), (500, 12288), (500, 8192), (500, 4096)]
    ):
        workload = SyntheticWorkloadConfig(
            num_requests=requests,
            address_range_size=range_bytes,
            write_fraction=0.5,
            seed=77,
            range_stride=1 << 20,
        )
        traces[core] = generate_core_trace(workload, core)

    report = simulate(config, traces)
    rows = []
    for core in range(CORES):
        core_report = report.core_reports[core]
        rows.append(
            [
                f"core {core}",
                core_report.requests,
                core_report.observed_wcl,
                f"{core_report.mean_latency:.0f}",
                core_report.finish_time,
            ]
        )
    print(
        render_table(
            ["core", "LLC requests", "observed WCL", "mean latency", "finish"],
            rows,
            title="Simulated mixed-criticality run",
        )
    )
    asil_d_bound = wcl_private_cycles(CORES, SLOT)
    assert report.core_reports[0].observed_wcl <= asil_d_bound
    print(
        f"\nASIL-D observed WCL {report.core_reports[0].observed_wcl} <= "
        f"bound {asil_d_bound}; QM tasks shared 24KiB instead of "
        "3x8KiB slivers."
    )


if __name__ == "__main__":
    check_requirements()
    run_simulation()
