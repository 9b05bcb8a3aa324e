#!/usr/bin/env python3
"""Deploying set partitions with page coloring (Jailhouse/Bao style).

The simulator folds a core's addresses onto its partition's sets; a
real OS achieves the same confinement by only giving the task physical
pages of the partition's *colors*.  This example:

1. computes the color geometry of an LLC whose pages span 8 sets,
2. checks which partitions are expressible by coloring at all,
3. allocates a task's contiguous buffer from colored pages and shows
   every resulting physical line landing inside the partition,
4. runs the colored address stream through the simulator and verifies
   the traffic stayed inside the partition's sets.

Run:  python examples/page_coloring_deployment.py
"""

from repro.common.types import AccessType
from repro.experiments.tables import render_table
from repro.llc.coloring import (
    ColorGeometry,
    colored_allocator_for_partition,
    colors_of_partition,
    is_colorable,
)
from repro.llc.partition import PartitionSpec
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate
from repro.workloads.trace import MemoryTrace, TraceRecord

# An LLC where coloring has room to work: 32 sets, 64-B lines and
# 512-B pages -> each page spans 8 sets -> 4 colors.
GEOMETRY = ColorGeometry(line_size=64, num_sets=32, page_size=512)


def show_colorability() -> None:
    candidates = [
        PartitionSpec("color0", list(range(0, 8)), (0, 16), (0,)),
        PartitionSpec("colors1-2", list(range(8, 24)), (0, 16), (0,)),
        PartitionSpec("half-color", list(range(0, 4)), (0, 16), (0,)),
        PartitionSpec("one-set", [5], (0, 16), (0,)),
    ]
    rows = []
    for partition in candidates:
        if is_colorable(partition, GEOMETRY):
            colors = sorted(colors_of_partition(partition, GEOMETRY))
            rows.append([partition.name, len(partition.sets), str(colors)])
        else:
            rows.append([partition.name, len(partition.sets), "NOT colorable"])
    print(
        render_table(
            ["partition", "sets", "page colors"],
            rows,
            title=f"Colorability ({GEOMETRY.num_colors} colors, "
            f"{GEOMETRY.sets_per_page} sets/page)",
        )
    )
    print(
        "\nSub-color partitions (like Figure 7's single-set ones) need\n"
        "hardware index support; whole-color partitions deploy in software.\n"
    )


def run_colored_simulation() -> None:
    partition = PartitionSpec(
        "colored", list(range(8, 16)), (0, 16), (0,), sequencer=False
    )
    spare = PartitionSpec("rest", [s for s in range(32) if not 8 <= s < 16],
                          (0, 16), (1,))
    allocator = colored_allocator_for_partition(partition, GEOMETRY)

    # A task walking a contiguous 4 KiB virtual buffer, twice.
    virtual_addresses = [offset for offset in range(0, 4096, 64)] * 2
    physical = [allocator.translate(address) for address in virtual_addresses]
    trace = MemoryTrace(
        [TraceRecord(address, AccessType.WRITE) for address in physical],
        name="colored-task",
    )

    native_sets = sorted({(address // 64) % 32 for address in physical})
    print(f"physical line indices land in sets: {native_sets}")
    assert set(native_sets) <= set(partition.sets)

    config = SystemConfig(
        num_cores=2,
        partitions=[partition, spare],
        llc_sets=32,
        llc_ways=16,
    )
    report = simulate(config, {0: trace})
    print(
        f"simulated: {report.core_reports[0].requests} LLC requests, "
        f"{report.core_reports[0].private_hits} private hits, "
        f"LLC hit rate {report.llc_stats.hit_rate:.2f}"
    )
    print(
        "\nThe colored region (8 whole-color sets = 8KiB of LLC) holds the\n"
        "4KiB working set: the entire second pass hits in the LLC (hit\n"
        "rate 0.50 across both passes).  Note the classic coloring side\n"
        "effect on display: the private L2 is physically indexed too, so\n"
        "colored pages also restrict the task to a slice of its own L2 —\n"
        "here the L2 thrashes (0 private hits) while the LLC absorbs the\n"
        "reuse.  Deployments must budget for this L2/color interaction."
    )


if __name__ == "__main__":
    show_colorability()
    run_colored_simulation()
