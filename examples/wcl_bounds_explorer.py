#!/usr/bin/env python3
"""Explore the analytical WCL bounds (Theorems 4.7 and 4.8).

Prints the Theorem 4.7 proof decomposition (Figure 5's four parts) for
the paper's configuration, then sweeps the bounds across sharer count,
associativity and partition size — showing the paper's key claim: the
set sequencer makes the WCL independent of cache and partition size.

Run:  python examples/wcl_bounds_explorer.py
"""

from dataclasses import replace

from repro.analysis.wcl import (
    SharedPartitionParams,
    wcl_nss_breakdown,
    wcl_nss_cycles,
    wcl_ss_cycles,
)
from repro.experiments.tables import render_table


def paper_params(**overrides) -> SharedPartitionParams:
    defaults = dict(
        total_cores=4,
        sharers=4,
        ways=16,
        partition_lines=16,
        core_capacity_lines=64,
        slot_width=50,
    )
    defaults.update(overrides)
    return SharedPartitionParams(**defaults)


def show_breakdown() -> None:
    params = paper_params()
    breakdown = wcl_nss_breakdown(params)
    print(
        render_table(
            ["part of the critical instance (Fig. 5)", "slots"],
            [
                ["(1) write-backs forced on c_ua (m)", breakdown.writebacks],
                ["(2) slots between two write-backs (A*N)", breakdown.slots_between_writebacks],
                ["(3) slots before the first write-back", breakdown.slots_before_first],
                ["(4) slots after the last (incl. response)", breakdown.slots_after_last],
                ["total = (m+1)*A*N + 1", breakdown.total_slots],
            ],
            title="Theorem 4.7 breakdown — NSS(1,16,4), SW=50",
        )
    )
    print(
        f"\n=> NSS bound {wcl_nss_cycles(params)} cycles vs "
        f"SS bound {wcl_ss_cycles(params)} cycles "
        f"({wcl_nss_cycles(params) / wcl_ss_cycles(params):.0f}x reduction)\n"
    )


def show_sweeps() -> None:
    base = paper_params(partition_lines=32)
    sets = base.partition_lines // base.ways
    sweeps = [
        (
            "sharers n",
            [(n, replace(base, sharers=n, total_cores=max(base.total_cores, n)))
             for n in (2, 3, 4, 6, 8)],
        ),
        # Same set count: a way-partitioned LLC grows M with w.
        (
            "ways w",
            [(w, replace(base, ways=w, partition_lines=sets * w))
             for w in (2, 4, 8, 16)],
        ),
        (
            "partition lines M",
            [(m, replace(base, partition_lines=m))
             for m in (16, 32, 64, 128, 256)],
        ),
    ]
    for label, points in sweeps:
        rows = []
        for value, params in points:
            nss, ss = wcl_nss_cycles(params), wcl_ss_cycles(params)
            rows.append([value, nss, ss, f"{nss / ss:.0f}x"])
        print(
            render_table(
                [label, "NSS bound (cycles)", "SS bound (cycles)", "reduction"],
                rows,
                title=f"Bound sensitivity: {label}",
            )
        )
        print()
    print(
        "Note how the SS column is flat across ways and partition size:\n"
        "Theorem 4.8 depends only on the sharer count and the TDM period."
    )


if __name__ == "__main__":
    show_breakdown()
    show_sweeps()
