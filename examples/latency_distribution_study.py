#!/usr/bin/env python3
"""Latency distributions, seed sweeps and histograms.

A single run gives one observed-WCL sample; a certification argument
wants the distribution.  This example sweeps ten workload seeds over
SS / NSS / P on the paper's platform, prints each configuration's
max/mean/spread, and renders ASCII latency histograms showing the tail
the set sequencer removes.

Run:  python examples/latency_distribution_study.py
"""

from repro.experiments.configs import fig7_system
from repro.experiments.tables import render_table
from repro.llc.partition import PartitionKind
from repro.sim.export import core_latency_stats, render_histogram
from repro.sim.simulator import simulate
from repro.sim.sweeps import sweep_seeds
from repro.workloads.synthetic import (
    SyntheticWorkloadConfig,
    generate_disjoint_workload,
)

SEEDS = list(range(1, 11))


def factory(seed):
    workload = SyntheticWorkloadConfig(
        num_requests=250, address_range_size=4096, seed=seed
    )
    return generate_disjoint_workload(workload, range(4))


def sweep_table() -> None:
    rows = []
    for kind in (PartitionKind.SS, PartitionKind.NSS, PartitionKind.P):
        config = fig7_system(kind)
        result = sweep_seeds(config, factory, SEEDS)
        rows.append(
            [
                kind.value,
                result.max_observed_wcl,
                result.wcl_spread,
                f"{result.mean_makespan:.0f}",
            ]
        )
    print(
        render_table(
            ["config", "max observed WCL (10 seeds)", "WCL spread", "mean makespan"],
            rows,
            title="Seed sweep on the paper's platform (4KiB ranges)",
        )
    )
    print()


def histograms() -> None:
    for kind in (PartitionKind.SS, PartitionKind.NSS):
        config = fig7_system(kind)
        report = simulate(config, factory(1))
        stats = core_latency_stats(report)
        print(
            f"{kind.value}: p50={stats.p50} p90={stats.p90} "
            f"p99={stats.p99} max={stats.maximum} cycles"
        )
        print(render_histogram(report.latencies(), bucket_width=200, max_bar=40))
        print()


if __name__ == "__main__":
    sweep_table()
    histograms()
    print(
        "The P configuration's distribution is a tight spike; SS keeps a\n"
        "short bounded tail; NSS's tail stretches with distance increases."
    )
